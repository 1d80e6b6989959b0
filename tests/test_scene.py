"""Scene scripting, rendering, feature encoding, stream synthesis."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbtrack.scene import (
    GroundTruthRecord,
    NoiseSpec,
    SceneObject,
    SceneScript,
    Waypoint,
    encode_p_frame,
    load_ground_truth,
    load_scene_script,
    synthesize,
    write_ground_truth,
)
from mbtrack.stream import MacroblockGrid, read_stream

CHECKER = {"type": "checker", "colors": [[200, 30, 30], [150, 20, 20]], "tile": 8}
SOLID = {"type": "solid", "color": [20, 40, 200]}


def moving_object(oid=1, w=48, h=48, x0=40, x1=200, y=64, last=79):
    return SceneObject(id=oid, w=w, h=h, fill=CHECKER,
                       path=[Waypoint(0, x0, y), Waypoint(last, x1, y)])


def small_script(**kw):
    args = dict(width=320, height=160, frame_count=80, gop_len=8,
                objects=[moving_object()])
    args.update(kw)
    return SceneScript(**args)


class TestScriptSchema:
    def test_dict_round_trip(self):
        s = small_script(noise=NoiseSpec(0.05, 0.01, rng_seed=7))
        s2 = SceneScript.from_dict(s.to_dict())
        assert s2.to_dict() == s.to_dict()

    def test_json_file_loading(self, tmp_path):
        p = tmp_path / "scene.json"
        p.write_text(json.dumps(small_script().to_dict()))
        s = load_scene_script(p)
        assert s.width == 320 and len(s.objects) == 1

    @pytest.mark.parametrize("mutate,msg", [
        (lambda d: d.update(width=100), "multiples"),
        (lambda d: d.update(gop_len=1), "gop_len"),
        (lambda d: d.update(frame_count=0), "frame_count"),
        (lambda d: d["objects"].append(d["objects"][0]), "duplicate"),
    ])
    def test_validation_failures(self, mutate, msg):
        d = small_script().to_dict()
        mutate(d)
        with pytest.raises(ValueError, match=msg):
            SceneScript.from_dict(d)

    def test_waypoints_must_increase(self):
        obj = SceneObject(id=1, w=48, h=48, fill=SOLID,
                          path=[Waypoint(10, 60, 60), Waypoint(10, 80, 60)])
        with pytest.raises(ValueError, match="increase"):
            small_script(objects=[obj]).validate()

    def test_object_must_stay_on_canvas(self):
        obj = SceneObject(id=1, w=48, h=48, fill=SOLID, path=[Waypoint(0, 10, 60)])
        with pytest.raises(ValueError, match="canvas"):
            small_script(objects=[obj]).validate()

    def test_object_area_floor(self):
        obj = SceneObject(id=1, w=16, h=16, fill=SOLID, path=[Waypoint(0, 60, 60)])
        with pytest.raises(ValueError, match="smaller"):
            small_script(objects=[obj]).validate()


class TestMotionModel:
    def test_linear_interpolation_between_waypoints(self):
        o = moving_object(x0=40, x1=200, last=80)
        assert o.state_at(0, 100) == (40, 64, 48, 48)
        assert o.state_at(40, 100) == (120, 64, 48, 48)
        assert o.state_at(80, 100) == (200, 64, 48, 48)

    def test_visibility_window(self):
        o = SceneObject(id=1, w=48, h=48, fill=SOLID,
                        path=[Waypoint(10, 60, 60), Waypoint(20, 80, 60)])
        assert o.state_at(9, 100) is None
        assert o.state_at(10, 100) is not None
        assert o.state_at(20, 100) is not None
        assert o.state_at(21, 100) is None

    def test_single_waypoint_is_static_until_end(self):
        o = SceneObject(id=1, w=48, h=48, fill=SOLID, path=[Waypoint(5, 60, 60)])
        assert o.state_at(4, 50) is None
        assert o.state_at(49, 50) == (60, 60, 48, 48)

    def test_per_waypoint_size_override_interpolates(self):
        o = SceneObject(id=1, w=40, h=40, fill=SOLID,
                        path=[Waypoint(0, 100, 60), Waypoint(10, 100, 60, h=60, w=60)])
        assert o.state_at(5, 20) == (100, 60, 50, 50)


class TestRendering:
    def test_checker_fill_anchors_to_object_corner(self):
        s = small_script()
        img = s.render_frame(0)
        x0, y0 = 40 - 24, 64 - 24  # top-left corner of the object
        assert tuple(img[y0, x0]) == (200, 30, 30)
        assert tuple(img[y0, x0 + 8]) == (150, 20, 20)
        assert tuple(img[y0 + 8, x0]) == (150, 20, 20)
        assert tuple(img[y0, x0 + 16]) == (200, 30, 30)

    @pytest.mark.parametrize("w, h, tile", [(48, 48, 8), (37, 22, 5), (20, 30, 1), (24, 24, 50)])
    def test_checker_fill_matches_the_index_grid_reference(self, w, h, tile):
        fill = {"type": "checker", "colors": [[1, 2, 3], [4, 5, 6]], "tile": tile}
        obj = SceneObject(id=1, w=w, h=h, fill=fill, path=[Waypoint(0, 50, 50)])
        img = small_script(objects=[obj]).render_frame(0)
        yy, xx = np.mgrid[0:h, 0:w]
        want = np.asarray(fill["colors"], dtype=np.uint8)[((xx // tile) + (yy // tile)) % 2]
        x0, y0 = 50 - w // 2, 50 - h // 2
        assert np.array_equal(img[y0 : y0 + h, x0 : x0 + w], want)

    def test_later_objects_draw_on_top(self):
        a = SceneObject(id=1, w=48, h=48, fill=SOLID, path=[Waypoint(0, 100, 64)])
        b = SceneObject(id=2, w=48, h=48, fill={"type": "solid", "color": [9, 9, 9]},
                        path=[Waypoint(0, 100, 64)])
        img = small_script(objects=[a, b]).render_frame(0)
        assert tuple(img[64, 100]) == (9, 9, 9)

    def test_tiled_background(self):
        s = small_script(objects=[], background={
            "type": "tiles", "tile": 16, "colors": [[10, 10, 10], [30, 30, 30]]})
        img = s.render_frame(0)
        assert tuple(img[0, 0]) == (10, 10, 10)
        assert tuple(img[0, 16]) == (30, 30, 30)
        assert tuple(img[16, 16]) == (10, 10, 10)


class TestFeatureEncoding:
    def frame_pair(self):
        prev = np.full((32, 64, 3), 100, dtype=np.uint8)
        cur = prev.copy()
        return prev, cur

    def test_identical_frames_are_all_skip(self):
        prev, cur = self.frame_pair()
        grid = encode_p_frame(cur, prev)
        assert grid.skip.all()
        assert not grid.coeff_mask.any()
        assert not grid.mv_qpel.any()

    def test_changed_subblocks_set_raster_mask_bits(self):
        prev, cur = self.frame_pair()
        cur[0, 0, 1] += 10     # subblock (0, 0) of macroblock (0, 0)
        cur[4, 0, 0] += 10     # subblock row 1, col 0 -> bit 4
        cur[0, 20, 2] += 10    # macroblock 1, subblock col 1 -> bit 1
        grid = encode_p_frame(cur, prev)
        assert not grid.skip[0, 0] and not grid.skip[0, 1]
        assert grid.coeff_mask[0, 0] == (1 << 0) | (1 << 4)
        assert grid.coeff_mask[0, 1] == (1 << 1)
        assert grid.skip[1, :].all()

    def test_sub_deadzone_change_codes_block_with_empty_mask(self):
        prev, cur = self.frame_pair()
        cur[8, 8] += 2  # within the dead zone
        grid = encode_p_frame(cur, prev)
        assert not grid.skip[0, 0]
        assert grid.coeff_mask[0, 0] == 0

    def test_all_motion_vectors_are_zero(self):
        prev, cur = self.frame_pair()
        cur[:16, :16] = 7
        assert not encode_p_frame(cur, prev).mv_qpel.any()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.sampled_from([0.001, 0.05, 1.0]), st.sampled_from([1, 3, 255]))
    def test_matches_the_reshape_reference(self, rows, cols, seed, p_change, amplitude):
        rng = np.random.default_rng(seed)
        prev = rng.integers(0, 256, (rows * 16, cols * 16, 3), dtype=np.uint8)
        step = rng.integers(-amplitude, amplitude + 1, prev.shape)
        changed = rng.random(prev.shape) < p_change
        cur = np.clip(prev + np.where(changed, step, 0), 0, 255).astype(np.uint8)
        assert encode_p_frame(cur, prev) == reference_encode_p_frame(cur, prev)


def reference_encode_p_frame(current, previous, deadzone=2):
    """Feature encoding by int16 difference and reshaped reductions."""
    h, w = current.shape[:2]
    rows, cols = h // 16, w // 16
    diff = np.abs(current.astype(np.int16) - previous.astype(np.int16)).max(axis=2)
    mb_changed = (diff > 0).reshape(rows, 16, cols, 16).any(axis=(1, 3))
    sub = diff.reshape(h // 4, 4, w // 4, 4).max(axis=(1, 3)) > deadzone
    sub_bits = sub.reshape(rows, 4, cols, 4).transpose(0, 2, 1, 3).reshape(rows, cols, 16)
    mask = (sub_bits.astype(np.uint32) << np.arange(16, dtype=np.uint32)).sum(axis=2)
    mask[~mb_changed] = 0
    return MacroblockGrid(~mb_changed, mask.astype(np.uint16), np.zeros((rows, cols, 2)))


class TestSynthesis:
    def test_same_script_gives_identical_bytes(self):
        s = small_script(noise=NoiseSpec(0.05, 0.01, rng_seed=3))
        data1, truth1 = synthesize(s)
        data2, truth2 = synthesize(s)
        assert data1 == data2
        assert truth1 == truth2

    def test_noise_seed_changes_the_stream(self):
        base = small_script(noise=NoiseSpec(0.05, 0.01, rng_seed=3))
        other = small_script(noise=NoiseSpec(0.05, 0.01, rng_seed=4))
        assert synthesize(base)[0] != synthesize(other)[0]

    def test_stream_parses_with_expected_structure(self):
        data, truth = synthesize(small_script())
        header, bg, frames = read_stream(io.BytesIO(data))
        frames = list(frames)
        assert header.frame_count == 80 and len(frames) == 80
        assert all(f.kind == ("I" if f.frame_index % 8 == 0 else "P") for f in frames)
        assert bg is not None and bg.rgb.shape == (160, 320, 3)

    def test_moving_object_covers_its_cells(self):
        data, _ = synthesize(small_script())
        _, _, frames = read_stream(io.BytesIO(data))
        frame1 = [f for f in frames if f.frame_index == 1][0]
        coded = np.argwhere(~frame1.mb_grid.skip)
        assert len(coded) >= 9  # a 48x48 object spans at least a 3x3 cell block
        ys, xs = coded.T
        assert xs.min() >= 0 and xs.max() <= 5  # object is near x = 40..42
        assert 2 <= ys.min() and ys.max() <= 6

    def test_ground_truth_marks_overlap_as_occluded(self):
        a = SceneObject(id=1, w=48, h=48, fill=CHECKER,
                        path=[Waypoint(0, 60, 64), Waypoint(79, 200, 64)])
        b = SceneObject(id=2, w=48, h=48, fill=CHECKER,
                        path=[Waypoint(0, 200, 64), Waypoint(79, 60, 64)])
        _, truth = synthesize(small_script(objects=[a, b]))
        mid = [r for r in truth if abs(r.cx - 130) < 24]
        assert mid and all(r.occluded for r in mid)
        start = [r for r in truth if r.frame_index == 0]
        assert not any(r.occluded for r in start)

    def test_ground_truth_jsonl_round_trip(self, tmp_path):
        _, truth = synthesize(small_script())
        p = tmp_path / "gt.jsonl"
        write_ground_truth(truth, p)
        assert load_ground_truth(p) == truth
        first = json.loads(p.read_text().splitlines()[0])
        assert set(first) == {"frame_index", "object_id", "cx", "cy", "h", "w", "occluded"}
