"""Scene scripting, rendering, feature encoding, stream synthesis."""

import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbtrack.intra import encode_iframe
from mbtrack.scene import (
    GroundTruthRecord,
    NoiseSpec,
    SceneObject,
    SceneScript,
    Waypoint,
    _NoiseState,
    _occluded_flags,
    encode_p_frame,
    load_ground_truth,
    load_scene_script,
    synthesize,
    synthesize_to,
    write_ground_truth,
)
from mbtrack.stream import (
    FLAG_HAS_BACKGROUND,
    BackgroundChunk,
    FrameFeatures,
    MacroblockGrid,
    StreamHeader,
    read_stream,
    stream_to_bytes,
)

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
        (lambda d: d.update(fps=0), "fps"),
    ])
    def test_validation_failures(self, mutate, msg):
        d = small_script().to_dict()
        mutate(d)
        with pytest.raises(ValueError, match=msg):
            SceneScript.from_dict(d)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "minus-inf"])
    @pytest.mark.parametrize("where, key", [
        ("object 1", "w"), ("object 1", "h"), ("object 1 waypoint 0", "cx"),
        ("object 1 waypoint 0", "cy"), ("object 1 waypoint 0", "h"),
        ("object 1 waypoint 0", "w"),
    ], ids=["object-w", "object-h", "waypoint-cx", "waypoint-cy", "waypoint-h", "waypoint-w"])
    def test_non_finite_numbers_rejected_at_load(self, where, key, value):
        # Every comparison with NaN is false, so no later check would see it.
        d = small_script().to_dict()
        obj = d["objects"][0]
        (obj if where == "object 1" else obj["path"][0])[key] = value
        with pytest.raises(ValueError, match=f"^{where} has a non-finite '{key}': {value}$"):
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

    @pytest.mark.parametrize("fill_type", ["flat", "gradient", None])
    def test_unknown_fill_type_rejected_at_load(self, fill_type):
        d = small_script().to_dict()
        d["objects"][0]["fill"] = {"type": fill_type, "color": [1, 2, 3]}
        with pytest.raises(ValueError, match=f"object 1 has unknown fill type {fill_type!r}"):
            SceneScript.from_dict(d)

    def test_unknown_background_type_rejected_at_load(self):
        d = small_script().to_dict()
        d["background"] = {"type": "solid", "color": [1, 2, 3]}
        with pytest.raises(ValueError, match="unknown background type 'solid'"):
            SceneScript.from_dict(d)

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

    def test_frames_must_be_uint8(self):
        prev, cur = self.frame_pair()
        with pytest.raises(ValueError, match="uint8"):
            encode_p_frame(cur.astype(np.int16), prev.astype(np.int16))

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(0, 2**32 - 1),
           st.sampled_from([0.001, 0.05, 1.0]), st.sampled_from([1, 3, 255]),
           st.sampled_from(["contiguous", "padded", "fortran"]))
    def test_matches_the_reshape_reference(self, rows, cols, seed, p_change, amplitude, layout):
        rng = np.random.default_rng(seed)
        prev = rng.integers(0, 256, (rows * 16, cols * 16, 3), dtype=np.uint8)
        step = rng.integers(-amplitude, amplitude + 1, prev.shape)
        changed = rng.random(prev.shape) < p_change
        cur = np.clip(prev + np.where(changed, step, 0), 0, 255).astype(np.uint8)
        want = reference_encode_p_frame(cur, prev)
        if layout == "padded":  # row views into wider frames
            cur = np.pad(cur, ((0, 0), (16, 0), (0, 0)))[:, 16:]
            prev = np.pad(prev, ((0, 0), (0, 16), (0, 0)))[:, :-16]
        elif layout == "fortran":
            cur, prev = np.asfortranarray(cur), np.asfortranarray(prev)
        assert encode_p_frame(cur, prev) == want


def reference_encode_p_frame(current, previous, deadzone=2):
    """Feature encoding by int16 difference and reshaped reductions, over
    the whole frame."""
    h, w = current.shape[:2]
    rows, cols = h // 16, w // 16
    diff = np.abs(current.astype(np.int16) - previous.astype(np.int16)).max(axis=2)
    mb_changed = (diff > 0).reshape(rows, 16, cols, 16).any(axis=(1, 3))
    sub = diff.reshape(h // 4, 4, w // 4, 4).max(axis=(1, 3)) > deadzone
    sub_bits = sub.reshape(rows, 4, cols, 4).transpose(0, 2, 1, 3).reshape(rows, cols, 16)
    mask = (sub_bits.astype(np.uint32) << np.arange(16, dtype=np.uint32)).sum(axis=2)
    mask[~mb_changed] = 0
    return MacroblockGrid(~mb_changed, mask.astype(np.uint16), np.zeros((rows, cols, 2)))


# -- the full-frame synthesizer ``synthesize_to`` replaced, kept as the reference --

def reference_paint_fill(img, x0, y0, w, h, fill):
    if fill["type"] == "solid":
        img[y0 : y0 + h, x0 : x0 + w] = np.asarray(fill["color"], dtype=np.uint8)
    elif fill["type"] == "checker":
        t = int(fill.get("tile", 8))
        pattern = (np.arange(h)[:, None] // t + np.arange(w) // t) % 2
        img[y0 : y0 + h, x0 : x0 + w] = np.asarray(fill["colors"], dtype=np.uint8)[pattern]
    else:
        raise ValueError(f"unknown fill type {fill['type']!r}")


def reference_render_frame(script, frame, background):
    """A copy of the background with every visible object painted afresh."""
    img = background.copy()
    for o in script.objects:
        state = o.state_at(frame, script.frame_count)
        if state is None:
            continue
        cx, cy, h, w = state
        wi, hi = int(round(w)), int(round(h))
        x0 = max(0, min(int(round(cx - w / 2)), script.width - wi))
        y0 = max(0, min(int(round(cy - h / 2)), script.height - hi))
        reference_paint_fill(img, x0, y0, wi, hi, o.fill)
    return img


def reference_synthesize(script):
    """Render every frame whole, encode it against the whole previous
    frame, and serialize the stream once all frames are built."""
    script.validate()
    header = StreamHeader(width_px=script.width, height_px=script.height, fps=script.fps,
                          gop_len=script.gop_len, frame_count=script.frame_count,
                          flags=FLAG_HAS_BACKGROUND)
    background = script.render_background()
    noise = _NoiseState(script.noise, header.mb_rows, header.mb_cols)
    frames, truth, prev = [], [], None
    for idx in range(script.frame_count):
        img = reference_render_frame(script, idx, background)
        if idx % script.gop_len == 0:
            frames.append(FrameFeatures(idx, "I", intra_payload=encode_iframe(img)))
        else:
            grid = reference_encode_p_frame(img, prev)
            noise.apply(grid)
            frames.append(FrameFeatures(idx, "P", mb_grid=grid))
        prev = img
        states = {o.id: o.state_at(idx, script.frame_count) for o in script.objects}
        states = {oid: st for oid, st in states.items() if st is not None}
        occ = _occluded_flags(states)
        for oid in sorted(states):
            truth.append(GroundTruthRecord(idx, oid, *states[oid], occ[oid]))
    return stream_to_bytes(header, BackgroundChunk(rgb=background), frames), truth


FILLS = [SOLID, CHECKER, {"type": "checker", "colors": [[0, 0, 0], [255, 255, 255]], "tile": 3}]
BACKGROUNDS = [
    {"type": "flat", "color": [128, 128, 128]},
    {"type": "tiles", "tile": 16, "colors": [[10, 10, 10], [30, 30, 30]]},
    {"type": "tiles", "tile": 5, "colors": [[90, 20, 10], [10, 20, 90]]},
]


@st.composite
def scene_scripts(draw):
    """Small scenes of 0-4 objects that overlap, enter late, leave early
    and resize at their waypoints."""
    width, height = 16 * draw(st.integers(4, 8)), 16 * draw(st.integers(3, 6))
    frame_count = draw(st.integers(1, 20))
    objects = []
    for oid in range(draw(st.integers(0, 4))):
        n = draw(st.integers(1, min(3, frame_count)))
        frames = sorted(draw(st.sets(st.integers(0, frame_count - 1), min_size=n, max_size=n)))
        w, h = draw(st.integers(28, 48)), draw(st.integers(28, 48))
        path = []
        for f in frames:
            size = draw(st.none() | st.tuples(st.integers(28, 48), st.integers(28, 48)))
            ww, hh = size or (w, h)
            cx = draw(st.floats(ww / 2, width - ww / 2))
            cy = draw(st.floats(hh / 2, height - hh / 2))
            path.append(Waypoint(f, cx, cy, h=size and hh, w=size and ww))
        objects.append(SceneObject(id=oid + 1, w=w, h=h, fill=draw(st.sampled_from(FILLS)),
                                   path=path))
    noise = draw(st.sampled_from([NoiseSpec(), NoiseSpec(0.05, 0.3, rng_seed=5)]))
    return SceneScript(width=width, height=height, frame_count=frame_count,
                       gop_len=draw(st.integers(2, 10)),
                       background=draw(st.sampled_from(BACKGROUNDS)),
                       objects=objects, noise=noise)


class TestSynthesisAgainstReference:
    @settings(max_examples=120, deadline=None)
    @given(scene_scripts())
    def test_stream_and_truth_match_the_full_frame_reference(self, script):
        assert synthesize(script) == reference_synthesize(script)

    @settings(max_examples=40, deadline=None)
    @given(scene_scripts(), st.integers(0, 19))
    def test_render_frame_matches_the_reference(self, script, frame):
        background = script.render_background()
        want = reference_render_frame(script, frame, background)
        assert np.array_equal(script.render_frame(frame, background), want)
        assert np.array_equal(script.render_frame(frame), want)


class TestStreamingWriter:
    def test_file_sink_gets_the_synthesized_bytes(self, tmp_path):
        script = small_script(noise=NoiseSpec(0.05, 0.2, rng_seed=3))
        path = tmp_path / "scene.mbfs"
        with open(path, "wb") as f:
            truth = synthesize_to(script, f)
        assert (path.read_bytes(), truth) == synthesize(script)

    def test_writer_memory_does_not_grow_with_stream_length(self, tmp_path):
        def traced(gops):
            frames = 8 * gops
            script = small_script(frame_count=frames, objects=[moving_object(last=frames - 1)],
                                  noise=NoiseSpec(0.05, 0.2, rng_seed=3))
            path = tmp_path / f"{gops}.mbfs"
            with open(path, "wb") as f:
                tracemalloc.start()
                try:
                    truth = synthesize_to(script, f)
                    kept, peak = tracemalloc.get_traced_memory()  # kept: the ground truth
                finally:
                    tracemalloc.stop()
            assert len(truth) == frames
            return path.stat().st_size, kept, peak

        _, kept_short, peak_short = traced(4)
        size_long, kept_long, peak_long = traced(16)
        # Only the returned ground truth may grow; the stream is not held.
        assert peak_long - peak_short <= (kept_long - kept_short) + 64 * 1024
        assert peak_long < size_long / 4


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
