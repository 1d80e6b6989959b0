"""Macroblock filtering: clustering, spatial filter, temporal evidence, tracking."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import ndimage

from mbtrack.filtering import (
    BlockGroup,
    Entity,
    EntityTracker,
    Label,
    PsmfConfig,
    TrackEvent,
    classify_entity,
    cluster_blocks,
    default_omega,
    spatial_filter,
)
from mbtrack.occlusion import HUE_BINS, HueHistogram
from mbtrack.refinement import BlobFeature
from mbtrack.stream import FrameFeatures, MacroblockGrid

import reference_filtering

LN2 = math.log(2.0)


def make_pframe(cells, rows=8, cols=8, frame_index=1):
    """P-frame whose non-skip cells are given as {(mx, my): coeff_mask}."""
    grid = MacroblockGrid.all_skip(rows, cols)
    for (mx, my), mask in dict(cells).items():
        grid.skip[my, mx] = False
        grid.coeff_mask[my, mx] = mask
    return FrameFeatures(frame_index, "P", mb_grid=grid)


def group(cells, frame_index=1, coeff=True):
    return BlockGroup(frame_index, frozenset(cells), has_nonzero_coeff=coeff)


def row_cells(x0, x1, y=0):
    return {(x, y) for x in range(x0, x1)}


def region_cells(region):
    """A region's cell keys ``my << 16 | mx`` as a frozenset of (mx, my)."""
    return frozenset(zip((region & 0xFFFF).tolist(), (region >> 16).tolist()))


class TestClustering:
    def test_diagonal_cells_join_one_group(self):
        frame = make_pframe({(0, 0): 1, (1, 1): 0})
        groups = cluster_blocks(frame)
        assert len(groups) == 1
        assert groups[0].members == frozenset({(0, 0), (1, 1)})
        assert groups[0].has_nonzero_coeff

    def test_gap_separates_groups(self):
        groups = cluster_blocks(make_pframe({(0, 0): 1, (2, 0): 1}))
        assert sorted(g.members for g in groups) == [
            frozenset({(0, 0)}), frozenset({(2, 0)})]

    def test_all_skip_frame_has_no_groups(self):
        assert cluster_blocks(make_pframe({})) == []

    def test_coefficient_flag_is_any_over_members(self):
        groups = cluster_blocks(make_pframe({(0, 0): 0, (1, 0): 0, (2, 0): 4}))
        assert len(groups) == 1 and groups[0].has_nonzero_coeff

    def test_group_must_be_connected(self):
        for cells in ({(0, 0), (5, 5)}, {(0, 0), (2, 0), (1, 2)}):
            with pytest.raises(ValueError):
                BlockGroup(0, frozenset(cells), has_nonzero_coeff=True)
        with pytest.raises(ValueError):
            BlockGroup(0, frozenset(), has_nonzero_coeff=False)

    def test_cells_outside_the_key_range_are_rejected(self):
        # A negative or 17-bit coordinate would spill into the other half of
        # its key and name a different cell.
        for cells in ({(-1, 0), (0, 0)}, {(0, -1), (0, 0)}, {(65535, 0), (65536, 0)},
                      {(0, 65536)}):
            with pytest.raises(ValueError):
                BlockGroup(0, frozenset(cells), has_nonzero_coeff=True)
        group = BlockGroup(0, {(65535, 65535), (65534, 65535)}, has_nonzero_coeff=True)
        assert group.members == {(65535, 65535), (65534, 65535)}

    def test_the_widest_grid_keeps_its_geometry(self):
        # 4095 columns are the widest a u16 pixel width allows (65,520 px).
        groups = cluster_blocks(make_pframe({(4093, 0): 1, (4094, 0): 0}, rows=1, cols=4095))
        (g,) = spatial_filter(groups)
        assert g.members == {(4093, 0), (4094, 0)}
        blob = BlobFeature.from_grid_region(g.keys)
        x0, _, w, _ = blob.corner_rect()
        assert (x0, x0 + w) == (65488, 65520)

    def test_groups_view_one_key_array(self):
        cells = {(0, 0): 1, (2, 0): 0, (4, 2): 0, (5, 2): 0}  # two singles, a bare pair
        cells.update({(0, 4): 0, (1, 4): 2, (2, 4): 0})
        groups = cluster_blocks(make_pframe(cells))
        kept = spatial_filter(groups)
        assert [len(g) for g in groups] == [1, 1, 2, 3] and len(kept) == 1
        frame_keys = groups[0].keys.base
        assert all(g.keys.base is frame_keys and np.shares_memory(g.keys, frame_keys)
                   for g in groups)
        assert [region_cells(g.keys) for g in groups] == [g.members for g in groups]
        assert kept[0].members == frozenset({(0, 4), (1, 4), (2, 4)})


def reference_cluster(frame):
    """The label-by-label loop ``cluster_blocks`` replaced: two scans of the
    label image per group, and a validated (connectivity-checked) BlockGroup."""
    grid = frame.mb_grid
    labels, count = ndimage.label(~grid.skip, structure=np.ones((3, 3), dtype=int))
    groups = []
    for k in range(1, count + 1):
        cells = np.argwhere(labels == k)
        members = frozenset((int(mx), int(my)) for my, mx in cells)
        has_coeff = bool(np.any(grid.coeff_mask[labels == k]))
        groups.append(BlockGroup(frame.frame_index, members, has_coeff))
    return groups


def random_pframe(rng, rows, cols, p_coded, p_coeff, frame_index=7):
    grid = MacroblockGrid.all_skip(rows, cols)
    grid.skip[:] = rng.random((rows, cols)) >= p_coded
    grid.coeff_mask[:] = np.where(~grid.skip & (rng.random((rows, cols)) < p_coeff),
                                  rng.integers(1, 0x10000, (rows, cols)), 0)
    return FrameFeatures(frame_index, "P", mb_grid=grid)


class TestClusteringAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 24), st.integers(0, 2**32 - 1),
           st.sampled_from([0.05, 0.3, 0.6, 0.95]), st.sampled_from([0.0, 0.2, 1.0]))
    def test_groups_match_the_label_loop(self, rows, cols, seed, p_coded, p_coeff):
        frame = random_pframe(np.random.default_rng(seed), rows, cols, p_coded, p_coeff)
        got, want = cluster_blocks(frame), reference_cluster(frame)
        # equal keys in equal (raster) order, so nothing downstream can tell
        # them apart
        assert got == want

    def test_interleaved_grid_shapes_match_the_label_loop(self):
        # Shapes of one cell count but other widths, and more shapes than a
        # per-shape table cache keeps, one frame of each in turn: a key
        # table of one shape must never serve a frame of another.
        shapes = [(1, 4095), (4095, 1), (30, 40), (40, 30), (15, 80), (80, 15), (1, 1),
                  (3, 1365), (1365, 3), (68, 120)]
        rng = np.random.default_rng(11)
        for order in (shapes, shapes[::-1], shapes[::2] + shapes[1::2]):
            for rows, cols in order:
                frame = random_pframe(rng, rows, cols, 0.4, 0.5)
                got, want = cluster_blocks(frame), reference_cluster(frame)
                assert got == want, (rows, cols)


class TestSpatialFilter:
    def test_nine_group_configuration_keeps_two(self):
        # six isolated single blocks, one coefficient-free pair, two
        # coefficient-bearing multi-block groups
        cells = {(0, 0): 1, (2, 0): 0, (4, 0): 3, (6, 0): 0, (0, 2): 7, (2, 2): 0}
        cells.update({(4, 2): 0, (5, 2): 0})                      # pair, no coeffs
        cells.update({(0, 4): 0, (1, 4): 2, (2, 4): 0})           # multi with coeffs
        cells.update({(4, 4): 1, (5, 4): 0, (4, 5): 0, (5, 5): 0})
        groups = cluster_blocks(make_pframe(cells))
        assert len(groups) == 9
        kept = spatial_filter(groups)
        assert [g.members for g in kept] == [
            frozenset({(0, 4), (1, 4), (2, 4)}),
            frozenset({(4, 4), (5, 4), (4, 5), (5, 5)}),
        ]

    def test_disabled_filter_passes_everything(self):
        groups = cluster_blocks(make_pframe({(0, 0): 1, (3, 3): 0}))
        assert spatial_filter(groups, enabled=False) == groups
        assert spatial_filter(groups) == []

    def test_multiblock_coefficient_groups_always_survive(self):
        rng = np.random.default_rng(42)
        for _ in range(50):
            skip = rng.random((8, 8)) < 0.6
            mask = np.where(~skip, rng.integers(0, 4, (8, 8)), 0).astype(np.uint16)
            grid = MacroblockGrid(~(~skip), mask, np.zeros((8, 8, 2), np.int16))
            grid.skip[:] = skip
            frame = FrameFeatures(1, "P", mb_grid=grid)
            groups = cluster_blocks(frame)
            kept = set(id(g) for g in spatial_filter(groups))
            for g in groups:
                if len(g.members) > 1 and g.has_nonzero_coeff:
                    assert id(g) in kept


def evidence_after(frames):
    """``neglog_sum`` of the entity seeded by the first of ``frames``, each a
    list of its P-frame's group cells, stepped in order (psi 8: none
    classifies)."""
    tr = EntityTracker(PsmfConfig(psi=8))
    for f, cells in enumerate(frames, start=1):
        tr.step([group(c, f) for c in cells], f)
    return tr.entities[1].neglog_sum


class TestOccurrenceEvidence:
    def test_seed_frame_contributes_nothing(self):
        assert evidence_after([[row_cells(0, 4)]]) == 0.0

    def test_half_overlap_costs_ln_two(self):
        assert evidence_after([[row_cells(0, 8)], [row_cells(4, 12)]]) == LN2

    def test_three_quarter_overlap(self):
        got = evidence_after([[row_cells(0, 4)], [row_cells(1, 5)]])
        assert got == pytest.approx(0.2876820724517809, abs=1e-15)

    def test_unsupported_frame_uses_detection_rate(self):
        r = row_cells(0, 4)
        # two supported frames out of three observed
        got = evidence_after([[r], [r], []])
        assert got == pytest.approx(-math.log(2 / 3), abs=1e-15)


class TestClassification:
    def test_default_threshold_is_psi_ln_two(self):
        assert default_omega(8) == 8 * LN2
        assert PsmfConfig(psi=4).omega == 4 * LN2

    def test_threshold_is_strict(self):
        cfg = PsmfConfig(psi=8)
        e = Entity(id=1, region=np.zeros(1, dtype=np.int64))
        e.neglog_sum = cfg.omega
        assert classify_entity(e, cfg) is Label.BACKGROUND
        e.neglog_sum = np.nextafter(cfg.omega, 0.0)
        assert classify_entity(e, cfg) is Label.REAL

    def test_config_rejects_bad_parameters(self):
        for kwargs in (
            {"psi": 0},
            {"psi": 1},  # the seed alone: no evidence term to decide on
            {"omega": 0.0},
            {"omega": math.nan},  # no sum is below NaN: nothing would promote
            {"stale_limit": -1},  # would retire every real entity at once
        ):
            with pytest.raises(ValueError):
                PsmfConfig(**kwargs)


class TestEntityTracker:
    def test_steady_support_promotes_at_exactly_psi(self):
        tr = EntityTracker(PsmfConfig(psi=8))
        cells = row_cells(0, 3)
        labels = []
        for f in range(1, 9):
            events = tr.step([group(cells, f)], f)
            labels += [e for e in events if e.kind == "classified"]
        assert len(labels) == 1
        assert labels[0].frame_index == 8
        assert labels[0].data["label"] == "real"
        assert labels[0].data["neglog_sum"] == 0.0
        assert tr.entities[1].label is Label.REAL

    def test_one_shot_noise_classified_background(self):
        tr = EntityTracker(PsmfConfig(psi=8))
        tr.step([group(row_cells(0, 2), 1)], 1)
        classified = []
        for f in range(2, 9):
            classified += [e for e in tr.step([], f) if e.kind == "classified"]
        assert classified[0].data["label"] == "background"
        # sum over unsupported frames is ln(2) + ln(3) + ... + ln(8)
        expected = sum(math.log(i) for i in range(2, 9))
        assert classified[0].data["neglog_sum"] == pytest.approx(expected, rel=1e-12)
        assert tr.entities == {}

    def test_half_overlap_train_accrues_ln_two_per_step(self):
        tr = EntityTracker(PsmfConfig(psi=8))
        tr.step([group(row_cells(0, 8), 1)], 1)
        tr.step([group(row_cells(4, 12), 2)], 2)
        assert tr.entities[1].neglog_sum == LN2
        tr.step([group(row_cells(8, 16), 3)], 3)
        assert tr.entities[1].neglog_sum == 2 * LN2

    def test_unsupported_frame_freezes_region(self):
        tr = EntityTracker(PsmfConfig(psi=8))
        cells = row_cells(0, 3)
        tr.step([group(cells, 1)], 1)
        tr.step([], 2)
        e = tr.entities[1]
        assert region_cells(e.region) == frozenset(cells)
        assert e.virtual_streak == 1

    def test_region_propagates_through_union(self):
        tr = EntityTracker(PsmfConfig(psi=8))
        tr.step([group(row_cells(0, 4), 1)], 1)
        far = group(row_cells(0, 2, y=6), 2)
        near_a = group(row_cells(0, 2), 2)
        near_b = group(row_cells(3, 5), 2)
        tr.step([near_a, near_b, far], 2)
        assert region_cells(tr.entities[1].region) == frozenset(row_cells(0, 2) | row_cells(3, 5))
        assert len(tr.entities) == 2  # the far group seeded its own candidate

    def test_candidate_collision_merges_into_oldest(self):
        tr = EntityTracker(PsmfConfig(psi=8))
        tr.step([group(row_cells(0, 2), 1), group(row_cells(6, 8), 1)], 1)
        assert sorted(tr.entities) == [1, 2]
        events = tr.step([group(row_cells(0, 8), 2)], 2)
        kinds = [e.kind for e in events]
        assert "merged" in kinds and "seed" not in kinds
        assert sorted(tr.entities) == [1]
        assert region_cells(tr.entities[1].region) == frozenset(row_cells(0, 8))

    def test_real_collision_opens_occlusion(self):
        tr = EntityTracker(PsmfConfig(psi=4))
        a, b = row_cells(0, 3), row_cells(9, 12)
        for f in range(1, 5):
            tr.step([group(a, f), group(b, f)], f)
        assert all(e.label is Label.REAL for e in tr.entities.values())
        events = tr.step([group(row_cells(0, 12), 5)], 5)
        begins = [e for e in events if e.kind == "occlusion_begin"]
        assert len(begins) == 1
        assert begins[0].data["member_object_ids"] == [1, 2]
        assert tr.entities == {}
        assert len(tr.occlusions) == 1

    def test_split_fragments_confirm_disocclusion(self):
        tr = EntityTracker(PsmfConfig(psi=4))
        a, b = row_cells(0, 3), row_cells(9, 12)
        for f in range(1, 5):
            tr.step([group(a, f), group(b, f)], f)
        tr.step([group(row_cells(0, 12), 5)], 5)
        events = tr.step([group(row_cells(0, 3), 6), group(row_cells(9, 12), 6)], 6)
        splits = [e for e in events if e.kind == "region_split"]
        assert len(splits) == 1
        frag_ids = splits[0].data["fragment_ids"]
        assert len(frag_ids) == 2
        seen = []
        for f in range(7, 10):
            seen += tr.step([group(row_cells(0, 3), f), group(row_cells(9, 12), f)], f)
        kinds = [e.kind for e in seen]
        assert kinds.count("classified") == 2
        assert "disocclusion" in kinds
        oid = splits[0].data["occlusion_id"]
        assert tr.occlusions[oid].confirmed_split
        assert [f.id for f in tr.fragments(oid)] == frag_ids
        assert all(tr.entities[fid].label is Label.REAL for fid in frag_ids)

    def test_real_joining_an_occlusion_extends_it(self):
        tr = EntityTracker(PsmfConfig(psi=2))
        a, b, c = row_cells(0, 3), row_cells(9, 12), row_cells(20, 23)
        for f in (1, 2):
            tr.step([group(a, f), group(b, f), group(c, f)], f)
        tr.step([group(row_cells(0, 12), 3), group(c, 3)], 3)
        (oid,) = tr.occlusions
        events = tr.step([group(row_cells(0, 23), 4)], 4)
        extends = [e.data for e in events if e.kind == "occlusion_extend"]
        assert extends == [{"occlusion_id": oid, "object_id": 3}]
        members = tr.occlusions[oid].members
        assert tr.occlusions[oid].member_object_ids == [1, 2, 3] == list(members)
        assert all(m.label is Label.OCCLUDED for m in members.values())
        assert tr.entities == {}

    def test_colliding_occlusions_merge_into_the_lower_id(self):
        tr = EntityTracker(PsmfConfig(psi=2))
        rows = [row_cells(0, 3), row_cells(5, 8), row_cells(20, 23), row_cells(25, 28)]
        for f in (1, 2):
            tr.step([group(r, f) for r in rows], f)
        tr.step([group(row_cells(0, 8), 3), group(row_cells(20, 28), 3)], 3)
        assert sorted(tr.occlusions) == [5, 6]
        events = tr.step([group(row_cells(0, 28), 4)], 4)
        merges = [e.data for e in events if e.kind == "occlusion_merge"]
        assert merges == [{"occlusion_id": 5, "absorbed": 6}]
        assert list(tr.occlusions) == [5]
        assert tr.occlusions[5].member_object_ids == [1, 2, 3, 4]
        assert region_cells(tr.occlusions[5].region) == frozenset(row_cells(0, 28))

    def test_one_group_over_candidate_fragments_is_a_reunion(self):
        tr = EntityTracker(PsmfConfig(psi=4))
        a, b = row_cells(0, 3), row_cells(9, 12)
        for f in range(1, 5):
            tr.step([group(a, f), group(b, f)], f)
        tr.step([group(row_cells(0, 12), 5)], 5)
        events = tr.step([group(a, 6), group(b, 6)], 6)
        assert [e.data["fragment_ids"] for e in events if e.kind == "region_split"] == [[4, 5]]
        events = tr.step([group(row_cells(0, 12), 7)], 7)
        reunions = [e.data for e in events if e.kind == "reunion"]
        assert reunions == [{"occlusion_id": 3, "fragment_ids": [4, 5]}]
        assert tr.entities == {}
        assert region_cells(tr.occlusions[3].region) == frozenset(row_cells(0, 12))

    def test_region_split_payload_keeps_every_fragment(self):
        # The event lists the fragments the split made, whatever the next
        # steps do with them (here a reunion removes both).
        tr = EntityTracker(PsmfConfig(psi=4))
        a, b = row_cells(0, 3), row_cells(9, 12)
        for f in range(1, 5):
            tr.step([group(a, f), group(b, f)], f)
        tr.step([group(row_cells(0, 12), 5)], 5)
        (split,) = [e for e in tr.step([group(a, 6), group(b, 6)], 6)
                    if e.kind == "region_split"]
        tr.step([group(row_cells(0, 12), 7)], 7)
        assert split.data["fragment_ids"] == [4, 5]

    def test_split_leaving_one_fragment_continues_the_occlusion(self):
        tr = EntityTracker(PsmfConfig(psi=4))
        a, b = row_cells(0, 3), row_cells(9, 12)
        for f in range(1, 5):
            tr.step([group(a, f), group(b, f)], f)
        tr.step([group(row_cells(0, 12), 5)], 5)
        tr.step([group(a, 6), group(b, 6)], 6)
        seen = []
        for f in (7, 8, 9):  # fragment 5's blob is gone: it classifies background
            seen += tr.step([group(a, f)], f)
        single = [e.data for e in seen if e.kind == "occluded_single"]
        assert single == [{"occlusion_id": 3, "fragment_id": 4}]
        assert tr.entities == {}
        assert region_cells(tr.occlusions[3].region) == frozenset(a)
        assert not tr.occlusions[3].confirmed_split

    def test_fragments_of_an_absorbed_occlusion_can_reunite(self):
        tr = EntityTracker(PsmfConfig(psi=3))
        rows = lambda x0, x1: row_cells(x0, x1) | row_cells(x0, x1, y=1)
        for f in (1, 2, 3):
            tr.step([group(rows(x, x + 2), f) for x in (0, 3, 20, 23)], f)
        a, b = rows(0, 5), rows(20, 25)
        tr.step([group(a, 4), group(b, 4)], 4)
        assert {i: o.member_object_ids for i, o in tr.occlusions.items()} == {
            5: [1, 2], 6: [3, 4]}
        events = tr.step([group(a, 5)] + [group({c}, 5) for c in
                                          ((20, 0), (22, 0), (24, 0), (23, 1))], 5)
        assert [e.data["fragment_ids"] for e in events
                if e.kind == "region_split"] == [[7, 8, 9, 10]]
        events = tr.step([group(row_cells(20, 23), 6), group(a | row_cells(4, 21), 6),
                          group({(24, 0)}, 6), group({(23, 1)}, 6)], 6)
        # The reunion over 7 and 8 ends the split of 6 for all four
        # fragments, so the merge absorbs a whole occlusion, and the groups
        # over 9 and 10 reach the absorber through 6.
        assert [(e.kind, e.data) for e in events
                if e.kind in ("reunion", "occlusion_merge", "region_split")] == [
            ("reunion", {"occlusion_id": 6, "fragment_ids": [7, 8, 9, 10]}),
            ("occlusion_merge", {"occlusion_id": 5, "absorbed": 6}),
            ("region_split", {"occlusion_id": 5, "fragment_ids": [11, 12, 13, 14]})]
        assert list(tr.occlusions) == [5] and tr.occlusions[5].member_object_ids == [1, 2, 3, 4]
        assert not any(e.fragment_of == 6 for e in tr.entities.values())
        # one group over two of the fragments left: a reunion with the live 5
        events = tr.step([group({(23, 1), (24, 0)}, 7)], 7)
        assert [e.data for e in events if e.kind == "reunion"] == [
            {"occlusion_id": 5, "fragment_ids": [11, 12, 13, 14]}]

    def test_reunion_of_two_of_four_fragments_keeps_the_reunited_cells(self):
        # Occlusion 3 splits into fragments 4-7, and one group over 4 and 5
        # reunites it: the whole occlusion, so no fragment is left to take
        # its region over. It follows the group like any unit, and the same
        # group a frame later is its own, not a new candidate's.
        tr = EntityTracker(PsmfConfig(psi=4))
        a, b = row_cells(0, 3), row_cells(9, 12)
        for f in range(1, 5):
            tr.step([group(a, f), group(b, f)], f)
        tr.step([group(row_cells(0, 12), 5)], 5)
        events = tr.step([group(row_cells(x, x + 2), 6) for x in (0, 3, 6, 9)], 6)
        assert [e.data["fragment_ids"] for e in events if e.kind == "region_split"] == [
            [4, 5, 6, 7]]
        events = tr.step([group(row_cells(0, 5), 7)], 7)
        assert [e.data for e in events if e.kind == "reunion"] == [
            {"occlusion_id": 3, "fragment_ids": [4, 5, 6, 7]}]
        assert tr.entities == {}
        assert region_cells(tr.occlusions[3].region) == frozenset(row_cells(0, 5))
        assert tr.step([group(row_cells(0, 5), 8)], 8) == []
        assert tr.entities == {}
        assert region_cells(tr.occlusions[3].region) == frozenset(row_cells(0, 5))

    def test_group_over_a_fragment_before_its_reunion_stays_with_the_occlusion(self):
        # The first group reaches fragment 4 alone; the second reunites
        # occlusion 3 through fragments 4 and 5. The first group moves to
        # the occlusion with its fragment, so the occlusion holds two groups
        # and splits anew over both: no cell is left to seed a candidate.
        tr = EntityTracker(PsmfConfig(psi=4))
        rows = lambda x0, x1: row_cells(x0, x1) | row_cells(x0, x1, y=1)
        a, b = rows(0, 3), rows(9, 12)
        for f in range(1, 5):
            tr.step([group(a, f), group(b, f)], f)
        tr.step([group(rows(0, 12), 5)], 5)
        tr.step([group(a, 6), group(b, 6)], 6)
        first, second = rows(0, 1), rows(2, 10)
        events = tr.step([group(first, 7), group(second, 7)], 7)
        assert [(e.kind, e.data) for e in events] == [
            ("reunion", {"occlusion_id": 3, "fragment_ids": [4, 5]}),
            ("region_split", {"occlusion_id": 3, "fragment_ids": [6, 7]})]
        assert region_cells(tr.occlusions[3].region) == frozenset(first | second)
        assert [region_cells(tr.entities[i].region) for i in (6, 7)] == [frozenset(first),
                                                                   frozenset(second)]
        events = tr.step([group(first, 8), group(second, 8)], 8)
        assert "seed" not in [e.kind for e in events]

    def test_real_retires_after_stale_limit_unsupported_frames(self):
        tr = EntityTracker(PsmfConfig(psi=2, stale_limit=1))
        for f in (1, 2):
            tr.step([group(row_cells(0, 3), f)], f)
        assert tr.step([], 3) == [] and 1 in tr.entities
        events = tr.step([], 4)
        assert [(e.kind, e.data) for e in events] == [("stale_retired", {"object_id": 1})]
        assert tr.entities == {}

    def test_unmatched_fragment_becomes_a_new_object(self):
        tr, o, frags = disoccluded(members=2, fragments=3)
        events = tr.observe_iframe(8, {}, fixed_match({frags[0]: 1, frags[1]: 2}))
        assert [(e.kind, e.data) for e in events] == [
            ("identity_assigned", {"occlusion_id": o.id,
                                   "assignment": {str(frags[0]): 1, str(frags[1]): 2},
                                   "distances": []}),
            ("new_object_from_fragment", {"object_id": frags[2], "occlusion_id": o.id}),
            ("occlusion_closed", {"occlusion_id": o.id}),
        ]
        assert sorted(tr.entities) == [1, 2, frags[2]]
        assert region_cells(tr.entities[1].region) == frozenset(row_cells(0, 3))
        new = tr.entities[frags[2]]
        assert new.fragment_of is None
        assert tr.occlusions == {} and o.members == {}

    def test_unmatched_member_goes_missing(self):
        tr, o, frags = disoccluded(members=3, fragments=2)
        events = tr.observe_iframe(8, {}, fixed_match({frags[0]: 2, frags[1]: 3}))
        assert [(e.kind, e.data) for e in events] == [
            ("identity_assigned", {"occlusion_id": o.id,
                                   "assignment": {str(frags[0]): 2, str(frags[1]): 3},
                                   "distances": []}),
            ("member_missing", {"object_id": 1, "occlusion_id": o.id}),
            ("occlusion_closed", {"occlusion_id": o.id}),
        ]
        assert sorted(tr.entities) == [2, 3]
        assert region_cells(tr.entities[2].region) == frozenset(row_cells(0, 3))
        assert all(e.label is Label.REAL and e.fragment_of is None
                   for e in tr.entities.values())
        assert tr.occlusions == {}

    def test_each_call_returns_only_its_own_events_at_its_frame(self):
        # A P-frame, the I-frame after it that resolves the split, and the
        # next P-frame: each call's list is its own, and stays as returned.
        tr, o, frags = disoccluded(members=2, fragments=2)

        def groups(f):  # the two fragments, and a new blob that seeds at 7
            return [group(cells, f) for cells in (row_cells(0, 3), row_cells(6, 9),
                                                  row_cells(0, 3, y=6))]

        before = tr.step(groups(7), 7)
        closing = tr.observe_iframe(8, {}, fixed_match({frags[0]: 1, frags[1]: 2}))
        after = tr.step(groups(9), 9)
        seed = max(tr.entities)
        assert [(e.frame_index, e.kind, e.data) for e in before] == [
            (7, "seed", {"object_id": seed})]
        assert [(e.frame_index, e.kind, e.data) for e in closing] == [
            (8, "identity_assigned", {"occlusion_id": o.id,
                                      "assignment": {str(frags[0]): 1, str(frags[1]): 2},
                                      "distances": []}),
            (8, "occlusion_closed", {"occlusion_id": o.id})]
        assert [(e.frame_index, e.kind) for e in after] == [(9, "classified")]
        assert after[0].data["object_id"] == seed


    def test_one_call_resolves_every_split_in_id_order(self):
        # Occlusion 6 (members 1, 2) splits into fragments 8-10, occlusion 7
        # (members 3-5) into fragments 11 and 12. The matcher pairs one
        # fragment of each by hue; the rest pair by id order.
        tr = EntityTracker(PsmfConfig(psi=2))
        pairs = [row_cells(0, 4), row_cells(6, 10)]
        triple = [row_cells(6 * k, 6 * k + 4, y=6) for k in range(3)]
        for f in (1, 2):
            tr.step([group(c, f) for c in pairs + triple], f)
        hue = lambda k: HueHistogram(np.eye(HUE_BINS)[k], 1)
        assert tr.observe_iframe(3, {k: hue(k) for k in range(1, 6)}, None) == []
        tr.step([group(row_cells(0, 10), 4), group(row_cells(0, 16, y=6), 4)], 4)
        assert {i: list(o.members) for i, o in tr.occlusions.items()} == {
            6: [1, 2], 7: [3, 4, 5]}
        pieces = [row_cells(0, 2), row_cells(3, 5), row_cells(6, 10),
                  row_cells(0, 4, y=6), row_cells(6, 16, y=6)]
        for f in (5, 6):
            tr.step([group(c, f) for c in pieces], f)
        assert all(o.confirmed_split for o in tr.occlusions.values())

        calls = []

        def match(priors, posteriors):
            calls.append((priors, posteriors))
            fid, mid = [(9, 1), (12, 5)][len(calls) - 1]
            return {fid: mid}, [(0.5, fid, mid)]

        hues = {k: hue(k) for k in range(8, 13)}
        events = tr.observe_iframe(8, hues, match)
        assert [(e.kind, e.data) for e in events] == [
            ("identity_by_exclusion", {"fragment_id": 8, "object_id": 2}),
            ("identity_assigned", {"occlusion_id": 6, "assignment": {"8": 2, "9": 1},
                                   "distances": [{"fragment_id": 9, "object_id": 1,
                                                  "distance": 0.5}]}),
            ("new_object_from_fragment", {"object_id": 10, "occlusion_id": 6}),
            ("occlusion_closed", {"occlusion_id": 6}),
            ("identity_by_exclusion", {"fragment_id": 11, "object_id": 3}),
            ("identity_assigned", {"occlusion_id": 7, "assignment": {"11": 3, "12": 5},
                                   "distances": [{"fragment_id": 12, "object_id": 5,
                                                  "distance": 0.5}]}),
            ("member_missing", {"object_id": 4, "occlusion_id": 7}),
            ("occlusion_closed", {"occlusion_id": 7}),
        ]
        assert all(e.frame_index == 8 for e in events)
        assert calls == [({1: hue(1), 2: hue(2)}, {k: hues[k] for k in (8, 9, 10)}),
                         ({3: hue(3), 4: hue(4), 5: hue(5)}, {k: hues[k] for k in (11, 12)})]
        assert tr.occlusions == {} and sorted(tr.entities) == [1, 2, 3, 5, 10]
        assert [tr.entities[m].prior_hue for m in (1, 2, 3, 5)] == [
            hues[9], hues[8], hues[11], hues[12]]


def fixed_match(pairs):
    """A matcher that pairs ``pairs`` whatever the hues, and reports no distances."""
    return lambda priors, posteriors: (dict(pairs), [])


def disoccluded(members, fragments):
    """A tracker whose ``members`` real objects collided into one occlusion
    that split into ``fragments`` blobs, which confirmed as real (psi 2).
    Returns the tracker, the occlusion and the fragment ids."""
    tr = EntityTracker(PsmfConfig(psi=2))
    blobs = [row_cells(6 * k, 6 * k + 3) for k in range(max(members, fragments))]
    for f in (1, 2):
        tr.step([group(b, f) for b in blobs[:members]], f)
    tr.step([group(row_cells(0, 6 * len(blobs) - 3), 3)], 3)
    (o,) = tr.occlusions.values()
    events = []
    for f in (4, 5):
        events += tr.step([group(b, f) for b in blobs[:fragments]], f)
    (disocclusion,) = [e for e in events if e.kind == "disocclusion"]
    assert o.confirmed_split
    return tr, o, disocclusion.data["fragment_ids"]


# -- the tracker against the reference ------------------------------------------

# Every kind an EntityTracker emits: from ``step``, and from
# ``observe_iframe``, which the pipeline calls at I-frames.
TRACKER_KINDS = {
    "seed", "merged", "classified", "stale_retired", "reunion", "occlusion_begin",
    "occlusion_extend", "occlusion_merge", "prior_capture_failed", "region_split",
    "disocclusion", "occluded_single", "identity_by_exclusion", "identity_assigned",
    "new_object_from_fragment", "member_missing", "occlusion_closed",
}

SWEEP_SEEDS = 100

HUE = HueHistogram(np.full(HUE_BINS, 1.0 / HUE_BINS), 1)


def random_traffic(seed, rows=12, cols=24):
    """A random tracking problem: (config, gop, P-frame groups by frame, rng).

    3-6 rects move across a small macroblock grid, bouncing off its edges,
    so they cross and part again. Each may bring a companion one column
    behind it at its speed, so pairs touch and part as they drop out and
    noise bridges them: their occlusions split, reunite and merge. Each
    rect appears and vanishes at its own frame and drops out at random;
    noise cells, alone or in pairs, can bridge two rects. psi is 2-4 and
    stale_limit None, 0, 1 or 2. Frames that are a multiple of ``gop`` are
    I-frames and carry no groups; the rng is left for the driver's I-frame
    decisions.
    """
    rng = np.random.default_rng(seed)
    config = PsmfConfig(psi=int(rng.integers(2, 5)),
                        stale_limit=[None, 0, 1, 2][rng.integers(4)])
    gop = int(rng.choice([4, 8]))
    frames = int(rng.integers(24, 64))
    drop = rng.choice([0.0, 0.1, 0.3])
    noise = rng.choice([0.0, 0.5, 2.0])  # mean noise cells per frame
    convoy = rng.choice([0.3, 0.7])  # chance that a rect brings a companion
    objects = []
    for _ in range(rng.integers(3, 7)):
        w, h = int(rng.integers(2, 5)), int(rng.integers(1, 4))
        ob = {
            "pos": [int(rng.integers(0, cols - w + 1)), int(rng.integers(0, rows - h + 1))],
            "vel": [int(rng.choice([-1, 1])), int(rng.choice([-1, 0, 0, 1]))],
            "size": (w, h),
            "life": (int(rng.integers(0, frames // 3)),
                     int(rng.integers(frames // 2, frames + 8))),
        }
        objects.append(ob)
        x = ob["pos"][0] + w + 1
        if rng.random() < convoy and x + w <= cols:
            objects.append({**ob, "pos": [x, ob["pos"][1]], "vel": list(ob["vel"])})
    groups_by_frame = {}
    for f in range(1, frames):
        coded = {}
        for ob in objects:
            (w, h), (x, y) = ob["size"], ob["pos"]
            if ob["life"][0] <= f < ob["life"][1] and rng.random() >= drop:
                coded.update({(x + dx, y + dy): 1 for dx in range(w) for dy in range(h)})
            for axis, extent in ((0, cols - w), (1, rows - h)):
                step = ob["pos"][axis] + ob["vel"][axis]
                if not 0 <= step <= extent:
                    ob["vel"][axis] *= -1
                ob["pos"][axis] += ob["vel"][axis]
        for _ in range(rng.poisson(noise)):
            x, y = int(rng.integers(0, cols - 1)), int(rng.integers(0, rows))
            coded[(x, y)] = int(rng.integers(0, 2))
            if rng.random() < 0.5:
                coded[(x + 1, y)] = 1
        if f % gop:
            frame = make_pframe(coded, rows=rows, cols=cols, frame_index=f)
            groups_by_frame[f] = spatial_filter(cluster_blocks(frame))
    return config, gop, groups_by_frame, rng


def tracker_state(tr):
    """(entities, frozen members, occlusions) as comparable values. The
    reference keeps every frozen member in one map, the tracker in the
    occlusion it belongs to; the reference's regions are cell frozensets,
    the tracker's cell keys. An entity's key count must be its cell count,
    since the evidence divides by it; only an occlusion's keys may repeat."""
    old = isinstance(tr, reference_filtering.EntityTracker)
    region = (lambda r: r) if old else region_cells
    units = lambda d: {i: (e.label, region(e.region), len(e.region), e.fragment_of)
                       for i, e in d.items()}
    frozen = (tr.frozen if old else
              {i: m for o in tr.occlusions.values() for i, m in o.members.items()})
    return (units(tr.entities), units(frozen),
            {i: (region(o.region), o.member_object_ids, o.confirmed_split)
             for i, o in tr.occlusions.items()})


def run_against_reference(seed):
    """Drive the tracker and the reference through ``random_traffic(seed)``
    side by side, asserting equal events and state after every step and
    every emulated I-frame; return the events of each step and I-frame.

    At an I-frame real entities take a hue at random (the rest keep
    theirs, or none, so some later freeze finds no prior), and each split
    occlusion is resolved with its fragments matched to a random subset of
    its frozen members. The reference is given the same hues and resolves
    as ``reference_pipeline`` does: leftovers pair by id order, and each
    matched member takes its fragment's hue.
    """
    config, gop, groups_by_frame, rng = random_traffic(seed)
    new, ref = EntityTracker(config), reference_filtering.EntityTracker(config)
    steps = []
    for f in range(1, max(groups_by_frame) + 1):
        if f % gop:
            got, want = new.step(groups_by_frame[f], f), ref.step(groups_by_frame[f], f)
        else:
            hues = {eid: HUE for eid, e in sorted(new.entities.items())
                    if e.label is Label.REAL and rng.random() < 0.7}
            for eid in hues:
                ref.entities[eid].prior_hue = HUE
            matched = {}
            for oid, o in sorted(new.occlusions.items()):
                if o.confirmed_split:
                    members = list(o.members)
                    rng.shuffle(members)
                    frags = [fr.id for fr in new.fragments(oid)]
                    pairs = int(rng.integers(0, min(len(frags), len(members)) + 1))
                    matched[oid] = dict(zip(frags, members[:pairs]))
            queue = iter(matched.values())

            def match(priors, posteriors):
                pairs = next(queue)
                return dict(pairs), [(0.0, fid, mid) for fid, mid in sorted(pairs.items())]

            got, want = new.observe_iframe(f, hues, match), []
            for oid, pairs in matched.items():
                o, assignment = ref.occlusions[oid], dict(pairs)
                frags = sorted(fid for fid in o.fragment_ids
                               if fid in ref.entities and fid not in assignment)
                members = sorted(m for m in o.member_object_ids
                                 if m in ref.frozen and m not in assignment.values())
                for fid, mid in zip(frags, members):
                    assignment[fid] = mid
                    want.append(TrackEvent(f, "identity_by_exclusion",
                                           {"fragment_id": fid, "object_id": mid}))
                want.append(TrackEvent(f, "identity_assigned", {
                    "occlusion_id": oid,
                    "assignment": {str(fid): mid for fid, mid in sorted(assignment.items())},
                    "distances": [{"fragment_id": fid, "object_id": mid, "distance": 0.0}
                                  for fid, mid in sorted(pairs.items())]}))
                ref.resolve_identities(o, assignment, f, want)
                for fid, mid in assignment.items():
                    if fid in hues:
                        ref.entities[mid].prior_hue = hues[fid]
        # Compared as emitted: the reference's region_split payload is the
        # occlusion's own list, which later steps edit.
        assert [e.to_json_dict() for e in got] == [e.to_json_dict() for e in want], f
        assert tracker_state(new) == tracker_state(ref), f
        for oid, o in ref.occlusions.items():
            live = [fid for fid in o.fragment_ids if fid in ref.entities]
            assert [fr.id for fr in new.fragments(oid)] == live, (f, oid)
            # Only a confirmed split's list keeps ids of fragments frozen since.
            assert o.confirmed_split or live == o.fragment_ids, (f, oid)
        steps.append(got)
    return steps


class TestTrackerAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    # Two splits resolve at one I-frame, and the fragment the first one
    # resumes is still tagged as the second one's.
    @example(seed=3_228_923_873)
    def test_events_and_state_match_the_reference(self, seed):
        run_against_reference(seed)

    def test_fixed_seeds_reach_every_kind(self):
        steps = [s for seed in range(SWEEP_SEEDS) for s in run_against_reference(seed)]
        assert {e.kind for s in steps for e in s} == TRACKER_KINDS
        # An occlusion that reunites and is absorbed in the same step: its
        # other fragments must not be left pointing at it.
        assert any({e.data["occlusion_id"] for e in s if e.kind == "reunion"}
                   & {e.data["absorbed"] for e in s if e.kind == "occlusion_merge"}
                   for s in steps)
