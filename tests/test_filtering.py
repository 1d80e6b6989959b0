"""Macroblock filtering: clustering, spatial filter, temporal evidence, tracking."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage

from mbtrack.filtering import (
    BlockGroup,
    Entity,
    EntityTracker,
    Label,
    PsmfConfig,
    TrainRecord,
    classify_entity,
    cluster_blocks,
    compute_succeeding_region,
    default_omega,
    occurrence_term,
    spatial_filter,
)
from mbtrack.stream import FrameFeatures, MacroblockGrid

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
        with pytest.raises(ValueError):
            BlockGroup(0, frozenset({(0, 0), (5, 5)}), has_nonzero_coeff=True)
        with pytest.raises(ValueError):
            BlockGroup(0, frozenset(), has_nonzero_coeff=False)


def reference_cluster(frame):
    """The label-by-label loop ``cluster_blocks`` replaced: two scans of the
    label image per group, and a validated (BFS-checked) BlockGroup."""
    grid = frame.mb_grid
    labels, count = ndimage.label(~grid.skip, structure=np.ones((3, 3), dtype=int))
    groups = []
    for k in range(1, count + 1):
        cells = np.argwhere(labels == k)
        members = frozenset((int(mx), int(my)) for my, mx in cells)
        has_coeff = bool(np.any(grid.coeff_mask[labels == k]))
        groups.append(BlockGroup(frame.frame_index, members, has_coeff))
    return groups


class TestClusteringAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, 24), st.integers(1, 24), st.integers(0, 2**32 - 1),
           st.sampled_from([0.05, 0.3, 0.6, 0.95]), st.sampled_from([0.0, 0.2, 1.0]))
    def test_groups_match_the_label_loop(self, rows, cols, seed, p_coded, p_coeff):
        rng = np.random.default_rng(seed)
        grid = MacroblockGrid.all_skip(rows, cols)
        grid.skip[:] = rng.random((rows, cols)) >= p_coded
        grid.coeff_mask[:] = np.where(~grid.skip & (rng.random((rows, cols)) < p_coeff),
                                      rng.integers(1, 0x10000, (rows, cols)), 0)
        frame = FrameFeatures(7, "P", mb_grid=grid)
        got, want = cluster_blocks(frame), reference_cluster(frame)
        assert got == want
        # same set iteration order, so nothing downstream can tell them apart
        assert [list(g.members) for g in got] == [list(g.members) for g in want]
        assert all(not g.virtual for g in got)


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


def entity_with_train(regions):
    """Entity whose train is a list of (group_cells_or_None, region_cells)."""
    train = [TrainRecord(frozenset(g) if g else frozenset(), frozenset(r), virtual=not g)
             for g, r in regions]
    return Entity(id=1, seed_frame=1, region=train[-1].region, train=train)


class TestOccurrenceEvidence:
    def test_seed_frame_contributes_nothing(self):
        e = entity_with_train([(row_cells(0, 4), row_cells(0, 4))])
        assert occurrence_term(e, 1) == 0.0

    def test_half_overlap_costs_ln_two(self):
        prev = row_cells(0, 8)
        nxt = row_cells(4, 12)
        e = entity_with_train([(prev, prev), (nxt, nxt)])
        assert occurrence_term(e, 2) == LN2

    def test_three_quarter_overlap(self):
        prev = row_cells(0, 4)
        nxt = row_cells(1, 5)
        e = entity_with_train([(prev, prev), (nxt, nxt)])
        assert occurrence_term(e, 2) == pytest.approx(0.2876820724517809, abs=1e-15)

    def test_unsupported_frame_uses_detection_rate(self):
        r = row_cells(0, 4)
        e = entity_with_train([(r, r), (r, r), (None, r)])
        # two supported frames out of three observed
        assert occurrence_term(e, 3) == pytest.approx(-math.log(2 / 3), abs=1e-15)

    def test_ordinal_bounds_checked(self):
        e = entity_with_train([(row_cells(0, 2), row_cells(0, 2))])
        with pytest.raises(ValueError):
            occurrence_term(e, 2)


class TestClassification:
    def test_default_threshold_is_psi_ln_two(self):
        assert default_omega(8) == 8 * LN2
        assert PsmfConfig(psi=4).omega == 4 * LN2

    def test_threshold_is_strict(self):
        cfg = PsmfConfig(psi=8)
        e = Entity(id=1, seed_frame=0, region=frozenset({(0, 0)}))
        e.neglog_sum = cfg.omega
        assert classify_entity(e, cfg) is Label.BACKGROUND
        e.neglog_sum = np.nextafter(cfg.omega, 0.0)
        assert classify_entity(e, cfg) is Label.REAL

    def test_config_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            PsmfConfig(psi=0)
        with pytest.raises(ValueError):
            PsmfConfig(omega=0.0)


class TestSucceedingRegion:
    def test_union_of_overlapping_groups_only(self):
        e = Entity(id=1, seed_frame=0, region=frozenset(row_cells(0, 4)))
        touching = group(row_cells(3, 6))
        separate = group(row_cells(10, 12))
        adjacent = group(row_cells(0, 4, y=1))  # next row: touches, no shared cell
        got = compute_succeeding_region(e, [touching, separate, adjacent])
        assert got == frozenset(row_cells(3, 6))

    def test_no_overlap_gives_empty_region(self):
        e = Entity(id=1, seed_frame=0, region=frozenset(row_cells(0, 2)))
        assert compute_succeeding_region(e, [group(row_cells(5, 8))]) == frozenset()


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
        assert e.region == frozenset(cells)
        assert e.train[-1].virtual
        assert e.virtual_streak == 1

    def test_region_propagates_through_union(self):
        tr = EntityTracker(PsmfConfig(psi=8))
        tr.step([group(row_cells(0, 4), 1)], 1)
        far = group(row_cells(0, 2, y=6), 2)
        near_a = group(row_cells(0, 2), 2)
        near_b = group(row_cells(3, 5), 2)
        tr.step([near_a, near_b, far], 2)
        assert tr.entities[1].region == frozenset(row_cells(0, 2) | row_cells(3, 5))
        assert len(tr.entities) == 2  # the far group seeded its own candidate

    def test_candidate_collision_merges_into_oldest(self):
        tr = EntityTracker(PsmfConfig(psi=8))
        tr.step([group(row_cells(0, 2), 1), group(row_cells(6, 8), 1)], 1)
        assert sorted(tr.entities) == [1, 2]
        events = tr.step([group(row_cells(0, 8), 2)], 2)
        kinds = [e.kind for e in events]
        assert "merged" in kinds and "seed" not in kinds
        assert sorted(tr.entities) == [1]
        assert tr.entities[1].region == frozenset(row_cells(0, 8))

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
        for fid in frag_ids:
            assert tr.entities[fid].pending_identity
