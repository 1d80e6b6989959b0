"""Metamorphic invariants: properties any correct version of the tracker
keeps, whatever its outputs are today. Each holds on noise-free scenes,
in GOP, live and full-decode mode.

Translation by whole macroblocks: shifting every object of a scene by a
multiple of 16 px, on a canvas grown by the same amount, moves every
record by that offset and leaves the events' kinds and order as they
were.

Mirroring: reflecting every object's path across the canvas's middle, in
x or in y, reflects every record and leaves the events' kinds and order
as they were. Which track gets which id may change with the order the
tracks are found in, so the records agree up to one bijection of ids.

Interpolation divides the moved coordinates, so records agree up to
float rounding, not bit for bit.
"""

import functools
from collections import defaultdict
from dataclasses import replace

import pytest

from mbtrack.pipeline import TrackerConfig, run_tracker
from mbtrack.scene import NoiseSpec, synthesize

from scenes import (
    criterion_4_script, lanes_script, mirrored, pair_script, single_object_scene, translated)

SCENES = {
    "pair": lambda: pair_script(0),
    "clean-lanes": lambda: replace(lanes_script(0), noise=NoiseSpec(rng_seed=0)),
    "single-object": single_object_scene,
    "criterion-4": criterion_4_script,
}
MODES = {
    "gop": TrackerConfig(),
    "live": TrackerConfig(live=True),
    "full-decode": TrackerConfig(full_decode=True),
}


@functools.lru_cache(maxsize=None)
def tracked(scene, dx=0, dy=0, mirror=None):
    """The result of each mode on ``scene``, translated by (dx, dy) and
    then mirrored in ``mirror``, "x" or "y", when given."""
    script = translated(SCENES[scene](), dx, dy)
    data, _ = synthesize(mirrored(script, mirror) if mirror else script)
    return {mode: run_tracker(data, config) for mode, config in MODES.items()}


def labels_and_boxes(records, with_ids=True):
    """Each record's (frame, id, state, refined), the id left out unless
    ``with_ids``, and all boxes' coordinates."""
    return ([(r.frame_index, r.object_id if with_ids else None, r.state, r.refined)
             for r in records], [v for r in records for v in (r.cx, r.cy, r.h, r.w)])


@pytest.mark.parametrize("dx, dy", [(16, 0), (0, 16), (32, 48)])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scene", SCENES)
def test_whole_macroblock_shift_moves_every_record(scene, mode, dx, dy):
    base, moved = tracked(scene)[mode], tracked(scene, dx, dy)[mode]
    assert base.records
    want_labels, want_boxes = labels_and_boxes(
        [replace(r, cx=r.cx + dx, cy=r.cy + dy) for r in base.records])
    labels, boxes = labels_and_boxes(moved.records)
    assert labels == want_labels
    assert boxes == pytest.approx(want_boxes, abs=1e-9)
    assert [e.kind for e in moved.events] == [e.kind for e in base.events]


def by_id(records):
    tracks = defaultdict(list)
    for r in records:
        tracks[r.object_id].append(r)
    return tracks


def agree(track, other):
    """Whether two tracks' records agree, ids aside, up to float rounding."""
    labels, boxes = labels_and_boxes(track, with_ids=False)
    other_labels, other_boxes = labels_and_boxes(other, with_ids=False)
    return labels == other_labels and boxes == pytest.approx(other_boxes, abs=1e-9)


@pytest.mark.parametrize("axis", ["x", "y"])
@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("scene", SCENES)
def test_mirroring_mirrors_every_record(scene, mode, axis):
    base, moved = tracked(scene)[mode], tracked(scene, mirror=axis)[mode]
    script = SCENES[scene]()
    assert base.records
    want = by_id(replace(r, cx=script.width - r.cx) if axis == "x"
                 else replace(r, cy=script.height - r.cy) for r in base.records)
    got = by_id(moved.records)
    # Each id of ``want`` and the ids of ``got`` whose records agree with its.
    ids = {a: [b for b, other in got.items() if agree(track, other)]
           for a, track in want.items()}
    assert all(len(match) == 1 for match in ids.values()), ids
    assert sorted(match[0] for match in ids.values()) == sorted(got)
    assert [e.kind for e in moved.events] == [e.kind for e in base.events]
