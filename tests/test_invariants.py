"""Metamorphic invariants: properties any correct version of the tracker
keeps, whatever its outputs are today.

Translation by whole macroblocks: shifting every object of a noise-free
scene by a multiple of 16 px, on a canvas grown by the same amount, moves
every record by that offset and leaves the events' kinds and order as
they were. Interpolation divides the shifted coordinates, so the records
agree up to float rounding, not bit for bit.
"""

import functools
from dataclasses import replace

import pytest

from mbtrack.pipeline import TrackerConfig, run_tracker
from mbtrack.scene import NoiseSpec, Waypoint, synthesize

from scenes import lanes_script, pair_script

SCENES = {
    "pair": lambda: pair_script(0),
    "clean-lanes": lambda: replace(lanes_script(0), noise=NoiseSpec(rng_seed=0)),
}


def shifted(script, dx, dy):
    """``script`` with every object moved by (dx, dy) px on a canvas grown
    by as much."""
    objects = [replace(o, path=[replace(p, cx=p.cx + dx, cy=p.cy + dy) for p in o.path])
               for o in script.objects]
    return replace(script, width=script.width + dx, height=script.height + dy,
                   objects=objects)


@functools.lru_cache(maxsize=None)
def tracked(scene, live, dx=0, dy=0):
    data, _ = synthesize(shifted(SCENES[scene](), dx, dy))
    return run_tracker(data, TrackerConfig(live=live))


def labels_and_boxes(records):
    """Each record's (frame, id, state, refined), and all boxes' coordinates."""
    return ([(r.frame_index, r.object_id, r.state, r.refined) for r in records],
            [v for r in records for v in (r.cx, r.cy, r.h, r.w)])


@pytest.mark.parametrize("dx, dy", [(16, 0), (0, 16), (32, 48)])
@pytest.mark.parametrize("live", [False, True], ids=["gop", "live"])
@pytest.mark.parametrize("scene", SCENES)
def test_whole_macroblock_shift_moves_every_record(scene, live, dx, dy):
    base, moved = tracked(scene, live), tracked(scene, live, dx, dy)
    assert base.records
    want_labels, want_boxes = labels_and_boxes(
        [replace(r, cx=r.cx + dx, cy=r.cy + dy) for r in base.records])
    labels, boxes = labels_and_boxes(moved.records)
    assert labels == want_labels
    assert boxes == pytest.approx(want_boxes, abs=1e-9)
    assert [e.kind for e in moved.events] == [e.kind for e in base.events]
