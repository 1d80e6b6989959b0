"""Every scene the tests and the digest matrix (``scripts/output_digests.py``)
measure, each a function of its parameters that returns a ``SceneScript``. The
benchmark's scenes and palette come from ``bench/workloads.py`` and the acceptance
suite's from ``tests/test_acceptance.py``, where they stay defined."""

import random
import sys
from dataclasses import replace
from pathlib import Path

from mbtrack.scene import NoiseSpec, SceneObject, SceneScript, Waypoint, synthesize
from mbtrack.stream import FLAG_HAS_BACKGROUND, read_stream, stream_to_bytes

sys.path.append(str(Path(__file__).resolve().parent.parent / "bench"))
from test_acceptance import crossing_script, noise_script  # noqa: E402,F401
from workloads import (  # noqa: E402,F401
    BLUE, GRAY_BG, LANE_NOISE, NOISE_SEED, RED, _checker as checker, lanes_script, pair_script)


def single_object_scene(frame_count=80, speed_px=2.0):
    """One 48x48 red checker moving right along y = 80 of a 320x160 frame."""
    travel = speed_px * (frame_count - 1)
    obj = SceneObject(id=1, w=48, h=48, fill=RED,
                      path=[Waypoint(0, 40, 80), Waypoint(frame_count - 1, 40 + travel, 80)])
    return SceneScript(width=320, height=160, frame_count=frame_count,
                       gop_len=8, objects=[obj])


def crossing_scene():
    """Two 40x80 checkers that cross mid-frame, with light feature noise."""
    a = SceneObject(id=1, w=40, h=80, fill=RED,
                    path=[Waypoint(0, 60, 120), Waypoint(159, 258, 120)])
    b = SceneObject(id=2, w=40, h=80, fill=BLUE,
                    path=[Waypoint(0, 258, 120), Waypoint(159, 60, 120)])
    return SceneScript(width=320, height=240, frame_count=160, gop_len=8, objects=[a, b],
                       noise=NoiseSpec(p_isolated=0.02, p_cluster=0.005, rng_seed=201))


def random_crossing_script(between, choose):
    """2-4 objects crossing a 240x128 canvas in both directions, each
    appearing and vanishing at its own frame, over feature noise.

    ``between(a, b)`` draws an integer in [a, b] and ``choose(options)``
    one of the options, so a hypothesis draw and a seeded generator give
    scenes of one shape."""
    n = between(2, 4)
    frames = between(48, 96)
    objs = []
    for k in range(n):
        w, h = choose([32, 40, 48]), choose([32, 40, 48])
        y = between(32, 96)
        x0, x1 = (32, 208) if k % 2 == 0 else (208, 32)
        first, last = between(0, 12), between(frames * 2 // 3, frames - 1)
        objs.append(SceneObject(id=k + 1, w=w, h=h, fill=checker(k / n),
                                path=[Waypoint(first, x0, y), Waypoint(last, x1, y)]))
    noise = NoiseSpec(p_isolated=choose([0.01, 0.02, 0.05]),
                      p_cluster=choose([0.005, 0.05, 0.3]),
                      rng_seed=between(0, 2**16))
    return SceneScript(width=240, height=128, frame_count=frames, gop_len=8,
                       objects=objs, noise=noise)


def seeded_crossing_scene(seed):
    rng = random.Random(seed)
    return random_crossing_script(rng.randint, rng.choice)


def criterion_4_script() -> SceneScript:
    """The scene ``test_criterion_4_single_object_scene`` builds in its body."""
    obj = SceneObject(id=1, w=48, h=96, fill=RED, path=[
        Waypoint(0, 40, 120), Waypoint(100, 240, 120),
        Waypoint(200, 40, 120), Waypoint(239, 118, 120),
    ])
    return SceneScript(width=320, height=240, frame_count=240, gop_len=8,
                       background=GRAY_BG, objects=[obj])


def scale_script() -> SceneScript:
    """1280x720, GOP 8: 48 checkers of 32 px in an 8x6 grid, each moving
    160 px right over 120 frames, with the lanes noise of seed 101."""
    objs = []
    for k in range(48):
        cx, cy = 32 + 144 * (k % 8), 48 + 120 * (k // 8)
        objs.append(SceneObject(id=k + 1, w=32, h=32, fill=checker(k / 48), path=[
            Waypoint(0, cx, cy), Waypoint(119, cx + 160, cy)]))
    return SceneScript(width=1280, height=720, frame_count=120, gop_len=8,
                       background=GRAY_BG, objects=objs,
                       noise=NoiseSpec(rng_seed=NOISE_SEED, **LANE_NOISE))


def edges_script() -> SceneScript:
    """320x240, GOP 8, 160 frames, lanes noise of seed 101: objects that
    grow in from the left and top edges, cross the frame and shrink out
    through the right and bottom edges, and one that runs from the
    top-left corner to the bottom-right one."""
    last = 159
    across = SceneObject(id=1, w=48, h=48, fill=checker(0.0), path=[
        Waypoint(0, 8, 60, w=16), Waypoint(16, 24, 60), Waypoint(last - 16, 296, 60),
        Waypoint(last, 312, 60, w=16)])
    down = SceneObject(id=2, w=48, h=48, fill=checker(0.6), path=[
        Waypoint(8, 100, 8, h=16), Waypoint(24, 100, 24), Waypoint(140, 100, 216),
        Waypoint(156, 100, 232, h=16)])
    corner = SceneObject(id=3, w=64, h=48, fill=checker(0.3), path=[
        Waypoint(20, 32, 24), Waypoint(150, 288, 216)])
    return SceneScript(width=320, height=240, frame_count=last + 1, gop_len=8,
                       background=GRAY_BG, objects=[across, down, corner],
                       noise=NoiseSpec(rng_seed=NOISE_SEED, **LANE_NOISE))


def translated(script, dx, dy):
    """``script`` with every object moved by (dx, dy) px on a canvas grown
    by as much."""
    return replace(script, width=script.width + dx, height=script.height + dy, objects=[
        replace(o, path=[replace(p, cx=p.cx + dx, cy=p.cy + dy) for p in o.path])
        for o in script.objects])


def mirrored(script, axis):
    """``script`` with every object mirrored across the canvas's middle:
    cx -> width - cx for ``axis`` "x", cy -> height - cy for "y"."""
    def flip(p):
        if axis == "x":
            return replace(p, cx=script.width - p.cx)
        return replace(p, cy=script.height - p.cy)

    return replace(script, objects=[replace(o, path=[flip(p) for p in o.path])
                                    for o in script.objects])


def without_background(script):
    """``synthesize(script)``, with the stream written without its background
    chunk and its header's background flag cleared."""
    data, truth = synthesize(script)
    header, _, frames = read_stream(data)
    bare = replace(header, flags=header.flags & ~FLAG_HAS_BACKGROUND)
    return stream_to_bytes(bare, None, frames), truth
