"""Synthetic scene scripting, rendering, and feature-stream synthesis.

A scene script is a small JSON document describing a canvas, a
background, rigid rectangular objects moving along waypoint paths, and
an optional feature-noise model. ``synthesize`` renders every frame,
encodes I-frames with the intra codec and P-frames as macroblock
features (skip / coefficient-mask decisions against the previous frame),
and returns the serialized stream plus per-frame ground truth.

Script shape::

    {
      "width": 320, "height": 240, "fps": 30, "gop_len": 8,
      "frame_count": 240,
      "background": {"type": "flat", "color": [128, 128, 128]},
      "objects": [
        {"id": 1, "w": 48, "h": 96,
         "fill": {"type": "checker", "colors": [[200,30,30],[150,20,20]], "tile": 8},
         "path": [{"frame": 0, "cx": 40, "cy": 120},
                  {"frame": 239, "cx": 280, "cy": 120}]}
      ],
      "noise": {"p_isolated": 0.0, "p_cluster": 0.0, "rng_seed": 0}
    }

Background may also be {"type": "tiles", "colors": [c0, c1], "tile": 16}.
Waypoints may carry "h"/"w" to resize the object over time; position and
size interpolate linearly between waypoints. An object is visible from
its first through its last waypoint frame (a single-waypoint object is
static and stays to the end of the scene).

P-frame encoding: a macroblock is skip when all its pixels equal the
previous frame's; a coefficient-mask bit is set when some pixel of that
4x4 subblock differs by more than the deadzone (2 per channel). Motion
vectors are zero; motion shows up as coefficient activity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .intra import encode_iframe
from .stream import (
    MB,
    BackgroundChunk,
    FrameFeatures,
    MacroblockGrid,
    StreamHeader,
    FLAG_HAS_BACKGROUND,
    stream_to_bytes,
)

DEADZONE = 2
MIN_OBJECT_AREA_PX = 3 * MB * MB  # objects must span at least 3 macroblocks


@dataclass(frozen=True)
class GroundTruthRecord:
    frame_index: int
    object_id: int
    cx: float
    cy: float
    h: float
    w: float
    occluded: bool

    def to_json_dict(self) -> dict:
        return {
            "frame_index": self.frame_index,
            "object_id": self.object_id,
            "cx": self.cx,
            "cy": self.cy,
            "h": self.h,
            "w": self.w,
            "occluded": self.occluded,
        }


@dataclass
class Waypoint:
    frame: int
    cx: float
    cy: float
    h: float | None = None
    w: float | None = None


@dataclass
class SceneObject:
    id: int
    w: float
    h: float
    fill: dict
    path: list[Waypoint]

    def visible_range(self, frame_count: int) -> tuple[int, int]:
        first = self.path[0].frame
        last = self.path[-1].frame if len(self.path) > 1 else frame_count - 1
        return first, last

    def state_at(self, frame: int, frame_count: int) -> tuple[float, float, float, float] | None:
        """(cx, cy, h, w) at a frame, or None when not visible."""
        first, last = self.visible_range(frame_count)
        if not (first <= frame <= last):
            return None
        path = self.path
        if len(path) == 1:
            wp = path[0]
            return (wp.cx, wp.cy, wp.h if wp.h is not None else self.h,
                    wp.w if wp.w is not None else self.w)
        for a, b in zip(path, path[1:]):
            if a.frame <= frame <= b.frame:
                t = (frame - a.frame) / (b.frame - a.frame)
                ah = a.h if a.h is not None else self.h
                bh = b.h if b.h is not None else self.h
                aw = a.w if a.w is not None else self.w
                bw = b.w if b.w is not None else self.w
                return (
                    a.cx + t * (b.cx - a.cx),
                    a.cy + t * (b.cy - a.cy),
                    ah + t * (bh - ah),
                    aw + t * (bw - aw),
                )
        return None


@dataclass
class NoiseSpec:
    p_isolated: float = 0.0
    p_cluster: float = 0.0
    rng_seed: int = 0


@dataclass
class SceneScript:
    width: int
    height: int
    frame_count: int
    fps: int = 30
    gop_len: int = 8
    background: dict = field(default_factory=lambda: {"type": "flat", "color": [128, 128, 128]})
    objects: list[SceneObject] = field(default_factory=list)
    noise: NoiseSpec = field(default_factory=NoiseSpec)

    # -- (de)serialization --------------------------------------------------

    @classmethod
    def from_dict(cls, d: dict) -> "SceneScript":
        objects = []
        for od in d.get("objects", []):
            path = [Waypoint(frame=int(wp["frame"]), cx=float(wp["cx"]), cy=float(wp["cy"]),
                             h=float(wp["h"]) if "h" in wp else None,
                             w=float(wp["w"]) if "w" in wp else None)
                    for wp in od["path"]]
            objects.append(SceneObject(id=int(od["id"]), w=float(od["w"]), h=float(od["h"]),
                                       fill=od["fill"], path=path))
        nd = d.get("noise", {})
        noise = NoiseSpec(p_isolated=float(nd.get("p_isolated", 0.0)),
                          p_cluster=float(nd.get("p_cluster", 0.0)),
                          rng_seed=int(nd.get("rng_seed", 0)))
        script = cls(
            width=int(d["width"]), height=int(d["height"]),
            frame_count=int(d["frame_count"]),
            fps=int(d.get("fps", 30)), gop_len=int(d.get("gop_len", 8)),
            background=d.get("background", {"type": "flat", "color": [128, 128, 128]}),
            objects=objects, noise=noise,
        )
        script.validate()
        return script

    def to_dict(self) -> dict:
        return {
            "width": self.width, "height": self.height,
            "frame_count": self.frame_count, "fps": self.fps,
            "gop_len": self.gop_len, "background": self.background,
            "objects": [
                {
                    "id": o.id, "w": o.w, "h": o.h, "fill": o.fill,
                    "path": [
                        {k: v for k, v in
                         (("frame", wp.frame), ("cx", wp.cx), ("cy", wp.cy),
                          ("h", wp.h), ("w", wp.w)) if v is not None}
                        for wp in o.path
                    ],
                }
                for o in self.objects
            ],
            "noise": {"p_isolated": self.noise.p_isolated,
                      "p_cluster": self.noise.p_cluster,
                      "rng_seed": self.noise.rng_seed},
        }

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        if self.width <= 0 or self.width % MB or self.height <= 0 or self.height % MB:
            raise ValueError(f"canvas {self.width}x{self.height} must be positive multiples of {MB}")
        if not (2 <= self.gop_len <= 10):
            raise ValueError("gop_len must be in 2..10")
        if self.frame_count < 1:
            raise ValueError("frame_count must be positive")
        if not (0 < self.fps <= 255):
            raise ValueError("fps out of range")
        for p in (self.noise.p_isolated, self.noise.p_cluster):
            if not (0.0 <= p <= 1.0):
                raise ValueError("noise probabilities must be in [0, 1]")
        seen = set()
        for o in self.objects:
            if o.id in seen:
                raise ValueError(f"duplicate object id {o.id}")
            seen.add(o.id)
            if not o.path:
                raise ValueError(f"object {o.id} has an empty path")
            frames = [wp.frame for wp in o.path]
            if any(b <= a for a, b in zip(frames, frames[1:])):
                raise ValueError(f"object {o.id} waypoint frames must strictly increase")
            if frames[0] < 0 or frames[-1] >= self.frame_count:
                raise ValueError(f"object {o.id} waypoints outside the scene")
            for wp in o.path:
                h = wp.h if wp.h is not None else o.h
                w = wp.w if wp.w is not None else o.w
                if h * w < MIN_OBJECT_AREA_PX:
                    raise ValueError(
                        f"object {o.id} is {w:.0f}x{h:.0f} at frame {wp.frame}:"
                        f" smaller than {MIN_OBJECT_AREA_PX} px^2"
                    )
                x0, y0, x1, y1 = wp.cx - w / 2, wp.cy - h / 2, wp.cx + w / 2, wp.cy + h / 2
                if x0 < 0 or y0 < 0 or x1 > self.width or y1 > self.height:
                    raise ValueError(
                        f"object {o.id} leaves the canvas at frame {wp.frame}"
                    )

    # -- rendering -----------------------------------------------------------

    def render_background(self) -> np.ndarray:
        bg = self.background
        img = np.empty((self.height, self.width, 3), dtype=np.uint8)
        if bg["type"] == "flat":
            img[:] = np.asarray(bg["color"], dtype=np.uint8)
        elif bg["type"] == "tiles":
            t = int(bg.get("tile", MB))
            yy, xx = np.mgrid[0 : self.height, 0 : self.width]
            pattern = ((xx // t) + (yy // t)) % 2
            c = np.asarray(bg["colors"], dtype=np.uint8)
            img[:] = c[pattern]
        else:
            raise ValueError(f"unknown background type {bg['type']!r}")
        return img

    def render_frame(self, frame: int, background: np.ndarray | None = None) -> np.ndarray:
        img = (background if background is not None else self.render_background()).copy()
        for o in self.objects:  # list order is z-order; later objects on top
            state = o.state_at(frame, self.frame_count)
            if state is None:
                continue
            cx, cy, h, w = state
            x0 = int(round(cx - w / 2))
            y0 = int(round(cy - h / 2))
            wi = int(round(w))
            hi = int(round(h))
            x0 = max(0, min(x0, self.width - wi))
            y0 = max(0, min(y0, self.height - hi))
            _paint_fill(img, x0, y0, wi, hi, o.fill)
        return img


def _paint_fill(img: np.ndarray, x0: int, y0: int, w: int, h: int, fill: dict) -> None:
    if fill["type"] == "solid":
        img[y0 : y0 + h, x0 : x0 + w] = np.asarray(fill["color"], dtype=np.uint8)
    elif fill["type"] == "checker":
        t = int(fill.get("tile", 8))
        # Anchored to the object's own corner; broadcast, no index grids.
        pattern = (np.arange(h)[:, None] // t + np.arange(w) // t) % 2
        c = np.asarray(fill["colors"], dtype=np.uint8)
        img[y0 : y0 + h, x0 : x0 + w] = c[pattern]
    else:
        raise ValueError(f"unknown fill type {fill['type']!r}")


def load_scene_script(path) -> SceneScript:
    with open(path, "r", encoding="utf-8") as f:
        return SceneScript.from_dict(json.load(f))


def encode_p_frame(current: np.ndarray, previous: np.ndarray,
                   deadzone: int = DEADZONE) -> MacroblockGrid:
    """Macroblock features for one frame against its predecessor.

    Skip when every pixel of the macroblock is unchanged. For coded
    blocks, each of the 16 coefficient-mask bits (4x4 subblocks in
    raster order) is set when some pixel of that subblock moved by more
    than the deadzone in some channel. Sub-deadzone change therefore
    yields a coded macroblock with an empty mask.
    """
    if current.shape != previous.shape:
        raise ValueError("frame shapes differ")
    h, w = current.shape[:2]
    rows, cols = h // MB, w // MB

    # Per-pixel change, as the largest absolute difference over the channels.
    diff = np.maximum(current, previous) - np.minimum(current, previous)  # no wrap in uint8
    diff = np.maximum(np.maximum(diff[..., 0], diff[..., 1]), diff[..., 2])
    # Per 4x4 subblock: the maximum over strided slices, rows then columns.
    rows4 = np.maximum(np.maximum(diff[0::4], diff[1::4]), np.maximum(diff[2::4], diff[3::4]))
    sub_max = np.maximum(np.maximum(rows4[:, 0::4], rows4[:, 1::4]),
                         np.maximum(rows4[:, 2::4], rows4[:, 3::4]))
    sub_grid = sub_max.reshape(rows, 4, cols, 4).transpose(0, 2, 1, 3).reshape(rows, cols, 16)
    mb_changed = sub_grid.any(axis=2)

    sub_bits = sub_grid > deadzone
    weights = (1 << np.arange(16, dtype=np.uint32))
    mask = (sub_bits.astype(np.uint32) * weights).sum(axis=2).astype(np.uint16)

    return MacroblockGrid(
        skip=~mb_changed,
        coeff_mask=mask,
        mv_qpel=np.zeros((rows, cols, 2), dtype=np.int16),
    )


class _NoiseState:
    """Short-lived feature-noise marks injected into P-frame grids.

    Isolated marks are coded blocks with an empty mask (they die in the
    spatial filter); clustered marks are 2-3 block groups with a set
    mask bit, alive for 1-2 P-frames (they die in temporal filtering).
    """

    def __init__(self, spec: NoiseSpec, rows: int, cols: int):
        self.spec = spec
        self.rows = rows
        self.cols = cols
        self.rng = np.random.default_rng(spec.rng_seed)
        self.clusters: list[tuple[list[tuple[int, int]], int]] = []

    def apply(self, grid: MacroblockGrid) -> None:
        spec = self.spec
        if spec.p_isolated > 0.0:
            draw = self.rng.random((self.rows, self.cols))
            marks = (draw < spec.p_isolated) & grid.skip
            grid.skip[marks] = False  # empty mask: spatially implausible

        can_cluster = self.rows >= 2 and self.cols >= 2
        if spec.p_cluster > 0.0 and self.rng.random() < spec.p_cluster and can_cluster:
            my = int(self.rng.integers(0, self.rows - 1))
            mx = int(self.rng.integers(0, self.cols - 1))
            size = int(self.rng.integers(2, 4))
            cells = [(my, mx), (my, mx + 1), (my + 1, mx)][:size]
            life = int(self.rng.integers(1, 3))  # total P-frames it appears in
            self.clusters.append((cells, life))

        for cells, _ in self.clusters:
            for my, mx in cells:
                grid.skip[my, mx] = False
                grid.coeff_mask[my, mx] |= 0x0001
        self.clusters = [(cells, life - 1) for cells, life in self.clusters if life > 1]


def _occluded_flags(states: dict[int, tuple[float, float, float, float]]) -> dict[int, bool]:
    out = {oid: False for oid in states}
    ids = sorted(states)
    for i, a in enumerate(ids):
        cxa, cya, ha, wa = states[a]
        for b in ids[i + 1 :]:
            cxb, cyb, hb, wb = states[b]
            if abs(cxa - cxb) < (wa + wb) / 2 and abs(cya - cyb) < (ha + hb) / 2:
                out[a] = True
                out[b] = True
    return out


def synthesize(script: SceneScript) -> tuple[bytes, list[GroundTruthRecord]]:
    """Render and encode a scene. Returns (stream bytes, ground truth).

    Deterministic: the same script (same noise seed) yields
    byte-identical streams.
    """
    script.validate()
    header = StreamHeader(
        width_px=script.width, height_px=script.height, fps=script.fps,
        gop_len=script.gop_len, frame_count=script.frame_count,
        flags=FLAG_HAS_BACKGROUND,
    )
    background = script.render_background()
    noise = _NoiseState(script.noise, header.mb_rows, header.mb_cols)

    frames: list[FrameFeatures] = []
    truth: list[GroundTruthRecord] = []
    prev = None
    for idx in range(script.frame_count):
        img = script.render_frame(idx, background)
        if idx % script.gop_len == 0:
            frames.append(FrameFeatures(idx, "I", intra_payload=encode_iframe(img)))
        else:
            grid = encode_p_frame(img, prev)
            noise.apply(grid)
            frames.append(FrameFeatures(idx, "P", mb_grid=grid))
        prev = img

        states = {}
        for o in script.objects:
            st = o.state_at(idx, script.frame_count)
            if st is not None:
                states[o.id] = st
        occ = _occluded_flags(states)
        for oid in sorted(states):
            cx, cy, h, w = states[oid]
            truth.append(GroundTruthRecord(idx, oid, cx, cy, h, w, occ[oid]))

    data = stream_to_bytes(header, BackgroundChunk(rgb=background), frames)
    return data, truth


def write_ground_truth(records: list[GroundTruthRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(r.to_json_dict(), sort_keys=True) + "\n")


def load_ground_truth(path) -> list[GroundTruthRecord]:
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            line = line.strip()
            if not line:
                continue
            d = json.loads(line)
            out.append(GroundTruthRecord(
                frame_index=int(d["frame_index"]), object_id=int(d["object_id"]),
                cx=float(d["cx"]), cy=float(d["cy"]),
                h=float(d["h"]), w=float(d["w"]),
                occluded=bool(d.get("occluded", False)),
            ))
    return out
