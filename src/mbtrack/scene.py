"""Synthetic scene scripting, rendering, and feature-stream synthesis.

A scene script is a small JSON document describing a canvas, a
background, rigid rectangular objects moving along waypoint paths, and
an optional feature-noise model. ``synthesize_to`` renders every frame,
encodes I-frames with the intra codec and P-frames as macroblock
features (skip / coefficient-mask decisions against the previous frame),
writes each frame to a binary sink as soon as it is encoded, and returns
per-frame ground truth. ``synthesize`` collects the same stream into
bytes.

Synthesis work scales with what changes in a frame, as an encoder's
does: a frame is painted by restoring the background under the objects
of the frame before last and painting the objects from cached patches,
and a P-frame's coefficient masks are computed only for the macroblocks
whose bytes changed. Written to a file, the stream costs a few frames of
memory, however long the scene.

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
A fill may also be {"type": "solid", "color": c}.
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

import io
import json
import math
from dataclasses import asdict, dataclass, field
from typing import BinaryIO, Iterator

import numpy as np

from .intra import encode_iframe
from .stream import (
    MB,
    BackgroundChunk,
    FrameFeatures,
    MacroblockGrid,
    StreamFormatError,
    StreamHeader,
    FLAG_HAS_BACKGROUND,
    write_stream,
)

DEADZONE = 2
FILL_TYPES = ("solid", "checker")
BACKGROUND_TYPES = ("flat", "tiles")
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
        return asdict(self)


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


def _need(d, key: str, where: str, kind=None, default=None):
    """``d[key]``, converted by ``kind`` when given (``list`` only checks
    the type), or ``default`` when the key is absent and a default is
    given. A missing key, or a value ``kind`` rejects, is a ValueError that
    names the field and ``where`` it is; so is a number that is not finite,
    such as the NaN and infinities that ``json.load`` reads."""
    if not isinstance(d, dict) or key not in d and default is None:
        raise ValueError(f"{where} has no {key!r}")
    value = d.get(key, default)
    if kind is list and not isinstance(value, list):
        raise ValueError(f"{where} has a non-list {key!r}: {value!r}")
    if kind in (None, list):
        return value
    try:
        if math.isfinite(float(value)):
            return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{where} has a non-numeric {key!r}: {value!r}") from None
    raise ValueError(f"{where} has a non-finite {key!r}: {value!r}")


def _is_rgb(c) -> bool:
    return (isinstance(c, (list, tuple)) and len(c) == 3
            and all(isinstance(v, (int, float)) and 0 <= v <= 255 for v in c))


def _check_paint(paint, where: str, kind: str, types: tuple) -> None:
    """Reject a background or fill the renderer cannot paint. It needs a
    known type; one RGB ``color`` (flat, solid) or two ``colors`` (tiles,
    checker), each channel in 0..255; and a pattern ``tile`` of at least
    one pixel."""
    if not isinstance(paint, dict):
        raise ValueError(f"{where} has a non-object {kind!r}: {paint!r}")
    if paint.get("type") not in types:
        raise ValueError(f"{where} has unknown {kind} type {paint.get('type')!r}")
    pattern = paint["type"] in ("tiles", "checker")
    key = "colors" if pattern else "color"
    if key not in paint:
        raise ValueError(f"{where} has no {kind} {key!r}")
    colors = paint[key] if pattern else [paint[key]]
    if not (isinstance(colors, (list, tuple)) and len(colors) == 1 + pattern
            and all(map(_is_rgb, colors))):
        raise ValueError(f"{where} has a bad {kind} {key!r}: {paint[key]!r} (want "
                         f"{'two RGB colours' if pattern else 'an RGB colour'} in 0..255)")
    tile = paint.get("tile", 1)
    if pattern and not (isinstance(tile, (int, float)) and 1 <= tile < float("inf")):
        raise ValueError(f"{where} has a bad {kind} 'tile': {tile!r} (want at least 1 px)")


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
        size = {k: _need(d, k, "scene script", int) for k in ("width", "height", "frame_count")}
        objects = []
        for n, od in enumerate(_need(d, "objects", "scene script", list, [])):
            oid = _need(od, "id", f"object #{n}", int)
            where = f"object {oid}"
            path = []
            for k, wp in enumerate(_need(od, "path", where, list)):
                at = f"{where} waypoint {k}"
                path.append(Waypoint(frame=_need(wp, "frame", at, int),
                                     cx=_need(wp, "cx", at, float), cy=_need(wp, "cy", at, float),
                                     h=_need(wp, "h", at, float) if "h" in wp else None,
                                     w=_need(wp, "w", at, float) if "w" in wp else None))
            objects.append(SceneObject(id=oid, w=_need(od, "w", where, float),
                                       h=_need(od, "h", where, float),
                                       fill=_need(od, "fill", where), path=path))
        nd = d.get("noise", {})
        noise = NoiseSpec(p_isolated=_need(nd, "p_isolated", "noise", float, 0.0),
                          p_cluster=_need(nd, "p_cluster", "noise", float, 0.0),
                          rng_seed=_need(nd, "rng_seed", "noise", int, 0))
        script = cls(
            **size, fps=_need(d, "fps", "scene script", int, 30),
            gop_len=_need(d, "gop_len", "scene script", int, 8),
            background=d.get("background", {"type": "flat", "color": [128, 128, 128]}),
            objects=objects, noise=noise,
        )
        script.validate()
        return script

    def to_dict(self) -> dict:
        """The script as ``from_dict`` reads it: its dataclasses' fields,
        less the waypoint sizes left to the object."""
        return asdict(self, dict_factory=lambda kv: {k: v for k, v in kv if v is not None})

    def header(self) -> StreamHeader:
        """The header of the stream ``synthesize_to`` writes for this script."""
        return StreamHeader(width_px=self.width, height_px=self.height, fps=self.fps,
                            gop_len=self.gop_len, frame_count=self.frame_count,
                            flags=FLAG_HAS_BACKGROUND)

    # -- validation ----------------------------------------------------------

    def validate(self) -> None:
        """Raise ``ValueError`` for a script that cannot be rendered. The
        canvas size, fps, ``gop_len`` and ``frame_count`` rules are the
        stream header's (``StreamHeader.validate``)."""
        try:
            self.header().validate()
        except StreamFormatError as exc:
            raise ValueError(str(exc)) from None
        _check_paint(self.background, "scene script", "background", BACKGROUND_TYPES)
        for p in (self.noise.p_isolated, self.noise.p_cluster):
            if not (0.0 <= p <= 1.0):
                raise ValueError("noise probabilities must be in [0, 1]")
        if self.noise.rng_seed < 0:
            raise ValueError(f"noise rng_seed {self.noise.rng_seed} must be at least 0")
        seen = set()
        for o in self.objects:
            if o.id in seen:
                raise ValueError(f"duplicate object id {o.id}")
            seen.add(o.id)
            _check_paint(o.fill, f"object {o.id}", "fill", FILL_TYPES)
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
        self._paint_objects(img, frame, {})
        return img

    def _paint_objects(self, img: np.ndarray, frame: int,
                       patches: dict) -> list[tuple[slice, slice]]:
        """Paint the objects visible at ``frame`` onto ``img``, in z-order.

        Each object is copied from its fill patch, which ``patches`` keeps
        per object for the object's current size, so a fill is built once
        per object and size, not once per frame. Returns the regions
        painted.
        """
        painted = []
        for k, o in enumerate(self.objects):  # list order is z-order; later objects on top
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
            size, patch = patches.get(k, (None, None))
            if size != (hi, wi):
                patch = _fill_patch(o.fill, hi, wi)
                patches[k] = ((hi, wi), patch)
            region = (slice(y0, y0 + hi), slice(x0, x0 + wi))
            img[region] = patch
            painted.append(region)
        return painted


def _fill_patch(fill: dict, h: int, w: int) -> np.ndarray:
    """An (h, w, 3) uint8 image of a fill, anchored to the object's own corner."""
    if fill["type"] == "solid":
        return np.broadcast_to(np.asarray(fill["color"], dtype=np.uint8), (h, w, 3))
    if fill["type"] == "checker":
        t = int(fill.get("tile", 8))
        pattern = (np.arange(h)[:, None] // t + np.arange(w) // t) % 2
        return np.asarray(fill["colors"], dtype=np.uint8)[pattern]
    raise ValueError(f"unknown fill type {fill['type']!r}")


def load_scene_script(path) -> SceneScript:
    with open(path, "r", encoding="utf-8") as f:
        return SceneScript.from_dict(json.load(f))


def encode_p_frame(current: np.ndarray, previous: np.ndarray) -> MacroblockGrid:
    """Macroblock features for one frame against its predecessor.

    Skip when every pixel of the macroblock is unchanged. For coded
    blocks, each of the 16 coefficient-mask bits (4x4 subblocks in
    raster order) is set when some pixel of that subblock moved by more
    than the deadzone in some channel. Sub-deadzone change therefore
    yields a coded macroblock with an empty mask.

    The frames are compared 8 bytes at a time, as uint64 words: one
    macroblock row of 16 RGB pixels is 6 words. Only the macroblocks
    that changed are then gathered and their subblock differences
    computed, so the cost beyond the comparison scales with the changed
    area.
    """
    if current.shape != previous.shape:
        raise ValueError("frame shapes differ")
    if current.dtype != np.uint8 or previous.dtype != np.uint8:
        raise ValueError("frames must be uint8")
    h, w = current.shape[:2]
    rows, cols = h // MB, w // MB
    current = np.ascontiguousarray(current)
    previous = np.ascontiguousarray(previous)

    # One macroblock row of 16 RGB pixels is 48 bytes: 6 uint64 words.
    ne = (current.reshape(h, w * 3).view(np.uint64)
          != previous.reshape(h, w * 3).view(np.uint64))
    # Reduce over each macroblock's 16 rows, then over its 6 words, read
    # as 3 uint16: numpy reduces short strided axes far slower than this.
    words = ne.reshape(rows, MB, cols * 6).any(axis=1).view(np.uint16).reshape(rows, cols, 3)
    changed = (words[..., 0] | words[..., 1] | words[..., 2]) != 0

    mask = np.zeros((rows, cols), dtype=np.uint16)
    my, mx = np.nonzero(changed)
    if my.size:
        # (k, 4, 4, 48): the changed macroblocks' subblock rows, pixel rows, bytes.
        cur = current.reshape(rows, 4, 4, cols, MB * 3)[my, :, :, mx]
        prev = previous.reshape(rows, 4, 4, cols, MB * 3)[my, :, :, mx]
        diff = np.maximum(cur, prev) - np.minimum(cur, prev)  # no wrap in uint8
        diff = np.maximum(np.maximum(diff[:, :, 0], diff[:, :, 1]),
                          np.maximum(diff[:, :, 2], diff[:, :, 3]))
        # A subblock's 4 pixels are 12 bytes of a row: 3 uint32 words of bools.
        moved = (diff > DEADZONE).view(np.uint32).reshape(-1, 16, 3)
        sub = (moved[..., 0] | moved[..., 1] | moved[..., 2]) != 0  # (k, 16), raster order
        mask[my, mx] = np.packbits(sub, axis=1, bitorder="little").view("<u2")[:, 0]

    return MacroblockGrid(
        skip=~changed,
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


def _truth_at(script: SceneScript, idx: int) -> list[GroundTruthRecord]:
    states = {}
    for o in script.objects:
        st = o.state_at(idx, script.frame_count)
        if st is not None:
            states[o.id] = st
    occ = _occluded_flags(states)
    return [GroundTruthRecord(idx, oid, *states[oid], occ[oid]) for oid in sorted(states)]


def _encode_frames(script: SceneScript, background: np.ndarray,
                   truth: list[GroundTruthRecord]) -> Iterator[FrameFeatures]:
    """Each frame's features, encoded as it is asked for; each frame's
    ground truth is appended to ``truth`` before the frame is yielded.

    Frames are painted into two canvases in turn. Before frame i is
    painted into canvas i % 2, the background is restored under the
    objects painted there for frame i - 2, so a canvas is never copied
    whole, and canvas (i - 1) % 2 still holds the previous frame for the
    P-frame encoder.
    """
    noise = _NoiseState(script.noise, script.height // MB, script.width // MB)
    canvases = [background.copy(), background.copy()]
    painted: list[list[tuple[slice, slice]]] = [[], []]
    patches: dict = {}
    frame_kind = script.header().frame_kind
    for idx in range(script.frame_count):
        img = canvases[idx % 2]
        for region in painted[idx % 2]:
            img[region] = background[region]
        painted[idx % 2] = script._paint_objects(img, idx, patches)
        truth.extend(_truth_at(script, idx))
        if frame_kind(idx) == "I":
            yield FrameFeatures(idx, "I", intra_payload=encode_iframe(img))
        else:
            grid = encode_p_frame(img, canvases[(idx - 1) % 2])
            noise.apply(grid)
            yield FrameFeatures(idx, "P", mb_grid=grid)


def synthesize_to(script: SceneScript, sink: BinaryIO) -> list[GroundTruthRecord]:
    """Render and encode a scene into ``sink``, a binary file object,
    writing each frame as soon as it is encoded. Returns the ground truth.

    The stream is never held whole: the writer's memory is a few frames,
    however long the scene. Deterministic: the same script (same noise
    seed) yields byte-identical streams.
    """
    script.validate()
    background = script.render_background()
    truth: list[GroundTruthRecord] = []
    write_stream(script.header(), BackgroundChunk(rgb=background),
                 _encode_frames(script, background, truth), sink)
    return truth


def synthesize(script: SceneScript) -> tuple[bytes, list[GroundTruthRecord]]:
    """Render and encode a scene. Returns (stream bytes, ground truth):
    ``synthesize_to`` collected into bytes."""
    buf = io.BytesIO()
    truth = synthesize_to(script, buf)
    return buf.getvalue(), truth


def write_jsonl(items, path) -> None:
    """Write each item's ``to_json_dict()`` as one line of sorted-key JSON."""
    with open(path, "w", encoding="utf-8") as f:
        for item in items:
            f.write(json.dumps(item.to_json_dict(), sort_keys=True) + "\n")


def read_jsonl(path, parse) -> list:
    """``parse(d)`` of the JSON object ``d`` on each non-blank line of a
    JSONL file. A malformed line raises ``ValueError`` naming its line
    number and, if that is what is wrong, the missing field."""
    out = []
    with open(path, "r", encoding="utf-8") as f:
        for n, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                if not isinstance(d, dict):
                    raise TypeError("not a JSON object")
                out.append(parse(d))
            except KeyError as exc:
                raise ValueError(f"line {n} has no {exc}") from None
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {n} is not JSON: {exc.msg}") from None
            except (TypeError, ValueError) as exc:
                raise ValueError(f"line {n}: {exc}") from None
    return out


def write_ground_truth(records: list[GroundTruthRecord], path) -> None:
    write_jsonl(records, path)


def load_ground_truth(path) -> list[GroundTruthRecord]:
    """Read ground-truth JSONL (see ``read_jsonl``)."""
    return read_jsonl(path, lambda d: GroundTruthRecord(
        frame_index=int(d["frame_index"]), object_id=int(d["object_id"]),
        cx=float(d["cx"]), cy=float(d["cy"]), h=float(d["h"]), w=float(d["w"]),
        occluded=bool(d.get("occluded", False))))
