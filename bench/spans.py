"""Span recorder and GOP clock, installed by patching mbtrack's public names.

Nothing in ``src/`` is edited. ``mbtrack.pipeline`` looks up the layer
functions it imported as module globals at call time, so replacing those
globals (plus ``mbtrack.refinement.background_subtract``, which
``refine_object`` looks up, and ``EntityTracker.step``) puts a span
around every call into a layer. A patch target that no longer exists
raises at install time, so a refactor cannot silently zero a layer.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from collections import Counter, defaultdict

import numpy as np
from mbtrack.filtering import Label

perf_counter = time.perf_counter


def _resolve(target: str):
    """'pkg.module:Attr.attr' -> (owner object, attribute name, current value)."""
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    if not hasattr(owner, attr):
        raise RuntimeError(f"benchmark trace target {target} no longer exists; "
                           "update bench/spans.py to the refactored name")
    return owner, attr, getattr(owner, attr)


@contextlib.contextmanager
def patched(replacements: dict[str, object]):
    """Set each 'module:attr' target to a new value for the block, then restore."""
    resolved = [(*_resolve(t), new) for t, new in replacements.items()]
    try:
        for owner, attr, _, new in resolved:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old, _ in resolved:
            setattr(owner, attr, old)


READ_STREAM = "mbtrack.pipeline:read_stream"


# Seconds one probe() takes on the 2-core machine the benchmark was built
# on, in its fast state (see GopClock).
PROBE_REF_S = 0.4e-3
_PROBE_RESIDUALS = np.random.default_rng(0).integers(-20, 20, (5, 8, 8, 8)).astype(np.int32)


def probe() -> None:
    """A fixed 40-block loop shaped like intra decode: slices, sums, clip, store.

    It is the benchmark's own code, so its cost changes with the machine's
    speed and never with the code under test.
    """
    plane = np.empty((40, 64), dtype=np.int32)
    for by in range(5):
        y0 = by * 8
        for bx in range(8):
            x0 = bx * 8
            s = n = 0
            if by:
                s += int(plane[y0 - 1, x0:x0 + 8].sum())
                n += 8
            if bx:
                s += int(plane[y0:y0 + 8, x0 - 1].sum())
                n += 8
            blk = _PROBE_RESIDUALS[by, bx] + ((s + n // 2) // n if n else 128)
            np.clip(blk, 0, 255, out=blk)
            plane[y0:y0 + 8, x0:x0 + 8] = blk


def probe_mark() -> tuple[float, float, float]:
    """(start, mean seconds of three probes, end), after one untimed probe
    that brings the probe back into the caches the measured code evicted."""
    t0 = perf_counter()
    probe()
    t1 = perf_counter()
    probe()
    probe()
    probe()
    t2 = perf_counter()
    return t0, (t2 - t1) / 3, t2


def scaled_costs(marks: list[tuple[float, float, float]]) -> list[float]:
    """Durations between consecutive probe marks, probing left out, each
    scaled by PROBE_REF_S over the mean probe time at its two ends: the
    duration in the machine's fast state (see GopClock)."""
    return [(b[0] - a[2]) * PROBE_REF_S / ((a[1] + b[1]) / 2)
            for a, b in zip(marks, marks[1:])]


class GopClock:
    """Cuts one pass at its GOP releases and probes the machine's speed at each cut.

    A release is the moment the tracker asks for the frame after an
    I-frame: that I-frame's processing, including its GOP's release of
    records, has returned. The cuts split the pass into segments: the start
    of the call to the first release, one segment per GOP, and the last
    release to the end of the call.

    The machine this benchmark was built on is shared. Its speed flips
    between two states, 1.6x apart, every tenth of a second to a few
    seconds, and the share of time in the slow state drifts over minutes.
    So at every cut the clock takes a ``probe_mark``; the probing is left
    out of the segments. A segment's cost is its duration scaled by
    ``PROBE_REF_S`` over the mean probe time on its two sides: its duration
    in the machine's fast state.
    """

    def __init__(self):
        self.marks: list[tuple[float, float, float]] = []
        self._read_stream = _resolve(READ_STREAM)[2]

    def install(self):
        return patched({READ_STREAM: self._read_stream_hook})

    def run(self, fn):
        """Call fn between a probe before and a probe after it."""
        self.marks = [probe_mark()]
        try:
            return fn()
        finally:
            self.marks.append(probe_mark())

    def _read_stream_hook(self, source):
        header, background, frames = self._read_stream(source)
        return header, background, self._frames(frames)

    def _frames(self, frames):
        for frame in frames:
            yield frame
            if frame.kind == "I":
                self.marks.append(probe_mark())

    def wall_seconds(self) -> float:
        """The call's wall time, probing left out."""
        return sum(b[0] - a[2] for a, b in zip(self.marks, self.marks[1:]))

    def costs(self) -> list[float]:
        """Segment durations in the machine's fast state."""
        return scaled_costs(self.marks)

    def probe_seconds(self) -> list[float]:
        return [m[1] for m in self.marks]


# Span name -> the layer metric its self time adds to.
SELF_TIME_METRIC = {
    "pipeline.run": "pipeline.self_s",
    "stream.read": "stream.parse_s",
    "stream.pframe": "stream.parse_s",
    "stream.iframe": "stream.parse_s",
    "stream.end": "stream.parse_s",
    "filtering.cluster": "filtering.cluster_s",
    "filtering.filter": "filtering.filter_s",
    "filtering.step": "filtering.step_s",
    "intra.partial": "intra.decode_s",
    "intra.full": "intra.decode_s",
    "refinement.refine": "refinement.self_s",
    "refinement.subtract": "refinement.subtract_s",
    "occlusion.hue": "occlusion.hue_s",
    "occlusion.match": "occlusion.match_s",
}


class SpanRecorder:
    """In-memory spans for one traced ``run_tracker`` pass.

    Each span keeps its name, start, end, parent span index (-1 for the
    root) and the index of the frame being processed when it opened.
    Counts observed at the same boundaries go to ``counts``. Like
    ``GopClock``, the recorder takes a probe mark before and after the
    pass and at every GOP release, so that traced and untraced passes can
    be compared in the machine's fast state; the marks inside the pass are
    ``trace.probe`` spans, which no layer's self time includes.
    """

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.frames: list[int] = []
        self.counts: Counter = Counter()
        self.marks: list[tuple[float, float, float]] = []
        self._stack = [-1]
        self._frame = -1

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1])
        self.frames.append(self._frame)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = perf_counter()
        self._stack.pop()

    def run(self, fn):
        """Call fn as the root span of the pass, between two probe marks."""
        self.marks = [probe_mark()]
        try:
            return self.call("pipeline.run", fn)
        finally:
            self.marks.append(probe_mark())

    def call(self, name: str, fn, *args, **kwargs):
        idx = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)

    # -- patch targets -------------------------------------------------------

    def _wrap(self, name: str, fn, observe=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            out = self.call(name, fn, *args, **kwargs)
            if observe is not None:
                observe(out, args)
            return out
        return wrapper

    def _frames(self, frames):
        it = iter(frames)
        while True:
            idx = self._open("stream.end")
            try:
                frame = next(it)
            except StopIteration:
                self._close(idx)
                return
            self._close(idx)
            self.names[idx] = "stream.iframe" if frame.kind == "I" else "stream.pframe"
            self._frame = frame.frame_index
            yield frame
            if frame.kind == "I":
                idx = self._open("trace.probe")
                self.marks.append(probe_mark())
                self._close(idx)

    def _on_step(self, events, _args):
        for ev in events:
            if ev.kind == "seed":
                self.counts["filtering.seeds"] += 1
            elif ev.kind == "classified":
                self.counts["filtering.classified"] += 1
                self.counts["filtering.promoted"] += ev.data["label"] == Label.REAL.value

    def _on_refine(self, result, _args):
        self.counts["refinement.attempts"] += 1
        self.counts["refinement.refined"] += bool(result.refined)

    def _on_partial(self, out, _args):
        self.counts["intra.blocks"] += out[1].blocks_decoded

    def _on_full(self, _out, args):
        self.counts["intra.blocks"] += args[0].blocks_per_plane

    def install(self):
        """Patch every layer entry point; restore them when the block exits."""
        c = self.counts

        def read_stream(source, _real=_resolve(READ_STREAM)[2]):
            header, background, frames = self.call("stream.read", _real, source)
            return header, background, self._frames(frames)

        targets = {
            READ_STREAM: read_stream,
            "mbtrack.pipeline:cluster_blocks": ("filtering.cluster", lambda out, _: c.update(
                {"filtering.groups": len(out)})),
            "mbtrack.pipeline:spatial_filter": ("filtering.filter", lambda out, _: c.update(
                {"filtering.groups_kept": len(out)})),
            "mbtrack.filtering:EntityTracker.step": ("filtering.step", self._on_step),
            "mbtrack.pipeline:decode_region_partial": ("intra.partial", self._on_partial),
            "mbtrack.pipeline:decode_full": ("intra.full", self._on_full),
            "mbtrack.pipeline:refine_object": ("refinement.refine", self._on_refine),
            "mbtrack.refinement:background_subtract": ("refinement.subtract", None),
            "mbtrack.pipeline:hue_histogram": ("occlusion.hue", None),
            "mbtrack.pipeline:match_identities": ("occlusion.match", None),
        }
        for target, spec in targets.items():
            if isinstance(spec, tuple):
                name, observe = spec
                targets[target] = self._wrap(name, _resolve(target)[2], observe)
        return patched(targets)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus its direct children's."""
        dur = [e - s for s, e in zip(self.starts, self.ends)]
        own = list(dur)
        for idx, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= dur[idx]
        out: dict[str, float] = defaultdict(float)
        for name, t in zip(self.names, own):
            out[name] += t
        return dict(out)

    def call_counts(self) -> Counter:
        return Counter(self.names)

    def wall_seconds(self) -> float:
        """The root span's duration, probing left out."""
        probing = sum(e - s for n, s, e in zip(self.names, self.starts, self.ends)
                      if n == "trace.probe")
        return self.ends[0] - self.starts[0] - probing

    def costs(self) -> list[float]:
        """Durations between the probe marks in the machine's fast state."""
        return scaled_costs(self.marks)

    def write_jsonl(self, f, pass_index: int) -> None:
        t0 = self.starts[0] if self.starts else 0.0
        for i, name in enumerate(self.names):
            f.write(json.dumps({
                "pass": pass_index, "span": i, "name": name, "parent": self.parents[i],
                "frame": self.frames[i],
                "start_us": round((self.starts[i] - t0) * 1e6, 3),
                "end_us": round((self.ends[i] - t0) * 1e6, 3),
            }) + "\n")
