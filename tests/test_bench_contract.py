"""The benchmark's trace still reaches every layer it names.

``bench/spans.py`` times each layer by patching the names the pipeline
calls (``mbtrack.pipeline:decode_region_partial`` and the rest). A
refactor that renames or stops calling one of them fails the traced
benchmark; this test makes it fail here as well, on a small scene.
"""

import importlib
import sys
from pathlib import Path

import pytest

from mbtrack.pipeline import run_tracker
from mbtrack.scene import synthesize

from scenes import crossing_scene

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("spans", "workloads"):
        sys.modules.pop(name, None)
    yield importlib.import_module("spans"), importlib.import_module("workloads")
    for name in ("spans", "workloads"):
        sys.modules.pop(name, None)


@pytest.mark.parametrize("name", ["lanes-noisy", "noise-only", "pair-full-decode"])
def test_traced_crossing_enters_every_must_run_span(bench_modules, name):
    """Each workload's configuration, on the crossing scene, enters every
    span its traced run must record."""
    spans, workloads = bench_modules
    workload = workloads.WORKLOADS[name]
    data, _ = synthesize(crossing_scene())
    recorder = spans.SpanRecorder()
    with recorder.install():
        result = recorder.run(lambda: run_tracker(data, workload.config()))
    assert result.records
    entered = set(recorder.names)
    assert set(workload.must_run) <= entered, sorted(set(workload.must_run) - entered)
    assert recorder.counts["intra.blocks"] > 0
    # The tracker calls the matcher it is handed once per resolved split,
    # so the patched name still sees every call.
    resolved = [e for e in result.events if e.kind == "identity_assigned"]
    assert resolved and recorder.names.count("occlusion.match") == len(resolved)


def test_synthesize_encodes_each_frame_through_the_names_synth_patches(bench_modules):
    """``bench/synth.py`` takes a probe mark after each call of
    ``mbtrack.scene:encode_iframe`` and ``encode_p_frame``: one per frame."""
    from mbtrack import scene

    spans, workloads = bench_modules
    calls = []

    def counted(kind, encode):
        def wrapper(*a, **kw):
            calls.append(kind)
            return encode(*a, **kw)
        return wrapper

    script = workloads.pair_script(0, frames=20)
    with spans.patched({"mbtrack.scene:encode_iframe": counted("I", scene.encode_iframe),
                        "mbtrack.scene:encode_p_frame": counted("P", scene.encode_p_frame)}):
        scene.synthesize(script)
    assert calls == ["I" if i % script.gop_len == 0 else "P" for i in range(20)]


def test_gop_clock_cuts_after_each_gop_release(bench_modules, monkeypatch):
    """``GopClock`` marks when the tracker asks for the frame after an
    I-frame. Its segments are per-GOP costs only if the I-frame's release
    of records (``on_emit``) comes before that mark."""
    from mbtrack import pipeline

    spans, workloads = bench_modules
    log = []

    def logged_probe_mark():
        log.append(("mark", None))
        return 0.0, 1.0, 0.0

    monkeypatch.setattr(spans, "probe_mark", logged_probe_mark)
    read_stream = pipeline.read_stream

    def logged_read_stream(source):
        header, background, frames = read_stream(source)

        def logged():
            for frame in frames:
                log.append((frame.kind, frame.frame_index))
                yield frame
        return header, background, logged()

    monkeypatch.setattr(pipeline, "read_stream", logged_read_stream)
    data, _ = synthesize(crossing_scene())
    clock = spans.GopClock()  # wraps the logged reader
    with clock.install():
        clock.run(lambda: run_tracker(data, workloads.WORKLOADS["lanes-noisy"].config(),
                                      on_emit=lambda after, _: log.append(("release", after))))

    iframes = [i for kind, i in log if kind == "I"]
    marks = [k for k, (kind, _) in enumerate(log) if kind == "mark"]
    assert len(clock.marks) == len(marks) == len(iframes) + 2
    assert marks[0] == 0 and marks[-1] == len(log) - 1
    released_at_iframes = 0
    for i in iframes:
        start = log.index(("I", i))
        cut = next(k for k in marks if k > start)
        releases = [k for k, entry in enumerate(log) if entry == ("release", i)]
        assert all(start < k < cut for k in releases), i
        released_at_iframes += len(releases)
    assert released_at_iframes >= 10
