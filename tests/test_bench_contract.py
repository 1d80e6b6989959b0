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

from test_pipeline import crossing_scene

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("spans", "workloads"):
        sys.modules.pop(name, None)
    yield importlib.import_module("spans"), importlib.import_module("workloads")
    for name in ("spans", "workloads"):
        sys.modules.pop(name, None)


def test_traced_crossing_enters_every_lanes_span(bench_modules):
    spans, workloads = bench_modules
    workload = workloads.WORKLOADS["lanes-noisy"]
    data, _ = synthesize(crossing_scene())
    recorder = spans.SpanRecorder()
    with recorder.install():
        result = recorder.run(lambda: run_tracker(data, workload.config()))
    assert result.records
    entered = set(recorder.names)
    assert set(workload.must_run) <= entered, sorted(set(workload.must_run) - entered)
    assert recorder.counts["intra.blocks"] > 0
