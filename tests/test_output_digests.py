"""The digest matrix, ``scripts/output_digests.py``, makes every run it
made before, under the same name.

No other test runs the script, and ``--against`` matches two trees'
digests by run name. Listing the runs synthesizes nothing: each run's
stream is a thunk.
"""

import importlib.util
import sys
from pathlib import Path

from mbtrack import scene

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "output_digests.py"

# Each run is digested in GOP and in live mode, and its stream is parsed once.
RUNS = [
    "lanes-noisy/partial", "lanes-noisy/full", "noise-only/partial", "noise-only/full",
    "pair-full-decode/partial", "pair-full-decode/full", "lanes-0", "lanes-23", "lanes-7",
    "lanes-11", "lanes-42", "lanes-99", "lanes-30", "lanes-34", "crossing-scene",
    "criterion-4", "criterion-5-101-empty", "criterion-5-101-objects", "criterion-5-102-empty",
    "criterion-5-102-objects", "criterion-5-103-empty", "criterion-5-103-objects",
    "criterion-5-104-empty", "criterion-5-104-objects", "criterion-5-105-empty",
    "criterion-5-105-objects", "criterion-6-201", "criterion-6-202", "criterion-6-203",
    "criterion-6-204", "criterion-6-205", "criterion-8/partial", "criterion-8/full",
    "crossing-scene/stale-0", "lanes-101/stale-0", "crossing-scene/stale-2",
    "lanes-101/stale-2", "lanes-101-800", "lanes-23-empty", "lanes-7-empty",
    "noise-only/no-spatial-filter", "lanes-noisy-no-background/partial",
    "lanes-noisy-no-background/full", "scale/partial", "scale/full", "edges/partial",
    "edges/full",
]


def test_the_matrix_makes_every_run_under_its_name(monkeypatch):
    def no_synthesis(script):
        raise AssertionError("listing the runs synthesized a stream")

    monkeypatch.setattr(scene, "synthesize", no_synthesis)
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script extends it
    spec = importlib.util.spec_from_file_location("output_digests", SCRIPT)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    runs = list(digests.runs())
    names = [name for name, *_ in runs]
    assert len(set(names)) == len(names)
    assert names == RUNS
    assert all(callable(stream) for _, stream, *_ in runs)
