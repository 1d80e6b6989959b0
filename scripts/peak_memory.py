"""Trace the memory peak of one tracking pass over each benchmark workload.

For each workload of ``bench/workloads.py`` it writes the workload's
stream to a temporary file and tracks it once with
``run_tracker(path, workload.config())``, the call the benchmark times,
under ``tracemalloc``. It prints the pass's exact peak of traced memory
and the ``Tracker._lap`` stage that the peak falls in, with the frame
being fed then. A lap charges the time since the last lap to its stage,
so the peak since the last lap is charged to that stage too; memory
taken after the last lap is charged to ``end``. The stream is written
before tracing starts, so the peak holds only what the pass allocates.
It does not move with the allocator's heap steps that the benchmark's
RSS high-water (``peak_mem_mb``) follows: between runs of one tree it
moves by a few kilobytes at most. Run it once per tree:

    PYTHONPATH=<tree>/src python3 scripts/peak_memory.py [WORKLOAD ...]

Only ``mbtrack`` comes from PYTHONPATH; the workloads come from the
checkout this script sits in, so two trees are fed the same scenes.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench")]

from mbtrack import pipeline  # noqa: E402
from mbtrack.scene import synthesize_to  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def traced_pass(path, config) -> tuple[int, str, int]:
    """(peak bytes, stage, frame index) of one traced ``run_tracker`` pass."""
    lap = pipeline.Tracker._lap
    worst = [0, "", -1]

    def charge(stage: str, frame: int) -> None:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        if peak > worst[0]:
            worst[:] = [peak, stage, frame]

    def traced_lap(tracker, stage):
        charge(stage, tracker.last_index)
        lap(tracker, stage)

    pipeline.Tracker._lap = traced_lap
    tracemalloc.start()
    try:
        result = pipeline.run_tracker(path, config)
        charge("end", result.header.frame_count - 1)
    finally:
        tracemalloc.stop()
        pipeline.Tracker._lap = lap
    return tuple(worst)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", metavar="WORKLOAD",
                    help=f"workloads to trace, of {', '.join(WORKLOADS)} (default: all)")
    args = ap.parse_args(argv)
    for name in args.workloads:
        if name not in WORKLOADS:
            ap.error(f"unknown workload {name!r}")
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workloads or WORKLOADS:
            workload = WORKLOADS[name]
            path = Path(tmp) / f"{name}.mbfs"
            with open(path, "wb") as f:
                synthesize_to(workload.script(), f)
            peak, stage, frame = traced_pass(path, workload.config())
            print(f"{name:18} peak {peak:>10,} B ({peak / 1e6:.3f} MB)  "
                  f"stage {stage} at frame {frame}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
