"""Set-up step: synthesize one workload stream and write it to a file.

    python3 bench/synth.py --workload lanes-noisy --out PATH

Writes the stream to PATH and its ground truth to PATH.truth.jsonl, then
prints one JSON line with the seconds spent in ``synthesize`` plus writing
the stream, in the machine's fast state: the clock probes the machine's
speed after every encoded frame and scales each frame's time as
``spans.GopClock`` scales a GOP's. The line also gives the wall-clock
seconds, probing included. ``run.py`` runs this in a child process so
that the tracking process's peak memory holds no synthesis.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--frames", type=int, default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    sys.path[:0] = [os.path.join(os.getcwd(), "src"), BENCH_DIR]
    from mbtrack import scene
    from spans import patched, probe_mark, scaled_costs
    from workloads import WORKLOADS

    script = WORKLOADS[args.workload].script(args.frames)
    marks = []

    def marked(encode):
        def wrapper(*a, **kw):
            out = encode(*a, **kw)
            marks.append(probe_mark())
            return out
        return wrapper

    with patched({"mbtrack.scene:encode_iframe": marked(scene.encode_iframe),
                  "mbtrack.scene:encode_p_frame": marked(scene.encode_p_frame)}):
        t0 = time.perf_counter()
        marks.append(probe_mark())
        data, truth = scene.synthesize(script)
        with open(args.out, "wb") as f:
            f.write(data)
        marks.append(probe_mark())
        t1 = time.perf_counter()
    scene.write_ground_truth(truth, args.out + ".truth.jsonl")
    print(json.dumps({"seconds": sum(scaled_costs(marks)), "wall_s": t1 - t0,
                      "mb": len(data) / 1e6}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
