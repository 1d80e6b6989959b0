"""Run the benchmark over many seeds, check its spread and record a trajectory point.

    python3 bench/record.py --label 616837a --seeds 1-10 --out bench/trajectory/000-616837a.json

For each workload, runs ``bench/run.py`` once per seed with ``--trace 0``
(the command BENCHMARK.json names, with its run length) and once with
``--trace 1`` on the first seed. For every end-to-end metric it reports
the median, the quartiles from ``statistics.quantiles(values, n=4)`` and
the spread (interquartile range over median), against the metric's bound.
The runs, the summary and the environment go to ``--out`` as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
LINE = re.compile(r"^\s+([A-Za-z][\w.]*) = (\S+) (\S+)$")


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.monotonic() - t0
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}:\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    printed = {m.group(1): float(m.group(2)) for m in map(LINE.match, lines[:-1]) if m}
    return {"seed": seed, "trace": trace, "elapsed_s": elapsed, "header": lines[0],
            "result": result, "printed": printed}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    out = {}
    for m in metrics:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        spread = (q3 - q1) / med if med else float("inf")
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                          "bound": m["bound"], "spread_within_third_of_bound":
                          spread < m["bound"] / 3, "values": values}
    return out


def environment() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "cores": os.cpu_count(),
            "machine": platform.machine(), "system": platform.system()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="what was measured, e.g. a commit id")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    seeds = parse_seeds(args.seeds)
    point = {"label": args.label, "recorded": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "environment": environment(), "run_seconds": spec["run_seconds"],
             "seeds": seeds, "workloads": {}}
    worst = 0.0
    for name in names:
        runs = []
        for seed in seeds:
            runs.append(run_once(spec, name, seed, 0))
            r = runs[-1]
            print(f"{name} seed {seed}: {r['elapsed_s']:.0f} s, correct {r['result']['correct']}, "
                  + ", ".join(f"{k} {v['value']:.4g}" for k, v in r["result"]["metrics"].items()),
                  flush=True)
        summary = summarize(runs, spec["end_to_end"])
        point["workloads"][name] = {"runs": runs, "summary": summary,
                                    "traced": run_once(spec, name, seeds[0], 1)}
        for metric, s in summary.items():
            flag = "ok" if s["spread_within_third_of_bound"] else (
                "WITHIN BOUND" if s["spread"] <= s["bound"] else "OVER BOUND")
            print(f"  {name} {metric}: median {s['median']:.4g}, spread {s['spread']:.3f} "
                  f"(bound {s['bound']}) {flag}", flush=True)
            if metric != "setup_s":
                worst = max(worst, s["spread"] / s["bound"])
        os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(point, f, indent=1)
            f.write("\n")
    print(f"largest spread/bound except setup_s: {worst:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
