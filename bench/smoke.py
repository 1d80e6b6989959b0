"""Smoke check of the benchmark itself.

    python3 bench/smoke.py

Runs ``bench/run.py`` on every workload shortened to a few GOPs, once
untraced and once traced, and checks that each run exits 0, prints every
metric BENCHMARK.json declares for its mode by name with its unit, and
ends with a result line that has exactly the keys correct, attempted,
failed and metrics, a finite value per metric and no failed sample. It
also checks that the benchmark refuses to run, without a result line, in
a directory that holds only BENCHMARK.json and the benchmark's files.
Exits 1 on the first problem.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
FRAMES = 96
SECONDS = 1


def check_run(spec: dict, workload: str, trace: int) -> None:
    cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", str(SECONDS),
                             "--trace", str(trace), "--frames", str(FRAMES)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    where = f"{workload} --trace {trace}"
    if done.returncode != 0:
        raise SystemExit(f"{where}: exit {done.returncode}\n{done.stderr[-2000:]}")
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise SystemExit(f"{where}: result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise SystemExit(f"{where}: checks failed: {lines[-1]}\n{done.stdout}")
    declared = spec["per_layer" if trace else "end_to_end"]
    if set(result["metrics"]) != {m["name"] for m in declared}:
        raise SystemExit(f"{where}: metrics {sorted(result['metrics'])} differ from "
                         "BENCHMARK.json")
    for m in declared:
        got = result["metrics"][m["name"]]
        if got["unit"] != m["unit"] or not math.isfinite(got["value"]):
            raise SystemExit(f"{where}: {m['name']} = {got}")
        if not any(line.startswith(f"  {m['name']} = ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1]):
            raise SystemExit(f"{where}: {m['name']} not printed with unit {m['unit']}")
    print(f"ok  {where}: {len(declared)} metrics, {result['attempted']} samples")


def check_bare_directory(spec: dict) -> None:
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        for path in spec["paths"]:
            shutil.copytree(os.path.join(ROOT, path), os.path.join(bare, path),
                            ignore=shutil.ignore_patterns("__pycache__"))
        name = spec["workloads"][0]["name"]
        done = subprocess.run(spec["command"] + ["--workload", name, "--seed", "1",
                                                 "--seconds", "1", "--trace", "0"],
                              cwd=bare, capture_output=True, text=True, timeout=180)
        if done.returncode == 0 or done.stdout.strip():
            raise SystemExit(f"bare directory: exit {done.returncode}, stdout {done.stdout!r}")
        print(f"ok  bare directory: exit {done.returncode}, no result")
    finally:
        shutil.rmtree(bare)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    check_bare_directory(spec)
    for w in spec["workloads"]:
        for trace in (0, 1):
            check_run(spec, w["name"], trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
