"""mbtrack benchmark: track one workload's synthetic stream and report metrics.

Run from the root of an mbtrack checkout:

    python3 bench/run.py --workload lanes-noisy --seed 1 --seconds 25 --trace 0

Set-up synthesizes the workload's stream (in child processes, several
times, to time it) and writes it under ``.bench_work/``. The run is closed
loop: one caller tracks the stream to completion with
``run_tracker(path, config)``, then again, for a fixed number of passes:
``--seconds`` over the workload's nominal pass time, so the count does not
depend on the speed of the code under test. Every pass is checked; a pass
that raises or fails a check counts in ``failed``. If no pass succeeds,
the result line has no metrics and the exit code is 1.

``--trace 0`` reports the end-to-end metrics from untraced passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics; its spans go to ``.bench_work/spans-<workload>-<seed>.jsonl``.
Human-readable lines come first; the last line of stdout is one JSON object.

Inputs do not depend on ``--seed``: every workload has fixed inputs (see
bench/README.md).
"""

from __future__ import annotations

import os

# The benchmark measures one thread: pin the BLAS/OpenMP pools before numpy loads.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import functools
import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

SETUPS = 3
SETUP_TIMEOUT_S = 120
# A run makes at least this many passes, so each GOP's cost is the median
# of several observations.
MIN_PASSES = 3
# A traced run makes at least this many passes, half of them traced.
MIN_TRACED_RUN_PASSES = 4
GOP_TAIL_PERCENTILE = 90
# A run stops measuring after this long, whatever pass it is on, so that it
# ends within its time limit even when the code under test got far slower.
MAX_MEASURE_S = 120.0


def load_program() -> None:
    if not os.path.isfile(os.path.join(SRC, "mbtrack", "__init__.py")):
        sys.exit("bench/run.py: src/mbtrack not found; run from the root of an mbtrack checkout")
    sys.path[:0] = [SRC, BENCH_DIR]


def declared_metrics() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def max_rss_mb() -> float:
    """This process's resident-set high-water mark (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def records_digest(records) -> str:
    lines = "\n".join(json.dumps(r.to_json_dict(), sort_keys=True) for r in records)
    return hashlib.sha256(lines.encode()).hexdigest()


def nearest_rank(samples: list[float], pct: float) -> float:
    xs = sorted(samples)
    return xs[max(1, -(-len(xs) * pct // 100)) - 1]  # rank ceil(n * pct / 100)


def pass_count(workload, seconds: float, frames: int | None, least: int) -> int:
    """Passes in a run: ``seconds`` over the nominal pass time, never below ``least``."""
    nominal = workload.pass_s * (frames or workload.frames) / workload.frames
    return max(least, round(seconds / nominal))


def keep_measuring(done: int, passes: int, t_start: float) -> bool:
    return done < passes and time.perf_counter() - t_start < MAX_MEASURE_S


@dataclass
class Stream:
    path: str
    truth: list
    gop_len: int
    frames: int
    mb: float


@dataclass
class Checks:
    """Counts attempted and failed samples; a failure never aborts the run.

    Every sample's records must hash like the reference: the partial-decode
    run on full-decode workloads, else the first sample.
    """

    full_decode: bool
    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)
    references: int = 0  # untimed reference runs, counted in attempted
    reference: str | None = None
    first_records: list | None = None

    def fail(self, what: str) -> None:
        self.failed += 1
        self.notes.append(what)
        print(f"CHECK FAILED: {what}", file=sys.stderr)

    def sample(self, what: str, fn):
        """Run one sample; returns fn's result, or None when it failed."""
        self.attempted += 1
        try:
            result = fn()
        except Exception as exc:  # a failing sample is counted, not fatal
            self.fail(f"{what} raised {type(exc).__name__}: {exc}")
            return None
        digest = records_digest(result.records)
        if self.first_records is None:
            self.first_records = result.records
        if self.reference is None:
            self.reference = digest
        elif digest != self.reference:
            self.fail(f"{what}: records differ from the reference run")
            return None
        ratio = result.metrics["blocks_decoded_ratio"]
        if self.full_decode and ratio != 1.0:
            self.fail(f"{what}: full decode ratio {ratio}")
            return None
        return result

    def partial_reference(self, stream: Stream) -> None:
        """Full decode must reproduce partial decode's records byte for byte (untimed)."""
        from mbtrack.pipeline import TrackerConfig, run_tracker

        self.attempted += 1
        self.references += 1
        try:
            self.reference = records_digest(run_tracker(stream.path, TrackerConfig()).records)
        except Exception as exc:
            self.fail(f"partial-decode reference raised {type(exc).__name__}: {exc}")


def set_up(workload, frames: int | None) -> tuple[Stream, list[dict]]:
    """Synthesize and write the stream SETUPS times from child processes.

    Returns the stream and synth.py's report of each set-up.
    """
    from mbtrack.scene import load_ground_truth

    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"{workload.name}-{os.getpid()}.mbfs")
    cmd = [sys.executable, os.path.join(BENCH_DIR, "synth.py"), "--workload",
           workload.name, "--out", path]
    if frames:
        cmd += ["--frames", str(frames)]
    reports = []
    for _ in range(SETUPS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        reports.append(json.loads(done.stdout.splitlines()[-1]))
    script = workload.script(frames)
    stream = Stream(path, load_ground_truth(path + ".truth.jsonl"), script.gop_len,
                    script.frame_count, reports[-1]["mb"])
    return stream, reports


def quality(stream: Stream, checks: Checks, ratio: float) -> dict:
    """Accuracy figures of the run's records against the scene's ground truth."""
    from mbtrack.pipeline import evaluate

    ev = evaluate(checks.first_records, stream.truth, stream.gop_len)
    per = ev["per_object"].values()
    latencies = [o["detection_latency_pframes"] for o in per
                 if o["detection_latency_pframes"] is not None]
    matched = set().union(*(o["matched_track_ids"] for o in per))
    return {
        "blocks_decoded_ratio": ratio,
        "mean_iou": ev["mean_iou"] or 0.0,
        "id_switches": ev["id_switch_count"],
        "detection_latency_pframes": statistics.fmean(latencies) if latencies else 0.0,
        "missed_objects": sum(o["detection_latency_pframes"] is None for o in per),
        "false_tracks": len(set(ev["real_track_ids"]) - matched),
        "error_rate": checks.failed / checks.attempted,
    }


def timed_pass(stream: Stream, config, hook, on_emit=None):
    """One run_tracker pass with ``hook`` (a GopClock or SpanRecorder) installed."""
    from mbtrack.pipeline import run_tracker

    gc.collect()
    with hook.install():
        return hook.run(functools.partial(run_tracker, stream.path, config, on_emit=on_emit))


def run_untraced(workload, stream, passes, checks, rss_before):
    """Passes with only the GOP clock on; returns (metrics, info, ratio), metrics None
    when no pass succeeded.

    A segment's cost is the median over the passes of its speed-scaled
    duration (``spans.GopClock``); the GOP metrics are taken over the
    per-GOP costs and ``fps`` divides the frames by the sum of all costs.
    """
    from spans import PROBE_REF_S, GopClock

    config = workload.config()
    costs: list[list[float]] = []
    walls: list[float] = []
    probes: list[float] = []
    ratio = None
    t_start = time.perf_counter()
    while keep_measuring(checks.attempted - checks.references, passes, t_start):
        clock = GopClock()
        result = checks.sample(f"pass {checks.attempted}",
                               lambda: timed_pass(stream, config, clock))
        if result is not None:
            costs.append(clock.costs())
            walls.append(clock.wall_seconds())
            probes.extend(clock.probe_seconds())
            ratio = result.metrics["blocks_decoded_ratio"]
    peak = max_rss_mb() - rss_before
    info = {"passes": checks.attempted - checks.references,
            "pass_s": [round(w, 4) for w in walls]}
    if not costs:
        return None, info, ratio

    cost = [statistics.median(seg) for seg in zip(*costs)]
    gops = cost[1:-1]
    tail = nearest_rank(gops, GOP_TAIL_PERCENTILE)
    metrics = {
        "fps": stream.frames / sum(cost),
        "gop_p50_ms": 1e3 * statistics.median(gops),
        "gop_tail_ms": 1e3 * tail,
        "peak_mem_mb": peak,
    }
    info.update(gops=len(gops), gops_beyond_tail=sum(g > tail for g in gops),
                wall_fps_median_pass=round(stream.frames / statistics.median(walls), 3),
                probe_ms_median=round(1e3 * statistics.median(probes), 4),
                probe_ms_ref=1e3 * PROBE_REF_S)
    return metrics, info, ratio


def layer_metrics(rec, result) -> dict:
    """Per-layer numbers for one traced pass."""
    from spans import SELF_TIME_METRIC

    own = rec.self_times()
    own.pop("trace.probe", None)
    calls = rec.call_counts()
    c = rec.counts
    m = {name: 0.0 for name in SELF_TIME_METRIC.values()}
    for span, seconds in own.items():
        m[SELF_TIME_METRIC[span]] += seconds
    wall = rec.wall_seconds()
    total = sum(m.values())
    if abs(total - wall) > 1e-6 * wall:
        raise RuntimeError(f"self times sum to {total} s but the traced pass took {wall} s")

    def ratio(a, b):
        return a / b if b else 0.0

    m.update({
        "stream.pframe_us": 1e6 * ratio(own.get("stream.pframe", 0.0), calls["stream.pframe"]),
        "stream.iframe_us": 1e6 * ratio(own.get("stream.iframe", 0.0), calls["stream.iframe"]),
        "stream.frames": calls["stream.pframe"] + calls["stream.iframe"],
        "filtering.groups": c["filtering.groups"],
        "filtering.groups_kept": c["filtering.groups_kept"],
        "filtering.keep_ratio": ratio(c["filtering.groups_kept"], c["filtering.groups"]),
        "filtering.seeds": c["filtering.seeds"],
        "filtering.promoted": c["filtering.promoted"],
        "filtering.promote_ratio": ratio(c["filtering.promoted"], c["filtering.classified"]),
        "intra.calls": calls["intra.partial"] + calls["intra.full"],
        "intra.blocks": c["intra.blocks"],
        "intra.us_per_kblock": 1e9 * ratio(m["intra.decode_s"], c["intra.blocks"]),
        "refinement.attempts": c["refinement.attempts"],
        "refinement.refined_ratio": ratio(c["refinement.refined"], c["refinement.attempts"]),
        "occlusion.hue_calls": calls["occlusion.hue"],
        "occlusion.match_calls": calls["occlusion.match"],
        "pipeline.records": len(result.records),
        "pipeline.events": len(result.events),
        "pipeline.releases": c["pipeline.releases"],
        "trace.wall_s": wall,
    })
    return m


def run_traced(workload, stream, passes, checks, seed):
    """Alternate untraced and traced passes; report the fastest traced pass.

    ``trace.overhead`` compares the median speed-scaled totals of the two
    kinds of pass. Returns (metrics, info, ratio), metrics None when no pass
    of either kind succeeded.
    """
    from spans import GopClock, SpanRecorder

    config = workload.config()
    untraced: list[float] = []  # speed-scaled totals
    traced: list[tuple[float, dict]] = []  # (wall seconds, layer metrics)
    traced_costs: list[float] = []
    recorders = []
    ratio = None
    t_start = time.perf_counter()
    while keep_measuring(done := checks.attempted - checks.references, passes, t_start):
        if done % 2 == 0:
            clock = GopClock()
            if checks.sample(f"untraced pass {checks.attempted}",
                             lambda: timed_pass(stream, config, clock)) is not None:
                untraced.append(sum(clock.costs()))
            continue
        rec = SpanRecorder()

        def on_emit(_after, _batch, c=rec.counts):
            c["pipeline.releases"] += 1

        result = checks.sample(f"traced pass {checks.attempted}",
                               lambda: timed_pass(stream, config, rec, on_emit))
        if result is not None:
            traced.append((rec.wall_seconds(), layer_metrics(rec, result)))
            traced_costs.append(sum(rec.costs()))
            ratio = result.metrics["blocks_decoded_ratio"]
            recorders.append(rec)
    info = {"passes": checks.attempted - checks.references}
    if not traced or not untraced:
        return None, info, ratio

    missing = [name for name in workload.must_run
               if not any(name in rec.names for rec in recorders)]
    if missing:
        raise RuntimeError(f"traced passes never entered {missing}: the pipeline no longer "
                           "calls the patched names; update bench/spans.py")

    metrics = min(traced, key=lambda t: t[0])[1]
    metrics["trace.overhead"] = (statistics.median(traced_costs)
                                 / statistics.median(untraced) - 1.0)
    spans_path = os.path.join(WORK, f"spans-{workload.name}-{seed}.jsonl")
    with open(spans_path, "w", encoding="utf-8") as f:
        for n, rec in enumerate(recorders):
            rec.write_jsonl(f, n)
    info["spans_file"] = os.path.relpath(spans_path, ROOT)
    return metrics, info, ratio


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True,
                    help="recorded with the result; the inputs are fixed")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--frames", type=int, default=None,
                    help="shorten the stream to this many frames (smoke checks)")
    args = ap.parse_args(argv)

    load_program()
    from workloads import NOISE_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    declared = declared_metrics()
    wanted = declared["per_layer" if args.trace else "end_to_end"]

    stream, setups = set_up(workload, args.frames)
    setup_times = [r["seconds"] for r in setups]
    checks = Checks(full_decode=workload.full_decode)
    # Peak memory is the growth of the high-water mark over every pass this
    # process makes; set-up ran in child processes and does not count.
    rss_before = max_rss_mb()
    try:
        if workload.full_decode:
            checks.partial_reference(stream)
        if args.trace:
            passes = pass_count(workload, args.seconds, args.frames, MIN_TRACED_RUN_PASSES)
            metrics, info, ratio = run_traced(workload, stream, passes, checks, args.seed)
        else:
            passes = pass_count(workload, args.seconds, args.frames, MIN_PASSES)
            metrics, info, ratio = run_untraced(workload, stream, passes, checks, rss_before)
    finally:
        for path in (stream.path, stream.path + ".truth.jsonl"):
            if os.path.exists(path):
                os.remove(path)

    print(f"workload {workload.name}, seed {args.seed}, noise seed {NOISE_SEED}, "
          f"trace {args.trace}: {stream.frames} frames, {stream.mb:.1f} MB stream, "
          f"set-ups {[round(t, 3) for t in setup_times]} s "
          f"(wall {[round(r['wall_s'], 3) for r in setups]} s), "
          + ", ".join(f"{k} {v}" for k, v in info.items()))
    for note in checks.notes:
        print(f"  check failed: {note}")
    if metrics is None:
        # Every pass failed: report the counts, with nothing measured.
        print(json.dumps({"correct": False, "attempted": checks.attempted,
                          "failed": checks.failed, "metrics": {}}))
        return 1

    q = quality(stream, checks, ratio)
    if args.trace:
        metrics["scene.synthesize_s"] = statistics.median(setup_times)
        metrics["scene.stream_mb"] = stream.mb
        metrics.update({f"quality.{k}": v for k, v in q.items()})
    else:
        metrics["setup_s"] = statistics.median(setup_times)
    for name, unit in wanted.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    if not args.trace:
        print(f"  (gop_tail_ms is p{GOP_TAIL_PERCENTILE} of {info['gops']} GOP costs, "
              f"{info['gops_beyond_tail']} beyond it)")
        for k, v in q.items():
            print(f"  {k} = {v:.6g} {declared['per_layer'][f'quality.{k}']}")

    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in wanted.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
