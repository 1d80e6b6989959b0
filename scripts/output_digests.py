"""Digest the tracker's outputs over a fixed matrix of runs, for refactors
that must not change them.

For each run it prints the sha256 of the records JSONL, the events JSONL
and the sequence of ``on_emit`` batches, as one JSON object keyed by run
name; the benchmark workloads also get the sha256 of ``evaluate``'s JSON.
Every run is made in GOP and in live mode. Each stream the matrix builds
also gets three parse digests, under ``<run>/parse``, of the stream read
whole by ``read_stream``: ``pframes``, the sha256 of every P-frame's
``skip``, ``coeff_mask`` and ``mv_qpel`` bytes; ``groups``, the sha256
of every P-frame's ``cluster_blocks`` output, each group's key bytes,
size and coefficient flag; and ``iframes``, the sha256 of every I-frame's
pixels as ``decode_full`` gives them. Records and events never read
``mv_qpel`` and read ``coeff_mask`` only as nonzero, see groups only
through the spatial filter, which drops most of them, and read I-frame
pixels only through what refinement derives from them, so only the parse
digests see a payload decoded into the wrong field, a clustering change
the filter hides, or a decoder that gets some pixels wrong. The parse
digests are over the parsed arrays, read through the public API only,
never over stream bytes, so they compare trees whose grids are built
differently, or whose wire layouts differ. Run it once per tree and
compare the two outputs:

    PYTHONPATH=<old tree>/src python3 scripts/output_digests.py > digests.json
    PYTHONPATH=<new tree>/src python3 scripts/output_digests.py --against digests.json

With ``--against FILE`` it prints each run and stream whose digests
differ from, or are missing in, the saved file, and exits 1 on any
difference. Either way it ends by printing to stderr how many events of
each kind the matrix emitted, so that a reader can see which kinds the
events digests cover.

``run_tracker`` always reads through a ``Demand``, which reads a
seekable source, bytes included, sparsely: each I-frame only in the
block rows it will decode. So every run of a benchmark workload's stream
is also tracked from an unseekable buffered pipe (``Pipe`` of
``tests/test_stream.py``), whose ``Demand`` the reader reads whole
without asking for regions, and the script exits 1 if those digests
differ from the seekable run's. The whole-read path under tracking then
stays covered as well.

The scenes come from the scene catalogue, ``tests/scenes.py``, and the
workloads from ``bench/workloads.py``, of the checkout this script sits
in, so both trees are fed the same scenes; only ``mbtrack`` comes from
PYTHONPATH, and each tree synthesizes its streams with its own writer.
The ``lanes-noisy`` stream is also tracked rewritten without its
background chunk, so that the tracker takes its background from the
first I-frame's full decode. The ``scale`` scene tracks 48 objects at
once, so every P-frame meets many groups and many units. In the ``edges``
scene objects enter through the frame's left and top edges and leave
through its right and bottom edges, so decode rects are clipped by the
frame and foreground boxes touch the tile's edges.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "tests")]

from mbtrack.filtering import PsmfConfig, cluster_blocks  # noqa: E402
from mbtrack.intra import decode_full  # noqa: E402
from mbtrack.pipeline import TrackerConfig, evaluate, run_tracker  # noqa: E402
from mbtrack.scene import synthesize  # noqa: E402
from mbtrack.stream import read_stream  # noqa: E402
from scenes import (  # noqa: E402
    NOISE_SEED, criterion_4_script, crossing_scene, crossing_script, edges_script,
    lanes_script, noise_script, pair_script, scale_script, without_background)
from test_stream import Pipe  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def synthesized(script):
    """A thunk for the (stream bytes, truth) of the script thunk ``script``."""
    return lambda: synthesize(script())


def runs():
    """(name, stream thunk, config, evaluated) for every run but the mode."""
    for w in WORKLOADS.values():
        for full in (False, True):
            yield (f"{w.name}/{'full' if full else 'partial'}", synthesized(w.script),
                   TrackerConfig(full_decode=full), True)
    for seed in (0, 23, 7, 11, 42, 99, 30, 34):
        yield (f"lanes-{seed}", synthesized(lambda seed=seed: lanes_script(seed)),
               TrackerConfig(), False)
    yield "crossing-scene", synthesized(crossing_scene), TrackerConfig(), False
    yield "criterion-4", synthesized(criterion_4_script), TrackerConfig(), False
    for seed in (101, 102, 103, 104, 105):
        for objects in (False, True):
            yield (f"criterion-5-{seed}-{'objects' if objects else 'empty'}",
                   synthesized(lambda seed=seed, objects=objects: noise_script(seed, objects)),
                   TrackerConfig(), False)
    for seed in (201, 202, 203, 204, 205):
        yield (f"criterion-6-{seed}", synthesized(lambda seed=seed: crossing_script(seed)),
               TrackerConfig(), False)
    for full in (False, True):
        yield (f"criterion-8/{'full' if full else 'partial'}",
               synthesized(lambda: pair_script(0)), TrackerConfig(full_decode=full), False)
    for stale in (0, 2):
        config = TrackerConfig(psmf=PsmfConfig(stale_limit=stale))
        yield f"crossing-scene/stale-{stale}", synthesized(crossing_scene), config, False
        yield (f"lanes-{NOISE_SEED}/stale-{stale}",
               synthesized(lambda: lanes_script(NOISE_SEED)), config, False)
    yield (f"lanes-{NOISE_SEED}-800", synthesized(lambda: lanes_script(NOISE_SEED, 800)),
           TrackerConfig(), False)
    # Candidate churn on empty canvases beyond the benchmark's noise seed, and
    # the unfiltered ablation, where every group's region is read.
    for seed in (23, 7):
        yield (f"lanes-{seed}-empty",
               synthesized(lambda seed=seed: lanes_script(seed, objects=False)),
               TrackerConfig(), False)
    noise = WORKLOADS["noise-only"]
    yield (f"{noise.name}/no-spatial-filter", synthesized(noise.script),
           TrackerConfig(psmf=PsmfConfig(enable_spatial_filter=False)), True)
    lanes = WORKLOADS["lanes-noisy"]
    for full in (False, True):
        yield (f"{lanes.name}-no-background/{'full' if full else 'partial'}",
               lambda: without_background(lanes.script()), TrackerConfig(full_decode=full),
               True)
    for full in (False, True):
        yield (f"scale/{'full' if full else 'partial'}", synthesized(scale_script),
               TrackerConfig(full_decode=full), False)
    for full in (False, True):
        yield (f"edges/{'full' if full else 'partial'}", synthesized(edges_script),
               TrackerConfig(full_decode=full), False)


def sha(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode() + b"\n")
    return h.hexdigest()


def as_json(x) -> str:
    return json.dumps(x, sort_keys=True)


def digest(data, truth, config: TrackerConfig, evaluated: bool, kinds: Counter) -> dict:
    """The run's digests over ``data``, stream bytes or a file object; adds
    the count of each event kind it emitted to ``kinds``."""
    batches = []
    result = run_tracker(data, config, on_emit=lambda after, batch: batches.append(
        as_json([after, [r.to_json_dict() for r in batch]])))
    kinds.update(e.kind for e in result.events)
    out = {
        "records": sha(as_json(r.to_json_dict()) for r in result.records),
        "events": sha(as_json(e.to_json_dict()) for e in result.events),
        "batches": sha(batches),
    }
    if evaluated:
        out["evaluate"] = sha([as_json(evaluate(result.records, truth,
                                                result.header.gop_len))])
    return out


def parse_digests(data: bytes) -> dict:
    """sha256 over every P-frame's skip, coeff_mask and mv_qpel bytes, over
    every P-frame's block groups, and over every I-frame's fully decoded
    pixels, with the stream read whole."""
    pframes, groups, iframes = hashlib.sha256(), hashlib.sha256(), hashlib.sha256()
    for frame in read_stream(data)[2]:
        if frame.kind == "P":
            grid = frame.mb_grid
            for a in (grid.skip, grid.coeff_mask, grid.mv_qpel):
                pframes.update(a.tobytes())
            for g in cluster_blocks(frame):
                groups.update(g.keys.astype("<i8").tobytes())
                groups.update(f"{g.size} {int(g.has_nonzero_coeff)};".encode())
            groups.update(b"\n")  # frame boundary
        else:
            iframes.update(decode_full(frame.intra_payload).tobytes())
    return {"pframes": pframes.hexdigest(), "groups": groups.hexdigest(),
            "iframes": iframes.hexdigest()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="FILE",
                        help="compare with digests saved by an earlier run")
    args = parser.parse_args()
    out = {}
    kinds = Counter()
    piped_differ = []  # workload runs whose digests differ when read from a pipe
    for name, stream, config, evaluated in runs():
        data, truth = stream()
        out[f"{name}/parse"] = parse_digests(data)
        for live in (False, True):
            run = f"{name}/{'live' if live else 'gop'}"
            run_config = replace(config, live=live)
            out[run] = digest(data, truth, run_config, evaluated, kinds)
            if name.split("/")[0] in WORKLOADS:
                piped = digest(io.BufferedReader(Pipe(data)), truth, run_config, evaluated,
                               Counter())
                if piped != out[run]:
                    piped_differ.append(run)
        print(f"{name}: done", file=sys.stderr)
    print(f"events over the matrix, {len(kinds)} kinds:", file=sys.stderr)
    for kind, count in sorted(kinds.items()):
        print(f"{count:>9} {kind}", file=sys.stderr)
    for run in piped_differ:
        print(f"differs when read from a pipe: {run}", file=sys.stderr)
    if args.against is None:
        print(json.dumps(out, indent=1, sort_keys=True))
        return 1 if piped_differ else 0
    saved = json.loads(Path(args.against).read_text())
    differ = [name for name in sorted(out.keys() | saved.keys())
              if out.get(name) != saved.get(name)]
    for name in differ:
        old, new = saved.get(name), out.get(name)
        what = (f"not in {args.against}" if old is None else "not run" if new is None else
                ", ".join(k for k in sorted(old.keys() | new.keys()) if old.get(k) != new.get(k)))
        print(f"differs: {name}: {what}")
    names = out.keys() | saved.keys()
    streams = {name for name in names if name.endswith("/parse")}
    changed = sum(name in streams for name in differ)
    print(f"{len(differ) - changed} of {len(names) - len(streams)} runs and {changed} of"
          f" {len(streams)} parsed streams differ from {args.against}")
    return 1 if differ or piped_differ else 0


if __name__ == "__main__":
    sys.exit(main())
