"""Command line front end: synthesize scenes and track streams.

Thin wrappers over the library; every flag maps onto a config field.

    mbtrack synth --script scene.scn --out scene.mbfs --gt gt.jsonl [--seed N]
    mbtrack track --input scene.mbfs --out traj.jsonl [--events events.jsonl]
                  [--gt gt.jsonl --metrics metrics.json] [--overlay dir/]
                  [--psi N --omega X --epsilon N --min-area N --morph-radius N]
                  [--no-spatial-filter] [--full-decode] [--live]
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .filtering import PsmfConfig
from .pipeline import (
    TrackerConfig,
    evaluate,
    run_tracker,
    write_events_jsonl,
    write_records_jsonl,
)
from .refinement import RefineConfig
from .scene import load_ground_truth, load_scene_script, synthesize_to, write_ground_truth
from .stream import StreamError, read_stream


def _check_outputs(parser, *paths) -> None:
    """A usage error for an output path whose directory does not exist, or
    that names a directory, raised before any work is done and any output
    is written."""
    for path in filter(None, paths):
        if not os.path.isdir(os.path.dirname(path) or "."):
            parser.error(f"{path}: No such file or directory")
        if os.path.isdir(path):
            parser.error(f"{path}: Is a directory")


def _check_distinct(parser, paths: dict[str, str | None]) -> None:
    """A usage error, before any work, when two of the given paths (by
    flag) name one file: an output would overwrite the input or another
    output."""
    seen: dict[str, str] = {}
    for flag, path in paths.items():
        if path:
            real = os.path.realpath(path)
            if real in seen:
                parser.error(f"{seen[real]} and {flag} name the same path: {path}")
            seen[real] = flag


def _check_output_dir(parser, path) -> None:
    """A usage error, before any work, unless ``path`` or its first existing
    ancestor is a directory, so that it can be made."""
    existing = path
    while not os.path.lexists(existing):
        existing = os.path.dirname(existing) or "."
    if not os.path.isdir(existing):
        parser.error(f"{path}: Not a directory")


def _cmd_synth(args, parser) -> int:
    _check_distinct(parser, {"--script": args.script, "--out": args.out, "--gt": args.gt})
    _check_outputs(parser, args.out, args.gt)
    try:
        script = load_scene_script(args.script)
    except OSError as exc:  # a missing or unreadable script: a usage error
        parser.error(f"{args.script}: {exc.strerror}")
    except ValueError as exc:  # a malformed script, JSON syntax included: a usage error
        parser.error(f"{args.script}: {exc}")
    if args.seed is not None:
        script.noise.rng_seed = args.seed
        try:
            script.validate()
        except ValueError as exc:
            parser.error(f"--seed: {exc}")
    with open(args.out, "wb") as f:
        truth = synthesize_to(script, f)  # frame by frame: the stream is never held whole
        size = f.tell()
    if args.gt:
        write_ground_truth(truth, args.gt)
    print(f"wrote {size} bytes to {args.out}"
          + (f", {len(truth)} truth records to {args.gt}" if args.gt else ""))
    return 0


def _cmd_track(args, parser) -> int:
    if args.overlay and not os.path.isfile(args.input):
        # A pipe or other one-pass input is spent once tracking has read it.
        parser.error("--overlay re-reads the stream, so --input must be a regular file")
    try:
        config = TrackerConfig(
            psmf=PsmfConfig(
                psi=args.psi,
                omega=args.omega,
                enable_spatial_filter=not args.no_spatial_filter,
            ),
            refine=RefineConfig(
                epsilon=args.epsilon,
                min_component_area=args.min_area,
                morph_radius=args.morph_radius,
            ),
            full_decode=args.full_decode,
            live=args.live,
        )
    except ValueError as exc:  # a parameter out of range: a usage error
        parser.error(str(exc))
    # Every output's path and directory is checked, and every input opened,
    # before any tracking or output.
    _check_distinct(parser, {"--input": args.input, "--gt": args.gt, "--out": args.out,
                             "--events": args.events, "--metrics": args.metrics,
                             "--overlay": args.overlay})
    _check_outputs(parser, args.out, args.events, args.metrics)
    if args.overlay:
        _check_output_dir(parser, args.overlay)
    try:
        truth = load_ground_truth(args.gt) if args.gt else None
        source = open(args.input, "rb")
    except OSError as exc:
        parser.error(f"{exc.filename}: {exc.strerror}")
    except ValueError as exc:  # a malformed ground-truth line
        parser.error(f"{args.gt}: {exc}")
    with source:
        try:
            if args.overlay:
                # The overlay decodes every I-frame whole, but tracking reads
                # only the blocks it decodes: check the whole stream first,
                # so that a block only the overlay reads fails before any
                # output is written.
                for _ in read_stream(source)[2]:
                    pass
                source.seek(0)
            result = run_tracker(source, config)
        except StreamError as exc:  # a malformed or truncated stream: a usage error
            parser.error(f"{args.input}: {exc}")

    write_records_jsonl(result.records, args.out)
    if args.events:
        write_events_jsonl(result.events, args.events)

    if truth is not None:
        result.metrics["evaluation"] = evaluate(
            result.records, truth, result.header.gop_len)
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as f:
            json.dump(result.metrics, f, indent=2, sort_keys=True)
            f.write("\n")

    if args.overlay:
        from .overlay import render_overlays

        paths = render_overlays(args.input, result.records, args.overlay)
        print(f"wrote {len(paths)} overlay frames to {args.overlay}")

    m = result.metrics
    print(f"{len(result.records)} records, {len(result.events)} events,"
          f" {m['frames_per_second']:.1f} frames/s,"
          f" decoded block ratio {m['blocks_decoded_ratio']:.3f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="mbtrack",
                                description="compressed-domain object tracking")
    sub = p.add_subparsers(dest="command", required=True)

    ps = sub.add_parser("synth", help="render a scene script into an MBFS stream")
    ps.add_argument("--script", required=True, help="scene script (JSON)")
    ps.add_argument("--out", required=True, help="output stream path")
    ps.add_argument("--gt", help="also write ground-truth JSONL here")
    ps.add_argument("--seed", type=int, help="override the script's noise seed")
    ps.set_defaults(func=_cmd_synth)

    pt = sub.add_parser("track", help="track objects in an MBFS stream")
    pt.add_argument("--input", required=True, help="MBFS stream path")
    pt.add_argument("--out", required=True, help="trajectory JSONL path")
    pt.add_argument("--events", help="event JSONL path")
    pt.add_argument("--gt", help="ground-truth JSONL to evaluate against")
    pt.add_argument("--metrics", help="metrics JSON path")
    pt.add_argument("--overlay", help="directory for annotated PPM frames"
                                      " (--input must be a regular file)")
    pt.add_argument("--psi", type=int, default=8,
                    help="observation window in P-frames, at least 2 (default 8)")
    pt.add_argument("--omega", type=float, default=None,
                    help="promotion threshold (default psi*ln 2)")
    pt.add_argument("--epsilon", type=int, default=25,
                    help="background subtraction threshold (default 25)")
    pt.add_argument("--min-area", type=int, default=16,
                    help="minimum surviving mask component area (default 16)")
    pt.add_argument("--morph-radius", type=int, default=1,
                    help="open/close structuring element radius (default 1)")
    pt.add_argument("--no-spatial-filter", action="store_true",
                    help="keep single-block and coefficient-free groups")
    pt.add_argument("--full-decode", action="store_true",
                    help="decode whole I-frames instead of predicted regions")
    pt.add_argument("--live", action="store_true",
                    help="emit records per frame instead of per GOP")
    pt.set_defaults(func=_cmd_track)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
