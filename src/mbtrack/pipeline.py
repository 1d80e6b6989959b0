"""End-to-end tracking over an MBFS stream.

Per P-frame: cluster non-skip macroblocks, filter implausible groups,
and advance the entity state machine. Per I-frame: partially decode a
predicted region per tracked object, all in one batch, release the
I-frame payload that was read for that batch alone (its tiles own their
pixels, so refinement runs without it), re-measure each blob against the
reference background, rewrite the GOP's P-frame blobs by interpolation,
and take each refined real object's hue histogram, which holds the
blob's masked pixels until something reads it. The entity tracker takes
those hues in one call (``EntityTracker.observe_iframe``), which
refreshes the appearance priors and resolves any pending post-occlusion
identities; only the histograms such a resolution reads are binned.

The entity tracker makes every lifecycle decision, and the pipeline
follows its state, not its events. The one event it reads is
``identity_assigned``: a rename leaves no trace in state.

``Tracker`` runs one pass: ``feed(frame)`` returns the records the frame
released, ``finish()`` the rest. ``live`` is only a flush policy over
the same processing. By default output is GOP-delayed: records for a
frame are released only once its GOP's terminating I-frame has been
processed. ``live=True`` releases every P-frame's records at once, so
later rewrites and identity re-keying no longer reach them.
``run_tracker`` collects a whole stream's releases.
"""

from __future__ import annotations

import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field

import numpy as np

from .filtering import (
    EntityTracker,
    Label,
    PsmfConfig,
    TrackEvent,
    cluster_blocks,
    spatial_filter,
)
from .intra import PixelTile, block_region, decode_full
# The batch decoder under the one-rect name: the benchmark's trace patches
# ``mbtrack.pipeline:decode_region_partial`` and reads ``out[1].blocks_decoded``.
from .intra import decode_regions_partial as decode_region_partial
from .occlusion import greedy_pairs, hue_histogram, match_identities
from .refinement import BlobFeature, RefineConfig, refine_object, refine_rect
from .scene import GroundTruthRecord, read_jsonl, write_jsonl
from .stream import Demand, open_source, read_stream


@dataclass
class TrackerConfig:
    psmf: PsmfConfig = field(default_factory=PsmfConfig)
    refine: RefineConfig = field(default_factory=RefineConfig)
    full_decode: bool = False  # decode whole I-frames instead of regions
    live: bool = False  # emit per frame instead of per GOP


@dataclass
class TrackRecord:
    """One tracked blob at one frame."""

    frame_index: int
    object_id: int
    cx: float
    cy: float
    h: float
    w: float
    state: str  # "Candidate", "Real", "Occluded"
    refined: bool

    @classmethod
    def from_blob(cls, frame_index: int, object_id: int, blob: BlobFeature,
                  state: str, refined: bool = False) -> "TrackRecord":
        return cls(frame_index, object_id, float(blob.cx), float(blob.cy),
                   float(blob.h), float(blob.w), state, refined)

    @property
    def blob(self) -> BlobFeature:
        return BlobFeature(self.cx, self.cy, self.h, self.w)

    def set_blob(self, blob: BlobFeature) -> None:
        self.cx = float(blob.cx)
        self.cy = float(blob.cy)
        self.h = float(blob.h)
        self.w = float(blob.w)

    def to_json_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrackResult:
    records: list[TrackRecord]
    events: list[TrackEvent]
    metrics: dict
    header: object


# Per P-frame: cluster, filter, step (EntityTracker.step) and emit (following
# the step's units, recording this frame's blobs and releasing records).
STAGES = ("parse", "cluster", "filter", "step", "emit", "partial_decode", "subtract",
          "interpolate", "occlusion")

_STATE = {Label.CANDIDATE: "Candidate", Label.REAL: "Real"}


@dataclass
class _Unit:
    """Pipeline state of one id the entity tracker follows.

    It lives exactly as long as the id does: ``Tracker`` rebuilds its units
    after every step from the tracker's ids, so a merged, dropped or retired
    id loses its unit with no event handled, and a new id gets one anchored
    at the region it first has.

    A candidate's unit holds only ``held``, its region at each P-frame.
    Most candidates retire as noise, so their blobs and records are built
    only once they are promoted (``Tracker._pframe``).
    """

    anchor: tuple[int, BlobFeature, bool] | None = None  # (frame, blob, refined) to
    # interpolate from; None while a candidate
    blobs: list[tuple[int, BlobFeature]] = field(default_factory=list)  # this GOP's
    records: dict[int, TrackRecord] = field(default_factory=dict)  # unreleased, by frame
    held: list[tuple[int, np.ndarray]] = field(default_factory=list)  # a candidate's
    # (frame, region keys), until it is promoted
    built: tuple[np.ndarray, BlobFeature] | None = None  # the last region given a
    # macroblock blob, and that blob

    def blob_of(self, region: np.ndarray) -> BlobFeature:
        """The macroblock blob of ``region``, built only when it is not the
        array the last one was built from. Region arrays are never written
        (``cluster_blocks``), and ``built`` keeps the last one alive, so the
        same object is the same region."""
        if self.built is None or self.built[0] is not region:
            self.built = (region, BlobFeature.from_grid_region(region))
        return self.built[1]


class Tracker:
    """One tracking pass over an MBFS stream, fed one frame at a time.

    ``feed(frame)`` processes a frame and returns the records it released,
    sorted by (frame, id); ``finish()`` returns the rest at end of stream.
    ``background`` is the stream's ``BackgroundChunk``, or None to take the
    first I-frame as the reference. ``events`` grows as frames are fed.
    ``last_index`` is the frame being fed, which every event it logs carries.
    """

    def __init__(self, header, background, config: TrackerConfig | None = None):
        self.header = header
        self.background = background.rgb if background is not None else None
        self.cfg = config or TrackerConfig()
        self.tracker = EntityTracker(self.cfg.psmf)
        self.units: dict[int, _Unit] = {}
        self.events: list[TrackEvent] = []
        self.pending: list[TrackRecord] = []  # committed, not yet released
        self.timers = {s: 0.0 for s in STAGES}
        self.decoded_blocks = 0
        self.total_blocks = 0
        self.last_index = 0
        self._clock = 0.0  # perf_counter at the last lap
        self._planned = None  # the next I-frame's _plan, made by iframe_regions

    def feed(self, frame) -> list[TrackRecord]:
        """Process the next frame; return the records it released."""
        self._clock = time.perf_counter()
        i = self.last_index = frame.frame_index
        planned, self._planned = self._planned, None  # made for this frame only
        if frame.kind == "I":
            if self.background is None:
                # No reference shipped: the first I-frame is the reference.
                self.background = decode_full(frame.intra_payload)
                self._lap("partial_decode")
            self._iframe(frame, planned)
        else:
            self._pframe(frame)
        # The flush policy. GOP mode releases at each I-frame everything
        # before it, once refinement has rewritten its GOP; live mode
        # releases at each P-frame everything up to it and rewrites nothing
        # already released.
        released = []
        if self.cfg.live == (frame.kind == "P"):
            released = self._release(i + 1 if self.cfg.live else i)
        self._lap("emit")
        return released

    def finish(self) -> list[TrackRecord]:
        """End of stream: log what stays unresolved; return every record left."""
        for oid in sorted(self.tracker.occlusions):
            if self.tracker.occlusions[oid].confirmed_split:
                self._emit("identity_unresolved", occlusion_id=oid)
        for uid, state, _ in self._tracked():
            if state == "Candidate":
                self._emit("candidate_dropped_eos", object_id=uid)
        return self._release(None)

    def _lap(self, stage: str) -> None:
        """Charge the time since the last lap, or since ``_clock`` was set, to ``stage``."""
        now = time.perf_counter()
        self.timers[stage] += now - self._clock
        self._clock = now

    def _emit(self, kind: str, **data) -> None:
        self.events.append(TrackEvent(self.last_index, kind, data))

    # -- units and records ---------------------------------------------------

    def _tracked(self):
        """(id, record state, region) of every id the tracker follows: its
        entities, then its occlusions that have not split."""
        tr = self.tracker
        for eid in sorted(tr.entities):
            e = tr.entities[eid]
            yield eid, _STATE[e.label], e.region
        for oid in sorted(tr.occlusions):
            o = tr.occlusions[oid]
            if not o.confirmed_split:  # fragments are real objects now; they emit
                yield oid, "Occluded", o.region

    def _commit(self, unit: _Unit, rec: TrackRecord) -> None:
        self.pending.append(rec)
        unit.records[rec.frame_index] = rec

    def _release(self, upto_frame: int | None) -> list[TrackRecord]:
        """Pending records with frame < upto_frame (None = all), sorted."""
        if upto_frame is None:
            batch, self.pending = self.pending, []
        else:
            batch = [r for r in self.pending if r.frame_index < upto_frame]
            self.pending = [r for r in self.pending if r.frame_index >= upto_frame]
        batch.sort(key=lambda r: (r.frame_index, r.object_id))
        for r in batch:
            unit = self.units.get(r.object_id)
            if unit is not None:
                unit.records.pop(r.frame_index, None)
        return batch

    # -- P-frame -------------------------------------------------------------

    def _pframe(self, frame) -> None:
        """Step the tracker, then give the units to the ids it follows and
        record each one's macroblock blob here; a candidate only holds its
        region. A unit that holds frames on an id that is no longer a
        candidate was promoted at this step: its held frames become its
        blobs, anchor and Candidate records, unless it is a fragment, whose
        past the occlusion's records cover. A blob is built only when the
        unit's region is a new array (``_Unit.blob_of``): a unit without
        support, or frozen in an occlusion, carries the same array, and
        so the same blob, from frame to frame."""
        # What follows the step is emit time, charged by feed after the release.
        i = self.last_index
        groups = cluster_blocks(frame)
        self._lap("cluster")
        active = spatial_filter(groups, enabled=self.cfg.psmf.enable_spatial_filter)
        self._lap("filter")
        self.events.extend(self.tracker.step(active, i))
        self._lap("step")
        units = {}
        for uid, state, region in self._tracked():
            unit = units[uid] = self.units.get(uid) or _Unit()
            if state == "Candidate":
                unit.held.append((i, region))
                continue
            if unit.held:  # promoted at this step
                if self.tracker.entities[uid].fragment_of is None:
                    unit.blobs = [(f, unit.blob_of(r)) for f, r in unit.held]
                    unit.anchor = (*unit.blobs[0], False)
                    for f, blob in unit.blobs:
                        self._commit(unit, TrackRecord.from_blob(f, uid, blob, "Candidate"))
                unit.held = []  # a fragment's unit is then empty, as a fresh one
            blob = unit.blob_of(region)
            if unit.anchor is None:
                unit.anchor = (i, blob, False)
            unit.blobs.append((i, blob))
            self._commit(unit, TrackRecord.from_blob(i, uid, blob, state))
        self.units = units

    # -- I-frame ---------------------------------------------------------------

    def iframe_regions(self) -> list[tuple[int, int, int, int]] | None:
        """The (bx0, by0, nbx, nby) block regions that the next I-frame will
        decode, or None when it decodes the whole frame: under full decode,
        and at the first I-frame of a stream with no background chunk.
        The plan is kept for that I-frame's ``feed``, which decodes it and
        then releases the payload (``IntraPayload.release``): one read for
        these regions serves this tracker alone. The reader asks as it
        reaches the I-frame: the time up to the call is parse time, the
        planning is decode time."""
        self._lap("parse")
        regions = None
        if not (self.cfg.full_decode or self.background is None):
            self._planned = self._plan()
            regions = [block_region(rect) for rect in self._planned[1]]
        self._lap("partial_decode")
        return regions

    def _plan(self):
        """(id, state, unit) of every unit the next I-frame refines, and the
        rect decoded for each. Every unit's rect is known before any
        refinement runs: ``refine_rect`` reads only unit state."""
        plans = [(uid, state, self.units[uid])
                 for uid, state, _ in self._tracked() if state != "Candidate"]
        frame_w, frame_h = self.header.width_px, self.header.height_px
        return plans, [refine_rect(u.blobs, u.anchor, frame_w, frame_h) for *_, u in plans]

    def _iframe(self, frame, planned=None) -> None:
        payload = frame.intra_payload
        self.total_blocks += payload.blocks_per_plane

        # One batch decodes every unit's rect; full decode is a batch of one
        # full frame.
        plans, rects = planned if planned is not None else self._plan()
        frame_w, frame_h = self.header.width_px, self.header.height_px
        batch = [(0, 0, frame_w, frame_h)] if self.cfg.full_decode else rects
        tiles = []
        if batch:
            tiles, stats = decode_region_partial(payload, batch, self.background)
            self.decoded_blocks += stats.blocks_decoded
        if planned is not None:
            # The payload was read for this plan alone and the tiles own
            # their planes: its bands are freed before refinement runs.
            payload.release()
        if self.cfg.full_decode:
            tiles = [PixelTile((x, y, w, h), tiles[0].pixels[y : y + h, x : x + w])
                     for x, y, w, h in rects]
        self._lap("partial_decode")

        hues = {}
        for plan, tile in zip(plans, tiles):
            hue = self._refine_unit(*plan, tile)
            if hue is not None:
                hues[plan[0]] = hue

        events = self.tracker.observe_iframe(self.last_index, hues, match_identities)
        self.events.extend(events)
        for ev in events:
            if ev.kind == "identity_assigned":
                # The fragment's unit carries on under the member's id.
                for fid, mid in ev.data["assignment"].items():
                    unit = self.units[mid] = self.units.pop(int(fid))
                    for rec in unit.records.values():
                        rec.object_id = mid
        self._lap("occlusion")

    def _refine_unit(self, uid, state, unit: _Unit, tile):
        """Refine one unit's blob from its tile and rewrite its GOP; return
        the blob's (not yet binned) hue if the unit is a real entity that
        refined, else None."""
        i = self.last_index
        result = refine_object(tile, self.background, self.cfg.refine,
                               unit.blobs, unit.anchor, i)
        self._lap("subtract")

        if not result.refined:
            # Nothing survived subtraction; this GOP keeps macroblock geometry.
            self._emit("subtraction_empty", object_id=uid)
        elif result.rewrites and not unit.anchor[2]:  # the anchor was not refined
            self._emit("unanchored_interpolation", object_id=uid, anchor_frame=unit.anchor[0])
        for f, blob in result.rewrites.items():  # none unless refined
            rec = unit.records.get(f)
            if rec is not None:
                rec.set_blob(blob)
                rec.refined = True
        self._commit(unit, TrackRecord.from_blob(i, uid, result.blob, state,
                                                 refined=result.refined))
        unit.anchor = (i, result.blob, result.refined)
        unit.blobs = []
        self._lap("interpolate")

        hue = hue_histogram(tile, result.mask) if state == "Real" and result.refined else None
        # Hue exists for identity priors, so it counts as occlusion work, as
        # does the binning that a match in observe_iframe does on reading it.
        self._lap("occlusion")
        return hue


def run_tracker(source, config: TrackerConfig | None = None,
                on_emit=None) -> TrackResult:
    """Track every object in an MBFS stream.

    source: bytes, a path, or a binary file object. A path or file object
    is streamed frame by frame, never read whole, so apart from the records
    and events it returns, memory does not grow with the length of the
    stream. The source is read through a ``Demand`` that asks the tracker
    for each I-frame's regions (``Tracker.iframe_regions``), so of bytes
    or a file only the block rows it will decode are read, and each such
    payload is freed as soon as its batch is decoded, before refinement;
    the reader reads a source that cannot seek, such as a pipe, whole and
    never asks. Returns records, events, and run metrics.
    ``on_emit(after_frame, batch)`` observes each release of buffered
    records as it happens, so a ``StreamError`` raised later leaves every
    earlier batch with the caller.
    """
    records: list[TrackRecord] = []

    def collect(after_frame: int, batch: list[TrackRecord]) -> None:
        if batch:
            records.extend(batch)
            if on_emit is not None:
                on_emit(after_frame, batch)

    with open_source(source) as source:
        t_start = time.perf_counter()
        # The frames are read lazily, so the tracker made below exists by
        # the time the reader asks for the first I-frame's regions.
        header, background, frames = read_stream(
            Demand(source, lambda: tracker.iframe_regions()))
        tracker = Tracker(header, background, config)
        tracker._clock = t_start
        tracker._lap("parse")
        while True:
            # on_emit's time, between feed's last lap and here, is no stage's.
            tracker._clock = time.perf_counter()
            frame = next(frames, None)
            tracker._lap("parse")
            if frame is None:
                break
            collect(frame.frame_index, tracker.feed(frame))
    collect(tracker.last_index, tracker.finish())
    total = time.perf_counter() - t_start

    metrics = {
        "frame_count": header.frame_count,
        "total_seconds": total,
        "frames_per_second": header.frame_count / total if total > 0 else float("inf"),
        "blocks_decoded_ratio": (
            tracker.decoded_blocks / tracker.total_blocks if tracker.total_blocks else 0.0
        ),
        "stage_seconds": dict(tracker.timers),
        "evaluation": None,
    }
    return TrackResult(records=records, events=tracker.events, metrics=metrics,
                       header=header)


# -- evaluation ---------------------------------------------------------------


def evaluate(records: list[TrackRecord], truth: list[GroundTruthRecord],
             gop_len: int) -> dict:
    """Compare tracker output against ground truth.

    Per frame, tracked records are matched to ground-truth objects one to
    one by ``occlusion.greedy_pairs``, in ascending center distance (ties:
    lower truth id, then lower track id, then record order; a record id
    that repeats in a frame matches at most once). Center error and overlap are measured over
    matches; identity switches count id changes over Real-state matches
    per truth object; detection latency counts the P-frames between an
    object's first visible frame and its first Real-state match.
    """
    by_frame_recs: dict[int, list[TrackRecord]] = defaultdict(list)
    for r in records:
        by_frame_recs[r.frame_index].append(r)
    by_frame_truth: dict[int, list[GroundTruthRecord]] = defaultdict(list)
    for g in truth:
        by_frame_truth[g.frame_index].append(g)

    matches: dict[int, list[tuple[int, TrackRecord, float]]] = defaultdict(list)
    for f in sorted(by_frame_truth):
        recs = by_frame_recs.get(f, [])
        gts = by_frame_truth[f]
        for dist, gid, _, r in greedy_pairs(sorted(
            ((float(np.hypot(r.cx - g.cx, r.cy - g.cy)), g.object_id, r.object_id, r)
             for g in gts for r in recs), key=lambda t: t[:3])):
            matches[gid].append((f, r, dist))

    per_object = {}
    all_errors: list[float] = []
    all_ious: list[float] = []
    id_switches = 0
    first_visible = {g: min(r.frame_index for r in truth if r.object_id == g)
                     for g in {r.object_id for r in truth}}

    for gid in sorted(first_visible):
        ms = matches.get(gid, [])
        errors = [d for _, _, d in ms]
        ious = []
        for f, r, _ in ms:
            gt = next(g for g in by_frame_truth[f] if g.object_id == gid)
            ious.append(r.blob.iou(BlobFeature(gt.cx, gt.cy, gt.h, gt.w)))
        real_ms = [(f, r) for f, r, _ in ms if r.state == "Real"]
        switches = sum(
            1 for (_, a), (_, b) in zip(real_ms, real_ms[1:])
            if a.object_id != b.object_id
        )
        id_switches += switches

        latency = None
        if real_ms:
            first_real = min(f for f, _ in real_ms)
            f0 = first_visible[gid]
            latency = sum(1 for f in range(f0 + 1, first_real + 1) if f % gop_len != 0)

        per_object[gid] = {
            "matched_frames": len(ms),
            "mean_center_error": float(np.mean(errors)) if errors else None,
            "max_center_error": float(np.max(errors)) if errors else None,
            "mean_iou": float(np.mean(ious)) if ious else None,
            "id_switches": switches,
            "detection_latency_pframes": latency,
            "matched_track_ids": sorted({r.object_id for _, r, _ in ms}),
        }
        all_errors.extend(errors)
        all_ious.extend(ious)

    return {
        "per_object": per_object,
        "mean_center_error": float(np.mean(all_errors)) if all_errors else None,
        "max_center_error": float(np.max(all_errors)) if all_errors else None,
        "mean_iou": float(np.mean(all_ious)) if all_ious else None,
        "id_switch_count": id_switches,
        "real_track_ids": sorted({r.object_id for r in records if r.state == "Real"}),
    }


# -- serialization helpers ------------------------------------------------------


def write_records_jsonl(records: list[TrackRecord], path) -> None:
    write_jsonl(records, path)


def write_events_jsonl(events: list[TrackEvent], path) -> None:
    write_jsonl(events, path)


def load_records_jsonl(path) -> list[TrackRecord]:
    """Read records JSONL (see ``scene.read_jsonl``)."""
    return read_jsonl(path, lambda d: TrackRecord(
        frame_index=int(d["frame_index"]), object_id=int(d["object_id"]),
        cx=float(d["cx"]), cy=float(d["cy"]), h=float(d["h"]), w=float(d["w"]),
        state=str(d["state"]), refined=bool(d["refined"])))
