"""The tracking pass as it was before ``pipeline.Tracker``: the reference
that ``Tracker`` and ``run_tracker`` are checked against.

``_Run`` kept its per-id state in five parallel maps (candidate buffers,
frame -> record maps, GOP blobs, anchors and the pending list), kept in
sync by a dispatch over the events of each step, and released records
through an ``on_emit`` callback of its own. ``reference_run`` is the run
loop that drove it. It drives the reference ``EntityTracker`` of
``reference_filtering``, so the new ``Tracker`` and ``EntityTracker`` are
checked together against the old pair. ``RefineResult`` and
``refine_object`` are the ones ``_Run`` called, which also handed back
the object's id, its tile and whether its anchor was refined.

One departure: the reference ``EntityTracker``'s regions are frozensets
of ``(mx, my)`` cells, while ``BlobFeature.from_grid_region`` now takes
cell keys, so ``blob_of_cells`` keeps the tuple walk that
``from_grid_region`` made when regions were frozensets, and every blob of
this module is taken with it.
"""

from __future__ import annotations

import copy
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from mbtrack.filtering import Label, TrackEvent, cluster_blocks, spatial_filter
from mbtrack.intra import PixelTile, decode_full
from mbtrack.intra import decode_regions_partial as decode_region_partial
from mbtrack.occlusion import hue_histogram, match_identities
from mbtrack.pipeline import STAGES, TrackerConfig, TrackRecord
from mbtrack.refinement import (
    BlobFeature,
    RefineConfig,
    background_subtract,
    interpolate_blobs,
    refine_rect,
)
from mbtrack.stream import open_source, read_stream

from reference_filtering import EntityTracker


def blob_of_cells(members: frozenset) -> BlobFeature:
    """Bounding blob of a set of (mx, my) macroblock cells, in pixels."""
    xs = [mx for mx, _ in members]
    ys = [my for _, my in members]
    x0, x1 = min(xs) * 16, (max(xs) + 1) * 16
    y0, y1 = min(ys) * 16, (max(ys) + 1) * 16
    return BlobFeature(cx=(x0 + x1) / 2.0, cy=(y0 + y1) / 2.0,
                       h=float(y1 - y0), w=float(x1 - x0))


@dataclass
class RefineResult:
    """Outcome of refining one object at one I-frame."""

    object_id: int
    blob: BlobFeature  # refined, or carried forward when subtraction found nothing
    refined: bool
    tile: PixelTile | None
    mask: np.ndarray | None
    rewrites: dict[int, BlobFeature]  # frame index -> interpolated blob
    unanchored: bool  # left anchor was not a refined I-frame blob


def refine_object(object_id: int, tile: PixelTile, background: np.ndarray,
                  config: RefineConfig,
                  gop_blobs: list[tuple[int, BlobFeature]],
                  anchor: tuple[int, BlobFeature, bool],
                  iframe_index: int) -> RefineResult:
    """Refine one object at one I-frame.

    tile: this I-frame's pixels at ``refine_rect(gop_blobs, anchor, ...)``.
    gop_blobs: (frame, blob) pairs for the P-frames since the last anchor.
    anchor: (frame, blob, was_refined) to interpolate against.

    When subtraction finds nothing, the last macroblock blob (else the
    anchor's) is carried forward and no P-frame is rewritten.
    """
    mask, blob = background_subtract(tile, background, config)
    refined = blob is not None
    anchor_frame, anchor_blob, anchor_refined = anchor
    rewrites = {}
    span = iframe_index - anchor_frame
    if not refined:
        blob = gop_blobs[-1][1] if gop_blobs else anchor_blob
    elif span > 1:
        for f, _ in gop_blobs:
            if anchor_frame < f < iframe_index:
                rewrites[f] = interpolate_blobs(blob, anchor_blob, span, iframe_index - f)

    return RefineResult(
        object_id=object_id,
        blob=blob,
        refined=refined,
        tile=tile,
        mask=mask if refined else None,
        rewrites=rewrites,
        unanchored=not anchor_refined,
    )


class _Run:
    """State for one tracking pass."""

    def __init__(self, config: TrackerConfig, on_emit=None):
        self.cfg = config
        self.tracker = EntityTracker(config.psmf)
        self.events: list[TrackEvent] = []
        self.records: list[TrackRecord] = []
        self.pending: list[TrackRecord] = []
        self.candidate_buf: dict[int, list[TrackRecord]] = defaultdict(list)
        self.unit_frame_rec: dict[int, dict[int, TrackRecord]] = defaultdict(dict)
        self.gop_blobs: dict[int, list[tuple[int, BlobFeature]]] = defaultdict(list)
        self.anchors: dict[int, tuple[int, BlobFeature, bool]] = {}
        self.timers = {s: 0.0 for s in STAGES}
        self.decoded_blocks = 0
        self.total_blocks = 0
        self.on_emit = on_emit

    # -- record plumbing ---------------------------------------------------

    def _register(self, rec: TrackRecord) -> None:
        self.unit_frame_rec[rec.object_id][rec.frame_index] = rec

    def _drop_unit(self, uid: int) -> None:
        self.candidate_buf.pop(uid, None)
        self.unit_frame_rec.pop(uid, None)
        self.gop_blobs.pop(uid, None)
        self.anchors.pop(uid, None)

    def _flush(self, upto_frame: int | None, emitted_after: int) -> None:
        """Release pending records with frame < upto_frame (None = all)."""
        if upto_frame is None:
            batch = self.pending
            keep = []
        else:
            batch = [r for r in self.pending if r.frame_index < upto_frame]
            keep = [r for r in self.pending if r.frame_index >= upto_frame]
        if not batch:
            self.pending = keep
            return
        batch.sort(key=lambda r: (r.frame_index, r.object_id))
        self.records.extend(batch)
        self.pending = keep
        for r in batch:
            frames = self.unit_frame_rec.get(r.object_id)
            if frames is not None:
                frames.pop(r.frame_index, None)
        if self.on_emit is not None:
            self.on_emit(emitted_after, list(batch))

    # -- P-frame -------------------------------------------------------------

    def process_pframe(self, frame) -> None:
        timers = self.timers
        t0 = time.perf_counter()
        groups = cluster_blocks(frame)
        t1 = time.perf_counter()
        active = spatial_filter(groups, enabled=self.cfg.psmf.enable_spatial_filter)
        t2 = time.perf_counter()
        step_events = self.tracker.step(active, frame.frame_index)
        t3 = time.perf_counter()
        # Payloads as emitted: the reference tracker's region_split event
        # shares its list with the occlusion's fragment_ids, which the next
        # step edits in place.
        self.events.extend(TrackEvent(e.frame_index, e.kind, copy.deepcopy(e.data))
                           for e in step_events)
        self._apply_step_events(step_events, frame.frame_index)
        self._emit_frame_records(frame.frame_index)
        t4 = time.perf_counter()
        timers["cluster"] += t1 - t0
        timers["filter"] += t2 - t1
        timers["step"] += t3 - t2
        timers["emit"] += t4 - t3
        if self.cfg.live:
            self._flush(frame.frame_index + 1, frame.frame_index)

    def _apply_step_events(self, step_events: list[TrackEvent], frame_index: int) -> None:
        tr = self.tracker
        for ev in step_events:
            if ev.kind == "seed":
                eid = ev.data["object_id"]
                e = tr.entities[eid]
                self.anchors[eid] = (frame_index, blob_of_cells(e.region), False)
            elif ev.kind == "classified":
                eid = ev.data["object_id"]
                if ev.data["label"] == Label.REAL.value:
                    buffered = self.candidate_buf.pop(eid, [])
                    if ev.data.get("is_fragment"):
                        # The occlusion entity covered these frames already.
                        for r in buffered:
                            self.unit_frame_rec[eid].pop(r.frame_index, None)
                    else:
                        self.pending.extend(buffered)
                else:
                    self._drop_unit(eid)
            elif ev.kind in ("merged", "occluded_single", "stale_retired"):
                uid = ev.data.get("object_id", ev.data.get("fragment_id"))
                self._drop_unit(uid)
            elif ev.kind == "reunion":
                for fid in ev.data["fragment_ids"]:
                    self._drop_unit(fid)
            elif ev.kind == "occlusion_begin":
                oid = ev.data["occlusion_id"]
                o = tr.occlusions[oid]
                self.anchors[oid] = (frame_index, blob_of_cells(o.region), False)
            elif ev.kind == "occlusion_merge":
                self._drop_unit(ev.data["absorbed"])
            elif ev.kind == "disocclusion":
                for fid in ev.data["fragment_ids"]:
                    f = tr.entities[fid]
                    self.candidate_buf.pop(fid, None)  # covered by occlusion records
                    self.unit_frame_rec[fid].clear()
                    self.anchors[fid] = (
                        frame_index, blob_of_cells(f.region), False,
                    )
                    self.gop_blobs[fid] = []

    def _emit_frame_records(self, frame_index: int) -> None:
        tr = self.tracker
        for eid in sorted(tr.entities):
            e = tr.entities[eid]
            blob = blob_of_cells(e.region)
            self.gop_blobs[eid].append((frame_index, blob))
            if e.label is Label.CANDIDATE:
                rec = TrackRecord.from_blob(frame_index, eid, blob, "Candidate")
                self.candidate_buf[eid].append(rec)
                self._register(rec)
            elif e.label is Label.REAL:
                rec = TrackRecord.from_blob(frame_index, eid, blob, "Real")
                self.pending.append(rec)
                self._register(rec)
        for oid in sorted(tr.occlusions):
            o = tr.occlusions[oid]
            if o.confirmed_split:
                continue  # fragments are real objects now; they emit
            blob = blob_of_cells(o.region)
            self.gop_blobs[oid].append((frame_index, blob))
            rec = TrackRecord.from_blob(frame_index, oid, blob, "Occluded")
            self.pending.append(rec)
            self._register(rec)

    # -- I-frame ---------------------------------------------------------------

    def process_iframe(self, frame, background: np.ndarray, frame_w: int,
                       frame_h: int) -> None:
        payload = frame.intra_payload
        i = frame.frame_index
        self.total_blocks += payload.blocks_per_plane

        # Every unit's rect is known before any refinement runs, so one
        # batch decodes them all; full decode is a batch of one full frame.
        plans = [p for p in map(self._plan_unit, self._refinable_units()) if p is not None]
        rects = [refine_rect(blobs, anchor, frame_w, frame_h) for *_, blobs, anchor in plans]
        t0 = time.perf_counter()
        if self.cfg.full_decode:
            (full,), stats = decode_region_partial(
                payload, [(0, 0, frame_w, frame_h)], background)
            tiles = [PixelTile((x, y, w, h), full.pixels[y : y + h, x : x + w])
                     for x, y, w, h in rects]
            self.decoded_blocks += stats.blocks_decoded
        elif rects:
            tiles, stats = decode_region_partial(payload, rects, background)
            self.decoded_blocks += stats.blocks_decoded
        else:
            tiles = []
        self.timers["partial_decode"] += time.perf_counter() - t0

        posterior_hues: dict[int, object] = {}
        for plan, tile in zip(plans, tiles):
            self._refine_unit(*plan, tile, background, i, posterior_hues)

        t0 = time.perf_counter()
        self._resolve_pending_identities(posterior_hues, i)
        self.timers["occlusion"] += time.perf_counter() - t0

        if not self.cfg.live:
            self._flush(i, i)

    def _refinable_units(self):
        tr = self.tracker
        units = []
        for eid in sorted(tr.entities):
            e = tr.entities[eid]
            if e.label is Label.REAL:
                units.append((eid, "Real", e))
        for oid in sorted(tr.occlusions):
            o = tr.occlusions[oid]
            if not o.confirmed_split:
                units.append((oid, "Occluded", None))
        return units

    def _plan_unit(self, unit):
        """(uid, state, entity, GOP blobs, anchor) for one refinable unit,
        or None when the unit has neither blobs nor an anchor."""
        uid = unit[0]
        blobs = self.gop_blobs.get(uid, [])
        anchor = self.anchors.get(uid)
        if anchor is None:
            if not blobs:
                return None
            anchor = (blobs[0][0], blobs[0][1], False)
        if not blobs:
            blobs = [(anchor[0], anchor[1])]
        return (*unit, blobs, anchor)

    def _refine_unit(self, uid, state, entity, blobs, anchor, tile, background,
                     i, posterior_hues) -> None:
        t0 = time.perf_counter()
        result = refine_object(uid, tile, background, self.cfg.refine, blobs, anchor, i)
        self.timers["subtract"] += time.perf_counter() - t0

        if not result.refined:
            # Nothing survived subtraction; this GOP keeps macroblock geometry.
            self.events.append(TrackEvent(i, "subtraction_empty", {"object_id": uid}))
        else:
            if result.unanchored and result.rewrites:
                self.events.append(TrackEvent(i, "unanchored_interpolation",
                                              {"object_id": uid, "anchor_frame": anchor[0]}))
            t0 = time.perf_counter()
            frames_map = self.unit_frame_rec.get(uid, {})
            for f, blob in result.rewrites.items():
                rec = frames_map.get(f)
                if rec is not None:
                    rec.set_blob(blob)
                    rec.refined = True
            self.timers["interpolate"] += time.perf_counter() - t0

        rec = TrackRecord.from_blob(i, uid, result.blob, state, refined=result.refined)
        self.pending.append(rec)
        self._register(rec)

        t0 = time.perf_counter()
        if entity is not None and result.refined:
            hue = hue_histogram(result.tile, result.mask)
            entity.prior_hue = hue
            if entity.pending_identity:
                posterior_hues[uid] = hue
        # Hue exists for identity priors, so it counts as occlusion work.
        self.timers["occlusion"] += time.perf_counter() - t0

        self.anchors[uid] = (i, result.blob, result.refined)
        self.gop_blobs[uid] = []

    def _resolve_pending_identities(self, posterior_hues: dict, i: int) -> None:
        tr = self.tracker
        for oid in sorted(tr.occlusions):
            o = tr.occlusions[oid]
            if not o.confirmed_split:
                continue
            live_frags = [fid for fid in o.fragment_ids if fid in tr.entities]
            posteriors = {fid: posterior_hues[fid] for fid in live_frags
                          if fid in posterior_hues}
            priors = {mid: h for mid, h in o.prior_hues.items()
                      if h is not None and mid in tr.frozen}
            assignment, chosen = match_identities(priors, posteriors)

            # Hue capture can fail on either side (prior never taken, or the
            # fragment's mask came up empty). Leftovers pair by id order;
            # that is the only deterministic choice left.
            leftover_frags = sorted(f for f in live_frags if f not in assignment)
            leftover_members = sorted(m for m in o.member_object_ids
                                      if m in tr.frozen
                                      and m not in assignment.values())
            for fid, mid in zip(leftover_frags, leftover_members):
                assignment[fid] = mid
                self.events.append(TrackEvent(i, "identity_by_exclusion",
                                              {"fragment_id": fid, "object_id": mid}))

            for fid, mid in sorted(assignment.items()):
                frames_map = self.unit_frame_rec.pop(fid, {})
                for rec in frames_map.values():
                    rec.object_id = mid
                self.unit_frame_rec[mid].update(frames_map)
                if fid in self.anchors:
                    self.anchors[mid] = self.anchors.pop(fid)
                self.gop_blobs[mid] = self.gop_blobs.pop(fid, [])

            self.events.append(TrackEvent(i, "identity_assigned", {
                "occlusion_id": oid,
                "assignment": {str(f): m for f, m in sorted(assignment.items())},
                "distances": [
                    {"fragment_id": f, "object_id": m, "distance": d}
                    for d, f, m in chosen
                ],
            }))
            tr.resolve_identities(o, assignment, i, self.events)
            for fid, mid in assignment.items():
                member = tr.entities.get(mid)
                if member is not None and fid in posterior_hues:
                    member.prior_hue = posterior_hues[fid]

    # -- end of stream -----------------------------------------------------

    def finish(self, last_frame_index: int) -> None:
        for oid in sorted(self.tracker.occlusions):
            o = self.tracker.occlusions[oid]
            if o.confirmed_split:
                self.events.append(TrackEvent(last_frame_index, "identity_unresolved",
                                              {"occlusion_id": oid}))
        for eid in sorted(self.candidate_buf):
            self.events.append(TrackEvent(last_frame_index, "candidate_dropped_eos",
                                          {"object_id": eid}))
        self.candidate_buf.clear()
        self._flush(None, last_frame_index)


def reference_run(source, config: TrackerConfig | None = None, on_emit=None):
    """(records, events) of one reference pass over an MBFS stream."""
    config = config or TrackerConfig()
    with open_source(source) as source:
        run = _Run(config, on_emit=on_emit)
        header, background_chunk, frames = read_stream(source)
        background = background_chunk.rgb if background_chunk is not None else None
        last_index = 0
        for frame in frames:
            last_index = frame.frame_index
            if frame.kind == "I":
                if background is None:
                    # No reference shipped: the first I-frame is the reference.
                    background = decode_full(frame.intra_payload)
                run.process_iframe(frame, background, header.width_px, header.height_px)
            else:
                run.process_pframe(frame)
    run.finish(last_index)
    return run.records, run.events
