"""The entity tracker as it was while ``OcclusionGroup`` kept its own
``fragment_ids`` list: the reference that ``EntityTracker`` is checked
against.

Each occlusion stored its fragments twice, as ``fragment_of`` on the
fragment and as ``fragment_ids`` on the occlusion, and ten sites kept the
two in sync by hand. Units were keyed ``("e", id)`` / ``("o", id)``.
``Entity``, ``OcclusionGroup``, ``snapshot_prior`` and ``EntityTracker``
are copied unchanged, except that the imports the copies made inside
functions (of names now defined in this module) are dropped, and that a
reunion ends the whole split (the one departure, commented where it
is). Its ``region_split`` payload is the occlusion's own list, which
later steps edit in place, so compare its events as they are emitted.

Its evidence is the train of the same era: ``TrainRecord`` and
``occurrence_term`` are copied unchanged from the ``mbtrack.filtering``
that kept a record per observed frame and rescanned it for each term,
before the tracker kept the sum running.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from mbtrack.filtering import (
    BlockGroup,
    Label,
    TrackEvent,
    classify_entity,
)
from mbtrack.occlusion import HueHistogram


@dataclass
class TrainRecord:
    """One observed P-frame in an entity's evidence train."""

    group: frozenset  # union of supporting groups' members (may be empty)
    region: frozenset  # region after this frame (frozen copy when unsupported)
    virtual: bool


def occurrence_term(entity: Entity, i: int) -> float:
    """Negative-log evidence contributed by the entity's i-th observed frame.

    i is 1-based. The seed frame contributes nothing. Supported frames use
    the overlap fraction against the previous region; unsupported frames
    use the detection rate so far.
    """
    if not (1 <= i <= len(entity.train)):
        raise ValueError(f"ordinal {i} outside the recorded train")
    if i == 1:
        return 0.0
    rec = entity.train[i - 1]
    prev_region = entity.train[i - 2].region
    if rec.group:
        p = len(rec.group & prev_region) / len(prev_region)
    else:
        o = sum(1 for r in entity.train[:i] if r.group)
        p = o / i
    return -math.log(p)


def _canon(alias: dict, key: tuple) -> tuple:
    while key in alias:
        key = alias[key]
    return key


@dataclass
class Entity:
    """A tracked unit: candidate under evaluation, or a confirmed object."""

    id: int
    seed_frame: int
    region: frozenset
    label: Label = Label.CANDIDATE
    train: list[TrainRecord] = field(default_factory=list)
    neglog_sum: float = 0.0
    detections: int = 1  # observed frames with support; the seed counts
    observed: int = 1  # 1-based observation ordinal
    virtual_streak: int = 0
    merged_into: int | None = None
    fragment_of: int | None = None  # occlusion id while splitting
    pending_identity: bool = False  # real fragment awaiting hue matching
    prior_hue: "HueHistogram | None" = None


@dataclass
class OcclusionGroup:
    """Two or more objects tracked as one region while their blobs overlap."""

    id: int
    member_object_ids: list[int]
    prior_hues: dict[int, HueHistogram | None]
    region: frozenset = frozenset()
    start_frame: int = 0
    fragment_ids: list[int] = field(default_factory=list)
    confirmed_split: bool = False


def snapshot_prior(o: OcclusionGroup, entity: "Entity", frame_index: int,
                   events: list) -> None:
    """Record a member's last refined appearance as its identity prior."""
    o.prior_hues[entity.id] = entity.prior_hue
    if entity.prior_hue is None:
        events.append(TrackEvent(frame_index, "prior_capture_failed",
                                 {"occlusion_id": o.id, "object_id": entity.id}))


class EntityTracker:
    """Per-P-frame entity state machine over filtered block groups.

    Owns candidates, real objects, frozen occluded members, and occlusion
    groups. ``step`` consumes one P-frame's active groups and returns the
    events it produced. Identity resolution after a confirmed disocclusion
    is driven externally (it needs decoded pixels) via
    ``resolve_identities``.
    """

    def __init__(self, config: PsmfConfig | None = None):
        self.config = config or PsmfConfig()
        self.entities: dict[int, Entity] = {}  # candidates, reals, fragments
        self.frozen: dict[int, Entity] = {}  # occluded members, by id
        self.occlusions: dict[int, "OcclusionGroup"] = {}
        self._next_id = 1

    # -- id plumbing ------------------------------------------------------

    def _new_id(self) -> int:
        i = self._next_id
        self._next_id += 1
        return i

    # -- one P-frame ------------------------------------------------------

    def step(self, active_groups: list[BlockGroup], frame_index: int) -> list[TrackEvent]:
        events: list[TrackEvent] = []
        # Units merged away mid-frame are re-pointed here, so a group that
        # overlaps only the absorbed unit's old region still reaches the
        # absorber instead of seeding a duplicate.
        alias: dict[tuple, tuple] = {}

        # Region snapshot of every trackable unit. Occlusions with live
        # fragments are represented by the fragments; a confirmed split
        # has handed tracking to the (now real) fragments entirely.
        unit_region: dict[tuple, frozenset] = {}
        for e in self.entities.values():
            unit_region[("e", e.id)] = e.region
        for o in self.occlusions.values():
            if not o.fragment_ids and not o.confirmed_split:
                unit_region[("o", o.id)] = o.region

        assignments: dict[tuple, list[BlockGroup]] = defaultdict(list)
        seeds: list[BlockGroup] = []

        for g in active_groups:
            hits = sorted({
                _canon(alias, key)
                for key, region in unit_region.items()
                if g.members & region
            })
            if not hits:
                seeds.append(g)
            elif len(hits) == 1:
                assignments[hits[0]].append(g)
            else:
                target = self._resolve_collision(
                    g, hits, frame_index, alias, unit_region, assignments, events
                )
                assignments[target].append(g)

        # Seed new candidates from unclaimed groups.
        seeded_now = set()
        for g in seeds:
            e = Entity(
                id=self._new_id(),
                seed_frame=frame_index,
                region=g.members,
                train=[TrainRecord(g.members, g.members, virtual=False)],
            )
            self.entities[e.id] = e
            seeded_now.add(e.id)
            events.append(TrackEvent(frame_index, "seed", {"object_id": e.id}))

        # Advance every surviving entity (skip ones seeded this frame).
        for eid in sorted(self.entities):
            e = self.entities.get(eid)
            if e is None or eid in seeded_now:
                continue
            gs = assignments.get(("e", eid), [])
            self._advance(e, gs, frame_index, events)

        # Advance occlusion entities that track directly, then reconcile
        # fragment-based occlusions.
        for oid in sorted(self.occlusions):
            o = self.occlusions.get(oid)
            if o is None or o.confirmed_split:
                continue
            if o.fragment_ids:
                self._reconcile_fragments(o, frame_index, events)
            else:
                gs = assignments.get(("o", oid), [])
                if len(gs) >= 2:
                    self._begin_split(o, gs, frame_index, events)
                else:
                    region = frozenset().union(*(g.members for g in gs)) if gs else frozenset()
                    o.region = region if region else o.region

        return events

    # -- collision handling ------------------------------------------------

    def _entity_hits(self, hits):
        return [self.entities[k[1]] for k in hits if k[0] == "e"]

    def _resolve_collision(self, g, hits, frame_index, alias, unit_region,
                           assignments, events) -> tuple:
        """Decide who owns a group that overlaps several units."""
        # Reunion first: one group covering >= 2 candidate fragments of the
        # same occlusion means the split was transient.
        frags = defaultdict(list)
        for e in self._entity_hits(hits):
            if e.fragment_of is not None and e.label is Label.CANDIDATE:
                frags[e.fragment_of].append(e)
        for oid, fs in sorted(frags.items()):
            if len(fs) >= 2:
                o = self.occlusions[oid]
                # Departure from the copy: the reunion takes every live
                # fragment, not only the ones this group covers, and each
                # one's groups so far move to the occlusion with it. An
                # occlusion is then whole or split, never partly reunited.
                fs = [self.entities[fid] for fid in o.fragment_ids if fid in self.entities]
                union = frozenset().union(*(f.region for f in fs))
                for f in fs:
                    self._drop_fragment(o, f, alias, ("o", oid))
                    self._merge_assignments(assignments, ("e", f.id), ("o", oid))
                o.region = union
                unit_region[("o", oid)] = union
                events.append(TrackEvent(frame_index, "reunion",
                                         {"occlusion_id": oid,
                                          "fragment_ids": [f.id for f in fs]}))
                hits = sorted({_canon(alias, k) for k in hits})

        occs = [k for k in hits if k[0] == "o"]
        ents = self._entity_hits([k for k in hits if k[0] == "e"])
        reals = [e for e in ents if e.label is Label.REAL]
        cands = [e for e in ents if e.label is Label.CANDIDATE]

        if occs:
            # Everything feeding an existing occlusion joins it; extra
            # occlusions merge into the lowest-id one.
            oid = occs[0][1]
            o = self.occlusions[oid]
            for other_key in occs[1:]:
                other = self.occlusions.pop(other_key[1])
                o.member_object_ids.extend(other.member_object_ids)
                o.prior_hues.update(other.prior_hues)
                alias[other_key] = ("o", oid)
                self._merge_assignments(assignments, other_key, ("o", oid))
                events.append(TrackEvent(frame_index, "occlusion_merge",
                                         {"occlusion_id": oid, "absorbed": other_key[1]}))
            for r in reals:
                self._freeze_into_occlusion(o, r, alias, assignments, frame_index, events)
            for c in cands:
                self._absorb_candidate(c, oid, alias, assignments, ("o", oid),
                                       frame_index, events)
            return ("o", oid)

        if len(reals) >= 2:
            o = self._create_occlusion(reals, frame_index, alias, assignments, events)
            for c in cands:
                self._absorb_candidate(c, o.id, alias, assignments, ("o", o.id),
                                       frame_index, events)
            return ("o", o.id)

        if len(reals) == 1:
            r = reals[0]
            for c in cands:
                self._absorb_candidate(c, r.id, alias, assignments, ("e", r.id),
                                       frame_index, events)
            return ("e", r.id)

        # All candidates: merge into the oldest (lowest seed frame, then id).
        winner = min(cands, key=lambda e: (e.seed_frame, e.id))
        for c in cands:
            if c is not winner:
                self._absorb_candidate(c, winner.id, alias, assignments,
                                       ("e", winner.id), frame_index, events)
        return ("e", winner.id)

    @staticmethod
    def _merge_assignments(assignments, src_key, dst_key):
        if src_key in assignments:
            assignments[dst_key].extend(assignments.pop(src_key))

    def _absorb_candidate(self, c: Entity, into_id: int, alias, assignments,
                          dst_key, frame_index, events):
        c.merged_into = into_id
        del self.entities[c.id]
        alias[("e", c.id)] = dst_key
        self._merge_assignments(assignments, ("e", c.id), dst_key)
        if c.fragment_of is not None and c.fragment_of in self.occlusions:
            o = self.occlusions[c.fragment_of]
            if c.id in o.fragment_ids:
                o.fragment_ids.remove(c.id)
        events.append(TrackEvent(frame_index, "merged",
                                 {"object_id": c.id, "into": into_id}))

    def _freeze_into_occlusion(self, o, r: Entity, alias, assignments,
                               frame_index, events):
        o.member_object_ids.append(r.id)
        snapshot_prior(o, r, frame_index, events)
        r.label = Label.OCCLUDED
        self.frozen[r.id] = r
        del self.entities[r.id]
        alias[("e", r.id)] = ("o", o.id)
        self._merge_assignments(assignments, ("e", r.id), ("o", o.id))
        events.append(TrackEvent(frame_index, "occlusion_extend",
                                 {"occlusion_id": o.id, "object_id": r.id}))

    def _create_occlusion(self, reals, frame_index, alias, assignments, events):
        oid = self._new_id()
        o = OcclusionGroup(id=oid, member_object_ids=[], prior_hues={},
                           region=frozenset().union(*(r.region for r in reals)),
                           start_frame=frame_index)
        for r in reals:
            o.member_object_ids.append(r.id)
            snapshot_prior(o, r, frame_index, events)
            r.label = Label.OCCLUDED
            self.frozen[r.id] = r
            del self.entities[r.id]
            alias[("e", r.id)] = ("o", oid)
            self._merge_assignments(assignments, ("e", r.id), ("o", oid))
        self.occlusions[oid] = o
        events.append(TrackEvent(frame_index, "occlusion_begin",
                                 {"occlusion_id": oid,
                                  "member_object_ids": list(o.member_object_ids)}))
        return o

    def _drop_fragment(self, o, f: Entity, alias=None, dst_key=None):
        if f.id in o.fragment_ids:
            o.fragment_ids.remove(f.id)
        self.entities.pop(f.id, None)
        if alias is not None and dst_key is not None:
            alias[("e", f.id)] = dst_key

    # -- per-entity advance -------------------------------------------------

    def _advance(self, e: Entity, gs: list[BlockGroup], frame_index: int, events):
        union = frozenset().union(*(g.members for g in gs)) if gs else frozenset()
        supported = bool(union)
        e.region = union if supported else e.region
        e.virtual_streak = 0 if supported else e.virtual_streak + 1

        if e.label is Label.CANDIDATE:
            e.observed += 1
            if supported:
                e.detections += 1
            e.train.append(TrainRecord(union, e.region, virtual=not supported))
            e.neglog_sum += occurrence_term(e, e.observed)
            if e.observed == self.config.psi:
                self._classify(e, frame_index, events)
        elif e.label is Label.REAL:
            limit = self.config.stale_limit
            if limit is not None and e.virtual_streak > limit:
                del self.entities[e.id]
                if e.fragment_of is not None and e.fragment_of in self.occlusions:
                    o = self.occlusions[e.fragment_of]
                    if e.id in o.fragment_ids:
                        o.fragment_ids.remove(e.id)
                events.append(TrackEvent(frame_index, "stale_retired",
                                         {"object_id": e.id}))

    def _classify(self, e: Entity, frame_index: int, events):
        label = classify_entity(e, self.config)
        e.label = label
        events.append(TrackEvent(frame_index, "classified", {
            "object_id": e.id,
            "label": label.value,
            "neglog_sum": e.neglog_sum,
            "is_fragment": e.fragment_of is not None,
        }))
        if label is Label.BACKGROUND:
            del self.entities[e.id]
            if e.fragment_of is not None and e.fragment_of in self.occlusions:
                o = self.occlusions[e.fragment_of]
                if e.id in o.fragment_ids:
                    o.fragment_ids.remove(e.id)

    # -- occlusion split lifecycle -----------------------------------------

    def _begin_split(self, o, gs: list[BlockGroup], frame_index: int, events):
        frag_ids = []
        for g in gs:
            f = Entity(
                id=self._new_id(),
                seed_frame=frame_index,
                region=g.members,
                train=[TrainRecord(g.members, g.members, virtual=False)],
                fragment_of=o.id,
            )
            self.entities[f.id] = f
            frag_ids.append(f.id)
        o.fragment_ids = frag_ids
        o.region = frozenset().union(*(g.members for g in gs))
        events.append(TrackEvent(frame_index, "region_split",
                                 {"occlusion_id": o.id, "fragment_ids": frag_ids}))

    def _reconcile_fragments(self, o, frame_index: int, events):
        live = [self.entities[fid] for fid in o.fragment_ids if fid in self.entities]
        o.fragment_ids = [f.id for f in live]

        real_frags = [f for f in live if f.label is Label.REAL]
        candidates = [f for f in live if f.label is Label.CANDIDATE]

        if candidates and not real_frags:
            if len(live) >= 2:
                o.region = frozenset().union(*(f.region for f in live))
                return
            # The split collapsed during observation.
            if len(live) == 1:
                self._dissolve_single_fragment(o, live[0], frame_index, events)
            else:
                o.fragment_ids = []
                events.append(TrackEvent(frame_index, "split_rejected",
                                         {"occlusion_id": o.id}))
            return

        # Fragments have classified (they share a seed frame, so together).
        if len(real_frags) >= 2:
            o.confirmed_split = True
            for f in real_frags:
                f.pending_identity = True
            o.region = frozenset().union(*(f.region for f in real_frags))
            events.append(TrackEvent(frame_index, "disocclusion", {
                "occlusion_id": o.id,
                "fragment_ids": [f.id for f in real_frags],
            }))
        elif len(real_frags) == 1:
            self._dissolve_single_fragment(o, real_frags[0], frame_index, events)
        else:
            o.fragment_ids = []
            events.append(TrackEvent(frame_index, "split_rejected",
                                     {"occlusion_id": o.id}))

    def _dissolve_single_fragment(self, o, f: Entity, frame_index: int, events):
        """One surviving fragment: the occlusion continues as that region."""
        o.region = f.region
        o.fragment_ids = []
        self.entities.pop(f.id, None)
        events.append(TrackEvent(frame_index, "occluded_single",
                                 {"occlusion_id": o.id, "fragment_id": f.id}))

    # -- identity resolution (called by the pipeline at I-frames) ----------

    def resolve_identities(self, o, assignment: dict[int, int], frame_index: int,
                           events) -> None:
        """Apply a fragment->member id mapping after a confirmed disocclusion.

        Matched members resume as real objects carrying the fragment's
        region; unmatched fragments keep their provisional ids as new
        objects; unmatched members are dropped with a ``member_missing``
        event, never to emit again.
        """
        for frag_id, member_id in sorted(assignment.items()):
            frag = self.entities.pop(frag_id)
            member = self.frozen.pop(member_id)
            member.label = Label.REAL
            member.region = frag.region
            member.virtual_streak = frag.virtual_streak
            member.pending_identity = False
            self.entities[member.id] = member
        for fid in o.fragment_ids:
            if fid in self.entities and fid not in assignment:
                f = self.entities[fid]
                f.fragment_of = None
                f.pending_identity = False
                events.append(TrackEvent(frame_index, "new_object_from_fragment",
                                         {"object_id": fid, "occlusion_id": o.id}))
        for mid in o.member_object_ids:
            if mid in self.frozen:
                del self.frozen[mid]
                events.append(TrackEvent(frame_index, "member_missing",
                                         {"object_id": mid, "occlusion_id": o.id}))
        o.fragment_ids = []
        del self.occlusions[o.id]
        events.append(TrackEvent(frame_index, "occlusion_closed",
                                 {"occlusion_id": o.id}))
