"""Probabilistic spatiotemporal filtering over macroblock activity.

Per P-frame, non-skip macroblocks are clustered into 8-connected block
groups, implausible groups are removed by shape (single-block, or
multi-block without any coefficients), and the survivors drive a set of
tracked entities. Each entity accumulates a negative-log evidence sum
over its first ``psi`` observed P-frames:

    frame with support:  -ln( |G_i ∩ R_{i-1}| / |R_{i-1}| )
    frame without:       -ln( o / i )

where R_{i-1} is the entity's region after the previous P-frame, G_i is
the union of this frame's overlapping groups, o counts observed frames
that had support (the seed counts), and i is the 1-based observation
ordinal (the seed contributes no term). After exactly ``psi`` observed
P-frames the entity is promoted to a real object when the sum is
strictly below ``omega`` and retired as background otherwise.

A frame without support freezes the region in place (a virtual copy), so
a briefly undetected object keeps its footprint. I-frames never reach
this module; the observation clock only ticks on P-frames.

A region, of a group, an entity or an occlusion, is one 1-D int64 array
of cell keys ``my << CELL_BITS | mx``, which needs no grid width to build
or read, and which nothing writes. ``cluster_blocks`` reads a P-frame's
coded cells from ``MacroblockGrid.coded()``, sparse for a parsed frame,
lays out the frame's keys once in a read-only array, and each of its
groups views its span of them.

Real entities whose blobs collide are frozen into one ``OcclusionGroup``
and tracked as its region. When that region splits, each piece is
observed as a fragment; once two or more are promoted, their identities
are recovered by hue at the next I-frame. A blob over two fragments ends
the split for all of them: an occlusion is tracked whole or as its
fragments, never both. ``EntityTracker.step`` takes a P-frame's groups
and ``EntityTracker.observe_iframe`` an I-frame's hues, which set the
hue priors and resolve every confirmed split; each holds the frame it
runs for and returns its events.
"""

from __future__ import annotations

import functools
import math
from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np
from scipy import ndimage

if TYPE_CHECKING:
    from .occlusion import HueHistogram
    from .stream import FrameFeatures

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)  # bool: ndimage.label converts nothing

CELL_BITS = 16  # a cell key is my << CELL_BITS | mx
CELL_MASK = (1 << CELL_BITS) - 1


def _canon(alias: dict[int, int], key: int) -> int:
    while key in alias:
        key = alias[key]
    return key


class Label(str, Enum):
    CANDIDATE = "candidate"
    REAL = "real"
    BACKGROUND = "background"
    OCCLUDED = "occluded"


def default_omega(psi: int) -> float:
    """Promotion threshold tuned so p must average above 1/2 per frame."""
    return psi * math.log(2.0)


@dataclass
class PsmfConfig:
    psi: int = 8
    omega: float | None = None
    enable_spatial_filter: bool = True
    stale_limit: int | None = None  # retire a real entity after this many
    # consecutive unsupported P-frames; None keeps paper behavior (never)

    def __post_init__(self):
        # The seed frame carries no evidence term, so a window needs a
        # second frame to decide anything.
        if self.psi < 2:
            raise ValueError("psi must be at least 2")
        if self.omega is None:
            self.omega = default_omega(self.psi)
        if not self.omega > 0:  # also rejects NaN
            raise ValueError("omega must be positive")
        if self.stale_limit is not None and self.stale_limit < 0:
            raise ValueError("stale_limit must be at least 0")


def _connected(members: set) -> bool:
    cells = np.array(list(members))
    cells -= cells.min(axis=0)
    if cells.max() >= len(cells):  # n connected cells span at most n rows and columns
        return False
    mask = np.zeros(cells.max(axis=0) + 1, dtype=bool)
    mask[tuple(cells.T)] = True
    return ndimage.label(mask, structure=_EIGHT_CONNECTED)[1] == 1


class BlockGroup:
    """One 8-connected cluster of non-skip macroblocks.

    ``keys`` is its region, in raster order, and ``size`` its cell count,
    a plain value (``len(group)``). The public constructor takes and checks
    ``(mx, my)`` cells; ``members`` gives them back as a frozenset.
    """

    __slots__ = ("frame_index", "keys", "has_nonzero_coeff", "size")

    def __init__(self, frame_index: int, members, has_nonzero_coeff: bool):
        cells = {(int(mx), int(my)) for mx, my in members}
        if not cells:
            raise ValueError("a block group cannot be empty")
        if not all(0 <= v <= CELL_MASK for cell in cells for v in cell):
            raise ValueError(f"block group cells must lie in 0..{CELL_MASK}")
        if not _connected(cells):
            raise ValueError("block group members must be 8-connected")
        keys = sorted(my << CELL_BITS | mx for mx, my in cells)
        self.frame_index, self.has_nonzero_coeff = frame_index, has_nonzero_coeff
        self.keys = np.array(keys, dtype=np.int64)
        self.size = len(keys)

    @property
    def members(self) -> frozenset:
        """The cells as ``(mx, my)`` pairs, inserted in raster order."""
        return frozenset(zip((self.keys & CELL_MASK).tolist(), (self.keys >> CELL_BITS).tolist()))

    def __len__(self) -> int:
        return self.size

    def __eq__(self, other) -> bool:
        return (isinstance(other, BlockGroup) and self.frame_index == other.frame_index
                and np.array_equal(self.keys, other.keys)
                and self.has_nonzero_coeff == other.has_nonzero_coeff)


@functools.lru_cache(maxsize=8)
def _cell_keys(rows: int, cols: int) -> np.ndarray:
    """The cell key of every macroblock of a rows x cols grid, in raster
    order; read-only, as it is shared by every frame of that shape."""
    my, mx = np.divmod(np.arange(rows * cols, dtype=np.int64), cols)
    keys = my << CELL_BITS | mx
    keys.flags.writeable = False
    return keys


def cluster_blocks(frame: "FrameFeatures") -> list[BlockGroup]:
    """Cluster a P-frame's non-skip macroblocks into 8-connected groups.

    Groups come back in raster order of their first macroblock. The
    coded cells and their coefficient masks come from ``grid.coded()``,
    which a parsed grid answers from its records, so only the labelling
    reads the whole grid. The frame's cell keys are gathered once from
    the grid shape's key table, by group and in raster order within each
    group, into one read-only array that each group views its span of:
    an array of keys never changes, so a region is the same region while
    it is the same array object (``Tracker._pframe`` relies on it).
    """
    if frame.kind != "P" or frame.mb_grid is None:
        raise ValueError("cluster_blocks needs a P-frame with macroblock features")
    grid = frame.mb_grid
    cells, masks = grid.coded()  # raster order
    if not cells.size:
        return []
    labels, count = ndimage.label(~grid.skip, structure=_EIGHT_CONNECTED)
    cell_labels = labels.ravel()[cells]
    has_coeff = np.zeros(count + 1, dtype=bool)
    has_coeff[cell_labels[masks != 0]] = True
    keys = _cell_keys(*grid.shape)[cells[cell_labels.argsort(kind="stable")]]
    keys.flags.writeable = False
    # Connected and non-empty by construction: the constructor's checks are skipped.
    groups = []
    start = 0
    for end, coeff in zip(np.bincount(cell_labels)[1:].cumsum().tolist(),
                          has_coeff[1:].tolist()):
        g = BlockGroup.__new__(BlockGroup)
        g.frame_index, g.keys, g.size, g.has_nonzero_coeff = (
            frame.frame_index, keys[start:end], end - start, coeff)
        groups.append(g)
        start = end
    return groups


def spatial_filter(groups: list[BlockGroup], *, enabled: bool = True) -> list[BlockGroup]:
    """Drop groups too small or too empty to be an object footprint.

    Removes single-macroblock groups and groups with no coefficient-bearing
    macroblock at all, reading only ``size`` and the coefficient flag.
    Order is preserved. With ``enabled=False`` this is a pass-through, for
    ablation.
    """
    if not enabled:
        return list(groups)
    return [g for g in groups if g.size > 1 and g.has_nonzero_coeff]


@dataclass
class Entity:
    """A tracked unit: candidate under evaluation, or a confirmed object.

    A candidate's evidence is the running sum ``neglog_sum``: each observed
    P-frame adds one term, read from the region before that frame and the
    two counts below, so no other history is kept.
    """

    id: int
    region: np.ndarray  # cell keys
    label: Label = Label.CANDIDATE
    neglog_sum: float = 0.0
    observed: int = 1  # 1-based observation ordinal
    supported: int = 1  # observed frames with support; the seed counts
    virtual_streak: int = 0  # consecutive unsupported P-frames
    fragment_of: int | None = None  # occlusion id while splitting
    prior_hue: "HueHistogram | None" = None  # from the last I-frame that refined it


def classify_entity(entity: Entity, config: PsmfConfig) -> Label:
    """Promotion decision after the observation window: strict threshold."""
    return Label.REAL if entity.neglog_sum < config.omega else Label.BACKGROUND


@dataclass
class TrackEvent:
    frame_index: int
    kind: str
    data: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        out = {"frame_index": self.frame_index, "event": self.kind}
        out.update(self.data)
        return out


@dataclass
class OcclusionGroup:
    """Two or more objects tracked as one region while their blobs overlap.

    It owns its frozen members, in the order they joined; each keeps the
    ``prior_hue`` it had on joining, its identity prior. Once the region
    splits, its fragments are the live entities whose ``fragment_of`` is
    its id (``EntityTracker.fragments``).
    """

    id: int
    region: np.ndarray  # cell keys; may repeat a cell
    members: dict[int, Entity] = field(default_factory=dict)
    confirmed_split: bool = False

    @property
    def member_object_ids(self) -> list[int]:
        return list(self.members)


class EntityTracker:
    """Per-P-frame entity state machine over filtered block groups.

    Owns candidates, real objects, and occlusion groups, which own their
    frozen members. ``step`` consumes one P-frame's active groups;
    ``observe_iframe`` consumes what an I-frame's decoded pixels found, and
    is the only call that changes state at an I-frame. Each holds its frame
    while it runs and returns the events that call produced.

    Entity and occlusion ids come from one counter, so a tracked unit is
    keyed by its id alone, whichever kind it is.
    """

    def __init__(self, config: PsmfConfig | None = None):
        self.config = config or PsmfConfig()
        self.entities: dict[int, Entity] = {}  # candidates, reals, fragments
        self.occlusions: dict[int, OcclusionGroup] = {}
        self._next_id = 1
        self._frame, self._events = 0, []  # the call in hand: its frame, its events

    def _new_id(self) -> int:
        i = self._next_id
        self._next_id += 1
        return i

    def fragments(self, oid: int) -> list[Entity]:
        """The live fragments of occlusion ``oid``, in id order."""
        return [e for _, e in sorted(self.entities.items()) if e.fragment_of == oid]

    def _emit(self, kind: str, **data) -> None:
        self._events.append(TrackEvent(self._frame, kind, data))

    # -- one P-frame ------------------------------------------------------

    def step(self, active_groups: list[BlockGroup], frame_index: int) -> list[TrackEvent]:
        self._frame, self._events = frame_index, []
        # Units merged away mid-frame are re-pointed here, so a group that
        # overlaps only the absorbed unit's old region still reaches the
        # absorber instead of seeding a duplicate.
        alias: dict[int, int] = {}

        # Every unit's cells, indexed once. A reunion later in the step needs
        # no new entry: it only aliases units whose cells are indexed.
        index = self._cell_index() if active_groups else []

        assignments: dict[int, list[BlockGroup]] = defaultdict(list)
        seeds: list[BlockGroup] = []

        for g in active_groups:
            found = {key for layer in index for key in map(layer.get, g.keys.tolist())}
            hits = sorted({_canon(alias, key) for key in found if key is not None})
            if not hits:
                seeds.append(g)
            elif len(hits) == 1:
                assignments[hits[0]].append(g)
            else:
                target = self._resolve_collision(g, hits, alias, assignments)
                assignments[target].append(g)

        # Seed new candidates from unclaimed groups, then advance every
        # entity that was there before.
        advancing = sorted(self.entities)
        for g in seeds:
            e = Entity(id=self._new_id(), region=g.keys)
            self.entities[e.id] = e
            self._emit("seed", object_id=e.id)
        for eid in advancing:
            self._advance(self.entities[eid], assignments.get(eid, []))

        # Advance occlusion entities that track directly, then reconcile
        # fragment-based occlusions.
        for oid, o in sorted(self.occlusions.items()):
            if o.confirmed_split:
                continue
            frags = self.fragments(oid)
            if frags:
                self._reconcile_fragments(o, frags)
            else:
                gs = assignments.get(oid, [])
                if len(gs) >= 2:
                    self._begin_split(o, gs)
                elif gs:
                    o.region = gs[0].keys

        return self._events

    def _cell_index(self) -> list[dict[int, int]]:
        """Cell key -> id of every trackable unit, in layers of units whose
        regions are disjoint: one layer unless regions overlap. Occlusions
        with live fragments are represented by the fragments; a confirmed
        split has handed tracking to the (now real) fragments entirely."""
        split = {e.fragment_of for e in self.entities.values()}
        units = [*self.entities.values(), *(o for o in self.occlusions.values()
                                            if o.id not in split and not o.confirmed_split)]
        layers: list[dict[int, int]] = []
        for u in units:
            cells = dict.fromkeys(u.region.tolist(), u.id)
            for layer in layers:
                if layer.keys().isdisjoint(cells):
                    layer.update(cells)
                    break
            else:
                layers.append(cells)
        return layers

    # -- collision handling ------------------------------------------------

    def _resolve_collision(self, g, hits, alias, assignments) -> int:
        """Decide who owns a group that overlaps several units."""
        # Reunion first: one group covering >= 2 candidate fragments of the
        # same occlusion means the split was transient. It ends the split
        # for every fragment, covered or not: an occlusion is whole or split.
        frags = defaultdict(list)
        for k in hits:
            e = self.entities.get(k)
            if e is not None and e.fragment_of is not None and e.label is Label.CANDIDATE:
                frags[e.fragment_of].append(e)
        for oid, fs in sorted(frags.items()):
            if len(fs) >= 2:
                fs = self.fragments(oid)
                self.occlusions[oid].region = np.concatenate([f.region for f in fs])
                for f in fs:
                    self._fold(f.id, oid, alias, assignments)
                self._emit("reunion", occlusion_id=oid, fragment_ids=[f.id for f in fs])
                hits = sorted({_canon(alias, k) for k in hits})

        occs = [k for k in hits if k in self.occlusions]
        ents = [self.entities[k] for k in hits if k not in self.occlusions]
        reals = [e for e in ents if e.label is Label.REAL]
        cands = [e for e in ents if e.label is Label.CANDIDATE]

        if occs:
            # Everything feeding an existing occlusion joins it; extra
            # occlusions merge into the lowest-id one.
            o = self.occlusions[occs[0]]
            for other_id in occs[1:]:
                o.members.update(self._fold(other_id, o.id, alias, assignments).members)
                self._emit("occlusion_merge", occlusion_id=o.id, absorbed=other_id)
            for r in reals:
                self._freeze(o, r, alias, assignments)
                self._emit("occlusion_extend", occlusion_id=o.id, object_id=r.id)
            owner = o.id
        elif len(reals) >= 2:
            o = OcclusionGroup(self._new_id(), np.concatenate([r.region for r in reals]))
            for r in reals:
                self._freeze(o, r, alias, assignments)
            self.occlusions[o.id] = o
            self._emit("occlusion_begin", occlusion_id=o.id,
                       member_object_ids=o.member_object_ids)
            owner = o.id
        elif reals:
            owner = reals[0].id
        else:
            # All candidates: merge into the oldest. Ids come from one
            # counter and only seeds and fragments are candidates, so the
            # lowest id is the one seeded first.
            owner = min(c.id for c in cands)
        for c in cands:
            if c.id != owner:
                self._fold(c.id, owner, alias, assignments)
                self._emit("merged", object_id=c.id, into=owner)
        return owner

    def _fold(self, key: int, into: int, alias, assignments):
        """Unit ``key`` answers as unit ``into`` for the rest of the step: it
        leaves the tracker, the groups it already holds move to ``into``,
        and ``alias`` sends later groups over its old region there too.
        Returns the unit."""
        alias[key] = into
        if key in assignments:
            assignments[into].extend(assignments.pop(key))
        return (self.entities if key in self.entities else self.occlusions).pop(key)

    def _freeze(self, o: OcclusionGroup, r: Entity, alias, assignments):
        """Move real entity ``r`` into occlusion ``o`` as a member. Its last
        refined appearance, ``prior_hue``, is its identity prior."""
        if r.prior_hue is None:
            self._emit("prior_capture_failed", occlusion_id=o.id, object_id=r.id)
        r.label = Label.OCCLUDED
        o.members[r.id] = self._fold(r.id, o.id, alias, assignments)

    # -- per-entity advance -------------------------------------------------

    def _advance(self, e: Entity, gs: list[BlockGroup]):
        prev = e.region
        if gs:
            # Unions concatenate, here one frame's disjoint groups; only an
            # occlusion's union repeats cells, and nothing counts them. Not
            # np.unique or np.intersect1d: a first sort-family call pages in
            # numpy's sort code, which peak_mem_mb counts.
            e.region = gs[0].keys if len(gs) == 1 else np.concatenate([g.keys for g in gs])
        e.virtual_streak = 0 if gs else e.virtual_streak + 1

        if e.label is Label.CANDIDATE:
            e.observed += 1
            if gs:  # overlap with the previous region
                e.supported += 1
                overlap = set(prev.tolist()).intersection(e.region.tolist())
                e.neglog_sum += -math.log(len(overlap) / len(prev))
            else:  # detection rate so far
                e.neglog_sum += -math.log(e.supported / e.observed)
            if e.observed == self.config.psi:
                self._classify(e)
        elif e.label is Label.REAL:
            limit = self.config.stale_limit
            if limit is not None and e.virtual_streak > limit:
                del self.entities[e.id]
                self._emit("stale_retired", object_id=e.id)

    def _classify(self, e: Entity):
        label = classify_entity(e, self.config)
        e.label = label
        self._emit("classified", object_id=e.id, label=label.value,
                   neglog_sum=e.neglog_sum, is_fragment=e.fragment_of is not None)
        if label is Label.BACKGROUND:
            del self.entities[e.id]

    # -- occlusion split lifecycle -----------------------------------------

    def _begin_split(self, o: OcclusionGroup, gs: list[BlockGroup]):
        frags = [Entity(id=self._new_id(), region=g.keys, fragment_of=o.id) for g in gs]
        self.entities.update((f.id, f) for f in frags)
        o.region = np.concatenate([g.keys for g in gs])
        self._emit("region_split", occlusion_id=o.id, fragment_ids=[f.id for f in frags])

    def _reconcile_fragments(self, o: OcclusionGroup, frags: list[Entity]):
        """Follow a split through its fragments, never an empty list. They
        were seeded together, so they classify together: while they are
        observed the occlusion's region is their union; two or more
        promoted confirm the split; a lone one continues the occlusion."""
        reals = [f for f in frags if f.label is Label.REAL]
        if not reals and len(frags) >= 2:  # still under observation
            o.region = np.concatenate([f.region for f in frags])
        elif len(reals) >= 2:
            o.confirmed_split = True
            o.region = np.concatenate([f.region for f in reals])
            self._emit("disocclusion", occlusion_id=o.id, fragment_ids=[f.id for f in reals])
        else:
            f = (reals or frags)[0]
            o.region = f.region
            del self.entities[f.id]
            self._emit("occluded_single", occlusion_id=o.id, fragment_id=f.id)

    # -- one I-frame ------------------------------------------------------

    def observe_iframe(self, frame_index: int, hues: dict[int, "HueHistogram"],
                       match) -> list[TrackEvent]:
        """Apply what I-frame ``frame_index``'s pixels found; return its events.

        ``hues`` maps each real entity the I-frame refined to its blob's
        hue, its new ``prior_hue``. Then every confirmed split resolves, in
        id order: ``match``, with the contract of
        ``occlusion.match_identities``, pairs its fragments to its members
        by hue. Matched members resume as real objects with the fragment's
        region and hue; unmatched fragments keep their ids as new objects;
        unmatched members are dropped with a ``member_missing`` event. The
        posteriors are this call's hues: a fragment is a candidate, never
        refined, until its split is confirmed at a P-frame, and an earlier
        resolution in this call may have set its ``prior_hue`` already.
        """
        self._frame, self._events = frame_index, []
        for eid, hue in hues.items():
            self.entities[eid].prior_hue = hue
        for oid in sorted(self.occlusions):
            if self.occlusions[oid].confirmed_split:
                self._resolve_identities(self.occlusions[oid], hues, match)
        return self._events

    def _resolve_identities(self, o: OcclusionGroup, hues, match) -> None:
        frags = self.fragments(o.id)
        posteriors = {f.id: hues[f.id] for f in frags if f.id in hues}
        priors = {mid: m.prior_hue for mid, m in o.members.items() if m.prior_hue is not None}
        assignment, chosen = match(priors, posteriors)

        # Hue capture can fail on either side (prior never taken, or the
        # fragment's mask came up empty). Leftovers pair by id order; that
        # is the only deterministic choice left.
        leftover_frags = [f.id for f in frags if f.id not in assignment]
        leftover_members = sorted(m for m in o.members if m not in assignment.values())
        for fid, mid in zip(leftover_frags, leftover_members):
            assignment[fid] = mid
            self._emit("identity_by_exclusion", fragment_id=fid, object_id=mid)
        self._emit("identity_assigned", occlusion_id=o.id,
                   assignment={str(f): m for f, m in sorted(assignment.items())},
                   distances=[{"fragment_id": f, "object_id": m, "distance": d}
                              for d, f, m in chosen])

        for frag_id, member_id in sorted(assignment.items()):
            frag = self.entities.pop(frag_id)
            member = o.members.pop(member_id)
            member.label = Label.REAL
            member.region = frag.region
            member.virtual_streak = frag.virtual_streak
            if frag_id in hues:
                member.prior_hue = hues[frag_id]
            self.entities[member.id] = member
        for f in frags:
            if f.id not in assignment:
                f.fragment_of = None
                self._emit("new_object_from_fragment", object_id=f.id, occlusion_id=o.id)
        for mid in o.members:
            self._emit("member_missing", object_id=mid, occlusion_id=o.id)
        del self.occlusions[o.id]
        self._emit("occlusion_closed", occlusion_id=o.id)
