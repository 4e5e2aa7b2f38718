"""
Finite labeled posets of events, executions, and canonical local runs.

An EventSystem is a finite set of (channel, message) events with a strict
partial order, stored as the set of all ordered pairs; it is the general
form for posets built by hand, merged across a cut, or checked against a
frame.  Executions of a frame are event systems whose projection onto
every location is a chain lying in that location's trace set.  Enumerated
executions are not kept as event systems: ``enumeration.ExecutionSet``
keeps each one as canonical ids with ancestor bitmasks and restricts it
with bit operations, and derives event systems only on request.

Equality of local runs is order-isomorphism: two restrictions count as the
same run when a channel-, message-, and order-preserving bijection relates
them.  Within any restriction of an execution the events on one channel
are totally ordered, so (channel, ordinal) names events canonically, and a
CanonicalRun (per-channel message sequences plus the transitive reduction
of the order on canonical ids) is a complete isomorphism invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import AbstractSet, Iterable, Sequence, TYPE_CHECKING

if TYPE_CHECKING:
    from .frames import Frame, Label


class EventSystemError(ValueError):
    """Raised when a relation is not a strict partial order."""


class LinearityError(ValueError):
    """A projection that should be a chain contains an incomparable pair."""

    def __init__(self, message: str, pair: tuple[int, int]):
        super().__init__(message)
        self.pair = pair


class CanonicalizeError(ValueError):
    """Same-channel events are incomparable, so no canonical form exists."""


@dataclass(frozen=True)
class Event:
    chan: str
    msg: str


#: Canonical event identity within a run: (channel id, 0-based ordinal).
CanonicalId = tuple[str, int]


def transitive_closure(n: int, pairs: Iterable[tuple[int, int]]) -> frozenset[tuple[int, int]]:
    succ: dict[int, set[int]] = {i: set() for i in range(n)}
    for a, b in pairs:
        succ[a].add(b)
    # Repeated relational squaring; n is tiny here.
    changed = True
    while changed:
        changed = False
        for a in range(n):
            extra = set()
            for b in succ[a]:
                extra |= succ[b] - succ[a]
            if extra:
                succ[a] |= extra
                changed = True
    return frozenset((a, b) for a in range(n) for b in succ[a])


def chain_order(
    members: Iterable[int], preds: Sequence[AbstractSet[int]]
) -> tuple[list[int], tuple[int, int] | None]:
    """``members`` sorted by predecessor count, and the first two adjacent
    ones that are not ordered, or None when they form a chain.

    Along a chain each event has more predecessors than the one before it,
    so the sort orders a chain.  Adjacent ``a``, ``b`` with ``a`` not below
    ``b`` are incomparable: ``b`` below ``a`` would give ``b`` fewer
    predecessors.
    """
    chain = sorted(members, key=lambda a: len(preds[a]))
    for a, b in zip(chain, chain[1:]):
        if a not in preds[b]:
            return chain, (a, b)
    return chain, None


@dataclass(frozen=True)
class EventSystem:
    """Events are addressed by index into ``events``; ``strict`` is the
    transitively closed strict order."""

    events: tuple[Event, ...]
    strict: frozenset[tuple[int, int]]

    @staticmethod
    def build(
        events: Sequence[Event | tuple[str, str]],
        pairs: Iterable[tuple[int, int]] = (),
    ) -> "EventSystem":
        """Build from any generating relation; closes transitively and
        rejects cycles and self-loops."""
        evs = tuple(e if isinstance(e, Event) else Event(*e) for e in events)
        n = len(evs)
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise EventSystemError(f"order pair ({a},{b}) out of range")
        closed = transitive_closure(n, pairs)
        for a, b in closed:
            if a == b or (b, a) in closed:
                raise EventSystemError(f"order has a cycle through event {a}")
        return EventSystem(evs, closed)

    @staticmethod
    def empty() -> "EventSystem":
        return EventSystem((), frozenset())

    @property
    def n_events(self) -> int:
        return len(self.events)

    def precedes(self, a: int, b: int) -> bool:
        return (a, b) in self.strict

    def comparable(self, a: int, b: int) -> bool:
        return a == b or (a, b) in self.strict or (b, a) in self.strict

    def predecessors(self) -> list[set[int]]:
        """Strict predecessors of every event, indexed like ``events``."""
        preds: list[set[int]] = [set() for _ in self.events]
        for a, b in self.strict:
            preds[b].add(a)
        return preds

    def restrict(self, chans: Iterable[str]) -> "EventSystem":
        """Events filtered to ``chans`` with the induced order."""
        keep = frozenset(chans)
        idx = [i for i, e in enumerate(self.events) if e.chan in keep]
        remap = {old: new for new, old in enumerate(idx)}
        evs = tuple(self.events[i] for i in idx)
        pairs = frozenset(
            (remap[a], remap[b]) for (a, b) in self.strict if a in remap and b in remap
        )
        return EventSystem(evs, pairs)

    def induced(self, keep: Iterable[int]) -> "EventSystem":
        """Substructure on the given event indices (induced order)."""
        idx = sorted(set(keep))
        remap = {old: new for new, old in enumerate(idx)}
        evs = tuple(self.events[i] for i in idx)
        pairs = frozenset(
            (remap[a], remap[b]) for (a, b) in self.strict if a in remap and b in remap
        )
        return EventSystem(evs, pairs)


# -- projection and execution checking ------------------------------------


def project(sys: EventSystem, frame: "Frame", loc_id: str) -> tuple["Label", ...]:
    """The label sequence of ``loc_id``'s events, in order.

    Raises LinearityError when the events at the location are not a chain.
    """
    own = frame.chans(loc_id)
    members = [i for i, e in enumerate(sys.events) if e.chan in own]
    idx, bad = chain_order(members, sys.predecessors())
    if bad is not None:
        raise LinearityError(f"projection onto {loc_id!r} is not linearly ordered", bad)
    return tuple((sys.events[i].chan, sys.events[i].msg) for i in idx)


@dataclass(frozen=True)
class ExecutionCheck:
    ok: bool
    failures: tuple[tuple[str, str], ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def is_execution(sys: EventSystem, frame: "Frame") -> ExecutionCheck:
    """Check the execution conditions, with per-location diagnostics.

    Every location's projection must be a chain whose label sequence lies
    in the location's trace set.  Unknown channels raise.
    """
    from .frames import accepts_trace

    for e in sys.events:
        frame.channel(e.chan)  # raises UnknownChannelError
    failures: list[tuple[str, str]] = []
    preds = sys.predecessors()
    for loc in frame.locations:
        own = frame.chans(loc.id)
        idx, bad = chain_order([i for i, e in enumerate(sys.events) if e.chan in own], preds)
        if bad is not None:
            failures.append((loc.id, "linearity"))
            continue
        seq = tuple((sys.events[i].chan, sys.events[i].msg) for i in idx)
        if not accepts_trace(loc.behavior, seq):
            failures.append((loc.id, "trace membership"))
    return ExecutionCheck(not failures, tuple(failures))


def is_initial_substructure(sub: EventSystem, sup: EventSystem) -> bool:
    """True iff ``sub`` is a downward-closed, order-induced part of ``sup``.

    Events are identified across the two systems by canonical id, so the
    events of ``sub`` on each channel must be the first ones of ``sup``'s
    chain on that channel.
    """
    try:
        crun_sub = canonicalize(sub)
        crun_sup = canonicalize(sup)
    except CanonicalizeError:
        return False
    sup_msgs = dict(crun_sup.channels)
    sub_ids: set[CanonicalId] = set()
    for chan, msgs in crun_sub.channels:
        have = sup_msgs.get(chan, ())
        if len(msgs) > len(have) or have[: len(msgs)] != msgs:
            return False
        sub_ids.update((chan, i) for i in range(len(msgs)))
    sup_order = _canonical_strict(crun_sup)
    sub_order = _canonical_strict(crun_sub)
    # Downward closure in sup.
    for (a, b) in sup_order:
        if b in sub_ids and a not in sub_ids:
            return False
    # Induced order.
    induced = {(a, b) for (a, b) in sup_order if a in sub_ids and b in sub_ids}
    return induced == sub_order


# -- canonical runs --------------------------------------------------------


@dataclass(frozen=True)
class CanonicalRun:
    """Order-isomorphism-invariant encoding of a per-channel-linear event
    system.  ``channels`` lists only channels carrying events, sorted;
    ``order`` is the transitive reduction of the strict order on canonical
    ids, sorted."""

    channels: tuple[tuple[str, tuple[str, ...]], ...]
    order: tuple[tuple[CanonicalId, CanonicalId], ...]

    @staticmethod
    def empty() -> "CanonicalRun":
        return CanonicalRun((), ())

    @property
    def n_events(self) -> int:
        return sum(len(msgs) for _, msgs in self.channels)

    @property
    def channel_ids(self) -> frozenset[str]:
        return frozenset(c for c, _ in self.channels)

    def serialize(self) -> str:
        """Stable textual form, bit-exact across runs."""
        return json.dumps(
            {
                "ch": [[c, list(msgs)] for c, msgs in self.channels],
                "ord": [[list(a), list(b)] for a, b in self.order],
            },
            sort_keys=True,
            separators=(",", ":"),
        )

    def to_event_system(self) -> EventSystem:
        """Rebuild a concrete event system (events sorted by canonical id)."""
        ids: list[CanonicalId] = []
        events: list[Event] = []
        for chan, msgs in self.channels:
            for i, m in enumerate(msgs):
                ids.append((chan, i))
                events.append(Event(chan, m))
        pos = {cid: k for k, cid in enumerate(ids)}
        pairs = set()
        for a, b in self.order:
            if a not in pos or b not in pos:
                raise EventSystemError(f"order references unknown canonical id {a} or {b}")
            pairs.add((pos[a], pos[b]))
        # Per-channel chains are part of the order even if the stored
        # reduction leaves them implicit.
        for chan, msgs in self.channels:
            for i in range(len(msgs) - 1):
                pairs.add((pos[(chan, i)], pos[(chan, i + 1)]))
        return EventSystem.build(events, pairs)

    def restrict(self, chans: Iterable[str]) -> "CanonicalRun":
        return canonicalize(self.to_event_system().restrict(chans))


def canonicalize(sys: EventSystem) -> CanonicalRun:
    """Canonical form of a per-channel-linear event system.

    Two systems canonicalize equally iff a channel-, message-, and
    order-preserving bijection relates them: such a bijection must map the
    k-th event of each channel's chain to the k-th event of the same
    channel's chain, so the per-channel sequences plus the order on
    (channel, ordinal) pairs determine the system up to isomorphism.
    """
    preds = sys.predecessors()
    by_chan: dict[str, list[int]] = {}
    for i, e in enumerate(sys.events):
        by_chan.setdefault(e.chan, []).append(i)
    ordinal: dict[int, CanonicalId] = {}
    channels = []
    for chan in sorted(by_chan):
        chain, bad = chain_order(by_chan[chan], preds)
        if bad is not None:
            raise CanonicalizeError(f"events on channel {chan!r} are not totally ordered")
        for k, ev_index in enumerate(chain):
            ordinal[ev_index] = (chan, k)
        channels.append((chan, tuple(sys.events[i].msg for i in chain)))
    # a covers b when no predecessor of b lies above a: the transitive
    # reduction, read off the predecessor sets.
    order = []
    for b, below in enumerate(preds):
        if below:
            covered = set().union(*(preds[a] for a in below))
            order.extend((ordinal[a], ordinal[b]) for a in below - covered)
    order.sort()
    return CanonicalRun(tuple(channels), tuple(order))


def _canonical_strict(run: CanonicalRun) -> frozenset[tuple[CanonicalId, CanonicalId]]:
    """Full strict order of a run on canonical ids."""
    sys = run.to_event_system()
    ids: list[CanonicalId] = []
    for chan, msgs in run.channels:
        ids.extend((chan, i) for i in range(len(msgs)))
    return frozenset((ids[a], ids[b]) for (a, b) in sys.strict)
