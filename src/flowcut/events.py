"""
Finite labeled posets of events, executions, and canonical local runs.

An EventSystem is a finite set of (channel, message) events with a strict
partial order, stored as closed ancestor bitmasks: bit a of
``ancestors[b]`` is set iff event a lies strictly below event b.  This is
the only stored form of an order.  ``ancestor_masks`` closes a generating
relation in one topological pass, ``covering_pairs`` reads the transitive
reduction off the masks, and ``chain_order`` sorts a
chain by ancestor count.  Executions of a frame are event systems whose
projection onto every location is a chain lying in that location's trace
set.

Equality of local runs is order-isomorphism: two restrictions count as the
same run when a channel-, message-, and order-preserving bijection relates
them.  Within any restriction of an execution the events on one channel
are totally ordered, so (channel, ordinal) names events canonically.  A
CanonicalRun stores the per-channel message sequences and the closed
ancestor masks of its events in canonical-id order (channels sorted, then
ordinal); that is a complete isomorphism invariant.  A CanonicalRun and an
EventSystem are two views of one mask form: ``to_event_system`` wraps the
masks, and both restrict through the same mask compression.  Covering
pairs are derived only to serialize a run.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable, Sequence, TYPE_CHECKING

from .frames import _compared_by, _Record, _set

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


class Event(_Record):
    __slots__ = ("chan", "msg")
    __eq__, __hash__ = _compared_by(*__slots__)

    def __init__(self, chan: str, msg: str) -> None:
        _set(self, "chan", chan)
        _set(self, "msg", msg)


#: Canonical event identity within a run: (channel id, 0-based ordinal).
CanonicalId = tuple[str, int]


def ancestor_masks(
    n: int, pairs: Iterable[tuple[int, int]], names: Sequence[object] | None = None
) -> tuple[int, ...]:
    """Closed ancestor masks of the order that ``pairs`` generates on
    events ``0..n-1``, in one topological pass (Kahn).

    Raises EventSystemError for a pair out of range and for a cycle, a
    self-loop included, naming an event on the cycle (as ``names[event]``
    when names are given).
    """
    below = [0] * n
    above: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise EventSystemError(f"order pair ({a},{b}) out of range")
        if not below[b] >> a & 1:
            below[b] |= 1 << a
            above[a].append(b)
    waiting = [mask.bit_count() for mask in below]
    anc = [0] * n
    ready = [b for b in range(n) if not waiting[b]]
    for a in ready:  # ready grows as events lose their last waiting predecessor
        for b in above[a]:
            anc[b] |= anc[a] | 1 << a
            waiting[b] -= 1
            if not waiting[b]:
                ready.append(b)
    if len(ready) < n:
        # Every event left waiting has a direct predecessor left waiting,
        # so walking down from one repeats an event, which lies on a cycle.
        stuck = sum(1 << b for b in range(n) if waiting[b])
        path: list[int] = []
        b = (stuck & -stuck).bit_length() - 1
        while b not in path:
            path.append(b)
            rest = below[b] & stuck
            b = (rest & -rest).bit_length() - 1
        first = min(path[path.index(b) :])
        name = names[first] if names else first
        raise EventSystemError(f"order has a cycle through event {name}")
    return tuple(anc)


def covering_pairs(anc: Sequence[int]) -> list[tuple[int, int]]:
    """The covering pairs ``(a, b)`` of the order with the closed ancestor
    masks ``anc``, sorted.

    An event's covers are its predecessors P minus everything below some
    member of P.  P is visited from the highest index down, skipping what
    a visited member already has below it, so a chain costs one step per
    event.
    """
    out = []
    for b, below in enumerate(anc):
        covered = 0
        rest = below
        while rest:
            top = rest.bit_length() - 1
            covered |= anc[top]
            rest &= ~(anc[top] | 1 << top)
        rest = below & ~covered
        while rest:
            low = rest & -rest
            out.append((low.bit_length() - 1, b))
            rest ^= low
    return sorted(out)


def _induced_masks(anc: Sequence[int], kept: Sequence[int]) -> tuple[int, ...]:
    """The masks ``anc`` induce on the distinct indices ``kept``, event
    ``kept[i]`` renumbered ``i``."""
    new_bit = {1 << old: 1 << new for new, old in enumerate(kept)}
    want = sum(new_bit)
    out = []
    for b in kept:
        rest, mask = anc[b] & want, 0
        while rest:
            low = rest & -rest
            mask |= new_bit[low]
            rest ^= low
        out.append(mask)
    return tuple(out)


def chain_order(
    members: Iterable[int], anc: Sequence[int]
) -> tuple[list[int], tuple[int, int] | None]:
    """``members`` sorted by predecessor count in the ancestor masks
    ``anc``, and the first two adjacent ones that are not ordered, or None
    when they form a chain.

    Along a chain each event has more predecessors than the one before it,
    so the sort orders a chain.  Adjacent ``a``, ``b`` with ``a`` not below
    ``b`` are incomparable: ``b`` below ``a`` would give ``b`` fewer
    predecessors.
    """
    chain = sorted(members, key=lambda a: anc[a].bit_count())
    for a, b in zip(chain, chain[1:]):
        if not anc[b] >> a & 1:
            return chain, (a, b)
    return chain, None


class EventSystem(_Record):
    """Events are addressed by index into ``events``; ``ancestors[b]`` is
    the bitmask of the events strictly below event ``b``, transitively
    closed."""

    __slots__ = ("events", "ancestors")

    def __init__(self, events: tuple[Event, ...], ancestors: tuple[int, ...]) -> None:
        self._fill(events, ancestors)

    @staticmethod
    def build(
        events: Sequence[Event | tuple[str, str]],
        pairs: Iterable[tuple[int, int]] = (),
    ) -> "EventSystem":
        """Build from any generating relation; closes transitively and
        rejects cycles and self-loops."""
        evs = tuple(e if isinstance(e, Event) else Event(*e) for e in events)
        return EventSystem(evs, ancestor_masks(len(evs), pairs))

    @staticmethod
    def empty() -> "EventSystem":
        return EventSystem((), ())

    @property
    def n_events(self) -> int:
        return len(self.events)

    @property
    def strict(self) -> frozenset[tuple[int, int]]:
        """The strict order as the set of its pairs, derived from the masks."""
        n = len(self.events)
        return frozenset(
            (a, b) for b, mask in enumerate(self.ancestors) for a in range(n) if mask >> a & 1
        )

    def precedes(self, a: int, b: int) -> bool:
        return self.ancestors[b] >> a & 1 == 1

    def comparable(self, a: int, b: int) -> bool:
        return a == b or self.precedes(a, b) or self.precedes(b, a)

    def restrict(self, chans: Iterable[str]) -> "EventSystem":
        """Events filtered to ``chans`` with the induced order."""
        keep = frozenset(chans)
        return self.induced(i for i, e in enumerate(self.events) if e.chan in keep)

    def induced(self, keep: Iterable[int]) -> "EventSystem":
        """Substructure on the given event indices (induced order)."""
        idx = sorted(set(keep))
        return EventSystem(tuple(self.events[i] for i in idx), _induced_masks(self.ancestors, idx))


# -- projection and execution checking ------------------------------------


def project(sys: EventSystem, frame: "Frame", loc_id: str) -> tuple["Label", ...]:
    """The label sequence of ``loc_id``'s events, in order.

    Raises LinearityError when the events at the location are not a chain.
    """
    own = frame.chans(loc_id)
    members = [i for i, e in enumerate(sys.events) if e.chan in own]
    idx, bad = chain_order(members, sys.ancestors)
    if bad is not None:
        raise LinearityError(f"projection onto {loc_id!r} is not linearly ordered", bad)
    return tuple((sys.events[i].chan, sys.events[i].msg) for i in idx)


class ExecutionCheck(_Record):
    __slots__ = ("ok", "failures")

    def __init__(self, ok: bool, failures: tuple[tuple[str, str], ...] = ()) -> None:
        self._fill(ok, failures)

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
    for loc in frame.locations:
        try:
            seq = project(sys, frame, loc.id)
        except LinearityError:
            failures.append((loc.id, "linearity"))
            continue
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
    # sub names the first events of each of sup's channel chains.
    counts = {chan: len(msgs) for chan, msgs in crun_sub.channels}
    kept = [k for k, (chan, i) in enumerate(crun_sup.ids) if i < counts.get(chan, 0)]
    mask = sum(1 << k for k in kept)
    if any(crun_sup.ancestors[b] & ~mask for b in kept):
        return False  # not downward closed in sup
    # Equal canonical forms: the same per-channel prefixes and the same
    # induced order.
    return crun_sup.induced(kept) == crun_sub


# -- canonical runs --------------------------------------------------------


class CanonicalRun(_Record):
    """Order-isomorphism-invariant encoding of a per-channel-linear event
    system.  ``channels`` lists only channels carrying events, sorted;
    ``ancestors[b]`` is the closed mask of the events strictly below event
    ``b``, events numbered in canonical-id order."""

    __slots__ = ("channels", "ancestors")

    def __init__(
        self, channels: tuple[tuple[str, tuple[str, ...]], ...], ancestors: tuple[int, ...]
    ) -> None:
        _set(self, "channels", channels)
        _set(self, "ancestors", ancestors)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.channels == other.channels and self.ancestors == other.ancestors
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.channels, self.ancestors))

    @staticmethod
    def empty() -> "CanonicalRun":
        return _EMPTY_RUN

    @staticmethod
    def build(
        channels: Iterable[tuple[str, Sequence[str]]],
        pairs: Iterable[tuple[CanonicalId, CanonicalId]] = (),
    ) -> "CanonicalRun":
        """The run with these per-channel messages, ordered by the relation
        that ``pairs`` of canonical ids and every channel's chain generate.

        Raises EventSystemError for an unknown id or a cycle, naming an
        event on the cycle.
        """
        chans = tuple(sorted((chan, tuple(msgs)) for chan, msgs in channels))
        ids = [(chan, i) for chan, msgs in chans for i in range(len(msgs))]
        pos = {cid: k for k, cid in enumerate(ids)}
        gen = [(k - 1, k) for k, (_, i) in enumerate(ids) if i]
        for a, b in pairs:
            if a not in pos or b not in pos:
                raise EventSystemError(f"order references unknown canonical id {a} or {b}")
            gen.append((pos[a], pos[b]))
        return CanonicalRun(chans, ancestor_masks(len(ids), gen, ids))

    @property
    def n_events(self) -> int:
        return len(self.ancestors)

    @property
    def channel_ids(self) -> frozenset[str]:
        return frozenset(c for c, _ in self.channels)

    @property
    def ids(self) -> list[CanonicalId]:
        """The canonical ids of the events, in canonical order."""
        return [(chan, i) for chan, msgs in self.channels for i in range(len(msgs))]

    @property
    def order(self) -> tuple[tuple[CanonicalId, CanonicalId], ...]:
        """The transitive reduction of the order on canonical ids, sorted."""
        ids = self.ids
        return tuple((ids[a], ids[b]) for a, b in covering_pairs(self.ancestors))

    def serialize(self) -> str:
        """Stable textual form, bit-exact across runs: compact JSON with
        sorted keys, ``{"ch": [[channel, [message, ...]], ...], "ord":
        order}`` with each canonical id as a ``[channel, ordinal]`` list,
        written directly because reports and witness rules sort by it."""
        chans, ids = [], []
        for chan, msgs in self.channels:
            name = _quote(chan)
            chans.append(f"[{name},[{','.join(map(_quote, msgs))}]]")
            ids.extend(f"[{name},{i}]" for i in range(len(msgs)))
        order = ",".join(f"[{ids[a]},{ids[b]}]" for a, b in covering_pairs(self.ancestors))
        return f'{{"ch":[{",".join(chans)}],"ord":[{order}]}}'

    def to_event_system(self) -> EventSystem:
        """The run as an event system, events in canonical order."""
        events = tuple(Event(chan, m) for chan, msgs in self.channels for m in msgs)
        return EventSystem(events, self.ancestors)

    def induced(self, kept: Iterable[int]) -> "CanonicalRun":
        """Substructure on the events at the given canonical indices, with
        the induced order.  Each channel keeps its events in chain order,
        so the kept events stay in canonical order."""
        idx = sorted(set(kept))
        if not idx:
            return _EMPTY_RUN
        want = 0
        for k in idx:
            want |= 1 << k
        channels = []
        for entry in self.channels:  # a channel kept whole keeps its shared entry
            msgs = entry[1]
            bits = want & (1 << len(msgs)) - 1
            want >>= len(msgs)
            if bits == (1 << len(msgs)) - 1:
                channels.append(entry)
            elif bits:
                channels.append((entry[0], tuple(m for j, m in enumerate(msgs) if bits >> j & 1)))
        return CanonicalRun(tuple(channels), _induced_masks(self.ancestors, idx))

    def restrict(self, chans: Iterable[str]) -> "CanonicalRun":
        """Events filtered to ``chans`` with the induced order."""
        keep = frozenset(chans)
        kept, start = [], 0
        for chan, msgs in self.channels:
            if chan in keep:
                kept.extend(range(start, start + len(msgs)))
            start += len(msgs)
        return self if len(kept) == len(self.ancestors) else self.induced(kept)


_EMPTY_RUN = CanonicalRun((), ())


def canonicalize(sys: EventSystem) -> CanonicalRun:
    """Canonical form of a per-channel-linear event system.

    Two systems canonicalize equally iff a channel-, message-, and
    order-preserving bijection relates them: such a bijection must map the
    k-th event of each channel's chain to the k-th event of the same
    channel's chain, so the per-channel sequences plus the order on
    (channel, ordinal) pairs determine the system up to isomorphism.
    """
    by_chan: dict[str, list[int]] = {}
    for i, e in enumerate(sys.events):
        by_chan.setdefault(e.chan, []).append(i)
    canon: list[int] = []  # event indices in canonical order
    channels = []
    for chan in sorted(by_chan):
        chain, bad = chain_order(by_chan[chan], sys.ancestors)
        if bad is not None:
            raise CanonicalizeError(f"events on channel {chan!r} are not totally ordered")
        canon.extend(chain)
        channels.append((chan, tuple(sys.events[i].msg for i in chain)))
    return CanonicalRun(tuple(channels), _induced_masks(sys.ancestors, canon))

