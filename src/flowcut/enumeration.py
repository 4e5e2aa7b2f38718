"""
Bounded exhaustive enumeration of executions and local runs.

The search walks the space of minimal-order executions directly: starting
from the empty execution, it repeatedly fires an enabled channel step and
attaches the new event above the latest events of the sender and recipient
locations.  A step on channel c with value v is enabled only when the
label (c, v) is enabled at both endpoints simultaneously (synchronous
message passing); a self-loop channel consults its single location once.
Each location's enabled steps are read from a successor row built once per
(location, behaviour state) of the enumeration.

The order attached to each execution is the least partial order making
every location projection a chain.  Such an execution is determined by
the tuple of its locations' label sequences: the k-th ``c`` label at the
sender and the k-th ``c`` label at the recipient are the same event, with
canonical id ``(c, k)``.  Firing sequences that differ only in the order of
independent events reach the same tuple, so the search dedups on it (the
trace-theory view of an execution as its location projections).  Each
distinct execution is built once, in compact form: the canonical id of
every event in one firing order, each event's ancestors as an int bitmask
over that order, and its covering pairs, grown one event at a time.  Its
CanonicalRun is assembled once, at the end.

Restricting an execution to a channel set C keeps every event on C, so
canonical ids survive restriction and the restricted order is read off
the ancestor masks (``ExecutionSet.runs_at`` through
``events.covering_pairs``).  Every analysis result is
relative to the bound, and callers are expected to surface that bound in
their reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .events import CanonicalId, CanonicalRun, Event, EventSystem, covering_pairs
from .frames import (
    Frame,
    behavior_start,
    behavior_step,
    validate_frame,
)


class EnumerationError(ValueError):
    """Raised for malformed frames or bounds."""


@dataclass(frozen=True)
class Bound:
    """Event budget for enumeration.  ``max_total_events`` bounds the
    whole execution; the optional per-location cap counts the events a
    location participates in (a self-loop event counts once)."""

    max_total_events: int
    max_events_per_location: int | None = None

    def __post_init__(self) -> None:
        if self.max_total_events < 0:
            raise EnumerationError("max_total_events must be >= 0")
        per = self.max_events_per_location
        if per is not None and per < 0:
            raise EnumerationError("max_events_per_location must be >= 0")
        if per is not None and per > self.max_total_events:
            raise EnumerationError("per-location bound must not exceed the total bound")


@dataclass(frozen=True)
class ExecutionSet:
    """All minimal-order executions of a frame within a bound, one per
    isomorphism class, sorted by canonical serialization.

    Execution i is ``canonicals[i]``; ``ids[i]`` lists its events'
    canonical ids in one firing order and ``ancestors[i]`` each event's
    strict predecessors as a bitmask over that order."""

    frame: Frame
    bound: Bound
    canonicals: tuple[CanonicalRun, ...]
    ids: tuple[tuple[CanonicalId, ...], ...]
    ancestors: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.canonicals)

    @property
    def systems(self) -> tuple[EventSystem, ...]:
        """Every execution as an event system, events in firing order,
        with the stored ancestor masks.  Built on each access."""
        out = []
        for crun, ids, anc in zip(self.canonicals, self.ids, self.ancestors):
            msgs = dict(crun.channels)
            out.append(EventSystem(tuple(Event(chan, msgs[chan][k]) for chan, k in ids), anc))
        return tuple(out)

    def runs_at(self, chans: Iterable[str]) -> tuple[CanonicalRun, ...]:
        """Every execution's local run at ``chans``, in execution order."""
        keep = self.frame.check_channels(chans)
        empty = CanonicalRun.empty()
        out = []
        for crun, ids, anc in zip(self.canonicals, self.ids, self.ancestors):
            channels = tuple(cm for cm in crun.channels if cm[0] in keep)
            if len(channels) == len(crun.channels):
                out.append(crun)
                continue
            if not channels:
                out.append(empty)
                continue
            kept = [b for b, cid in enumerate(ids) if cid[0] in keep]
            order = sorted((ids[a], ids[b]) for a, b in covering_pairs(anc, kept))
            out.append(CanonicalRun(channels, tuple(order)))
        return tuple(out)


def enumerate_executions(frame: Frame, bound: Bound) -> ExecutionSet:
    """Enumerate every minimal-order execution with at most the bounded
    number of events, each once."""
    report = validate_frame(frame)
    if not report.ok:
        raise EnumerationError(
            "frame is not well-formed: " + "; ".join(v.message for v in report.violations)
        )
    return _enumerate_cached(frame, bound)


@lru_cache(maxsize=256)
def _enumerate_cached(frame: Frame, bound: Bound) -> ExecutionSet:
    specs = [loc.behavior for loc in frame.locations]
    index = {loc.id: i for i, loc in enumerate(frame.locations)}
    values = sorted(frame.data)
    chans = [(c.id, index[c.sender], index[c.recipient]) for c in frame.channels]
    own = [[c for c, s, r in chans if i in (s, r)] for i in range(len(specs))]

    # (location, behaviour state) -> {channel: {value: next state}}, the
    # values in sorted order; channels with nothing enabled are absent.
    rows: dict[tuple, dict] = {}

    def row(i: int, state) -> dict:
        try:
            return rows[i, state]
        except KeyError:
            pass
        out = {}
        for chan in own[i]:
            steps = {}
            for value in values:
                nxt = behavior_step(specs[i], state, (chan, value))
                if nxt is not None:
                    steps[value] = nxt
            if steps:
                out[chan] = steps
        rows[i, state] = out
        return out

    total = bound.max_total_events
    per_loc = bound.max_events_per_location
    empty_key = ((),) * len(specs)
    # Dedup key (per-location label sequences) -> (labels in firing order,
    # ancestor masks, covered events per event).
    found: dict[tuple, tuple] = {empty_key: ((), (), ())}
    # Worklist entries: key, successor row per location, last event per
    # location (-1 for none), then the execution as stored in ``found``.
    start = tuple(row(i, behavior_start(spec)) for i, spec in enumerate(specs))
    stack = [(empty_key, start, (-1,) * len(specs), (), (), ())]
    while stack:
        key, here, last, labels, anc, covers = stack.pop()
        n = len(labels)
        if n >= total:
            continue
        for chan, s, r in chans:
            if per_loc is not None and (len(key[s]) >= per_loc or len(key[r]) >= per_loc):
                continue
            steps_s = here[s].get(chan)
            if steps_s is None:
                continue
            steps_r = steps_s if s == r else here[r].get(chan)
            if steps_r is None:
                continue
            for value, next_s in steps_s.items():
                next_r = steps_r.get(value)
                if next_r is None:
                    continue
                label = (chan, value)
                key2 = list(key)
                key2[s] = key[s] + (label,)
                key2[r] = key2[s] if s == r else key[r] + (label,)
                key2 = tuple(key2)
                if key2 in found:
                    continue
                a, b = last[s], last[r]
                pred = 0
                if a >= 0:
                    pred = anc[a] | 1 << a
                if b >= 0:
                    pred |= anc[b] | 1 << b
                # The new event covers each endpoint's last event that lies
                # below neither of the others.
                if a < 0:
                    cov = () if b < 0 else (b,)
                elif b < 0 or a == b or anc[a] >> b & 1:
                    cov = (a,)
                elif anc[b] >> a & 1:
                    cov = (b,)
                else:
                    cov = (a, b)
                record = (labels + (label,), anc + (pred,), covers + (cov,))
                found[key2] = record
                if n + 1 < total:
                    last2 = list(last)
                    last2[s] = last2[r] = n
                    here2 = list(here)
                    here2[s] = row(s, next_s)
                    here2[r] = row(r, next_r)
                    stack.append((key2, tuple(here2), tuple(last2)) + record)

    # Canonical ids, covering pairs and channel entries recur across
    # executions; one shared object per value keeps the set small.
    shared: dict = {}
    built = []
    while found:
        labels, anc, covers = found.popitem()[1]
        counts: dict[str, int] = {}
        msgs: dict[str, list[str]] = {}
        ids = []
        for chan, value in labels:
            k = counts.get(chan, 0)
            counts[chan] = k + 1
            cid = (chan, k)
            ids.append(shared.setdefault(cid, cid))
            msgs.setdefault(chan, []).append(value)
        order = sorted(
            shared.setdefault(pair, pair)
            for pair in ((ids[a], ids[b]) for b, cov in enumerate(covers) for a in cov)
        )
        channels = ((chan, tuple(msgs[chan])) for chan in sorted(msgs))
        crun = CanonicalRun(
            tuple(shared.setdefault(cm, cm) for cm in channels), tuple(order)
        )
        built.append((crun.serialize(), crun, tuple(ids), anc))
    built.sort(key=lambda entry: entry[0])
    return ExecutionSet(
        frame,
        bound,
        tuple(entry[1] for entry in built),
        tuple(entry[2] for entry in built),
        tuple(entry[3] for entry in built),
    )


def enumerate_runs(frame: Frame, chans: Iterable[str], bound: Bound) -> frozenset[CanonicalRun]:
    """All local runs at the given channels: the restrictions of the
    bounded executions."""
    keep = frame.check_channels(chans)
    return frozenset(enumerate_executions(frame, bound).runs_at(keep))
