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
distinct execution is grown once, one event at a time, as its labels in
firing order and each event's direct predecessors (the last events of its
endpoints).  Its CanonicalRun is built once, at the end, by one pass over
the firing order that ORs each event's predecessors' ancestor masks,
numbered in canonical-id order.  Executions come out in the reverse of
the order the search first reached them; that order follows only the
frame's channel order and sorted values, never string hashing, so it is
the same in every process.  No run is written out as text here; a report
that prints executions puts them in order itself.

Restricting an execution to a channel set C keeps every event on C, so
canonical ids survive restriction and the restricted order is the masks
compressed to the kept events (``ExecutionSet.runs_at`` through
``CanonicalRun.restrict``, once per channel set and execution set).  The
execution sets themselves are cached per (frame, bound); that cache is the
package's only process-level one.  Every analysis result is relative to the
bound, and callers are expected to surface that bound in their reports.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable

from .events import CanonicalRun, EventSystem
from .frames import (
    Frame,
    InputError,
    _compared_by,
    _Record,
    behavior_start,
    behavior_step,
    validate_frame,
)


class EnumerationError(InputError):
    """Raised for malformed frames or bounds."""


class Bound(_Record):
    """Event budget for enumeration.  ``max_total_events`` bounds the
    whole execution; the optional per-location cap counts the events a
    location participates in (a self-loop event counts once)."""

    __slots__ = ("max_total_events", "max_events_per_location")
    __eq__, __hash__ = _compared_by(*__slots__)

    def __init__(self, max_total_events: int, max_events_per_location: int | None = None) -> None:
        if max_total_events < 0:
            raise EnumerationError("max_total_events must be >= 0")
        per = max_events_per_location
        if per is not None and per < 0:
            raise EnumerationError("max_events_per_location must be >= 0")
        if per is not None and per > max_total_events:
            raise EnumerationError("per-location bound must not exceed the total bound")
        self._fill(max_total_events, per)


class ExecutionSet(_Record):
    """All minimal-order executions of a frame within a bound, one per
    isomorphism class, in the search's deterministic order.

    The set memoizes its executions' local runs: each channel set is
    restricted once, on the first ``runs_at`` call, and kept as long as the
    set.  The memo is private state, not a field, so it takes no part in
    ``repr`` or pickling; equality is identity."""

    __slots__ = ("frame", "bound", "canonicals", "_runs")

    def __init__(self, frame: Frame, bound: Bound, canonicals: tuple[CanonicalRun, ...]) -> None:
        self._fill(frame, bound, canonicals, {})

    def __len__(self) -> int:
        return len(self.canonicals)

    @property
    def systems(self) -> tuple[EventSystem, ...]:
        """Every execution as an event system, events in canonical order.
        Built on each access."""
        return tuple(run.to_event_system() for run in self.canonicals)

    def runs_at(self, chans: Iterable[str]) -> tuple[CanonicalRun, ...]:
        """Every execution's local run at ``chans``, in execution order."""
        keep = self.frame.check_channels(chans)
        runs = self._runs.get(keep)
        if runs is None:
            runs = self._runs[keep] = tuple(run.restrict(keep) for run in self.canonicals)
        return runs


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
    # each event's two direct predecessors, -1 for none).
    found: dict[tuple, tuple] = {empty_key: ((), ())}
    # Worklist entries: key, successor row per location, last event per
    # location (-1 for none), then the execution as stored in ``found``.
    start = tuple(row(i, behavior_start(spec)) for i, spec in enumerate(specs))
    stack = [(empty_key, start, (-1,) * len(specs), (), ())]
    while stack:
        key, here, last, labels, preds = stack.pop()
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
                record = (labels + (label,), preds + ((last[s], last[r]),))
                found[key2] = record
                if n + 1 < total:
                    last2 = list(last)
                    last2[s] = last2[r] = n
                    here2 = list(here)
                    here2[s] = row(s, next_s)
                    here2[r] = row(r, next_r)
                    stack.append((key2, tuple(here2), tuple(last2)) + record)

    # Channel entries recur across executions; one shared object per value
    # keeps the set small.
    shared: dict = {}
    built = []
    while found:
        labels, preds = found.popitem()[1]
        by_chan: dict[str, list[int]] = {}
        for f, (chan, _) in enumerate(labels):
            by_chan.setdefault(chan, []).append(f)
        canon = []  # firing indices in canonical-id order
        channels = []
        for chan in sorted(by_chan):
            canon.extend(by_chan[chan])
            cm = (chan, tuple(labels[f][1] for f in by_chan[chan]))
            channels.append(shared.setdefault(cm, cm))
        bit = [0] * len(canon)
        for p, f in enumerate(canon):
            bit[f] = 1 << p
        # Firing order is topological, so each event's predecessors are
        # done before it; up[f] is event f and everything below it, and
        # up[-1], the slot past the end, stays 0 for "no predecessor".
        up = [0] * (len(canon) + 1)
        for f, (a, b) in enumerate(preds):
            up[f] = bit[f] | up[a] | up[b]
        built.append(CanonicalRun(tuple(channels), tuple(up[f] ^ bit[f] for f in canon)))
    return ExecutionSet(frame, bound, tuple(built))


def enumerate_runs(frame: Frame, chans: Iterable[str], bound: Bound) -> frozenset[CanonicalRun]:
    """All local runs at the given channels: the restrictions of the
    bounded executions."""
    keep = frame.check_channels(chans)
    return frozenset(enumerate_executions(frame, bound).runs_at(keep))
