"""
Bounded exhaustive enumeration of executions and local runs.

The search walks the space of minimal-order executions directly: starting
from the empty execution, it repeatedly fires an enabled channel step and
attaches the new event above the latest events of the sender and recipient
locations.  A step on channel c with value v is enabled only when the
label (c, v) is enabled at both endpoints simultaneously (synchronous
message passing); a self-loop channel consults its single location once.

The order attached to each execution is the least partial order making
every location projection a chain.  Distinct firing sequences reaching
isomorphic posets are collapsed via canonical forms, which restores the
true-concurrency reading: independent events stay incomparable.  Every
analysis result is therefore relative to the bound, and callers are
expected to surface that bound in their reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .events import CanonicalRun, Event, EventSystem, canonicalize
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
    isomorphism class, sorted by canonical serialization."""

    frame: Frame
    bound: Bound
    systems: tuple[EventSystem, ...]
    canonicals: tuple[CanonicalRun, ...]

    def __len__(self) -> int:
        return len(self.systems)

    def __iter__(self):
        return iter(self.systems)


def enumerate_executions(frame: Frame, bound: Bound) -> ExecutionSet:
    """Enumerate every minimal-order execution with at most the bounded
    number of events, deduplicated by canonical form."""
    report = validate_frame(frame)
    if not report.ok:
        raise EnumerationError(
            "frame is not well-formed: " + "; ".join(v.message for v in report.violations)
        )
    return _enumerate_cached(frame, bound)


@lru_cache(maxsize=256)
def _enumerate_cached(frame: Frame, bound: Bound) -> ExecutionSet:
    behaviors = {loc.id: loc.behavior for loc in frame.locations}
    values = sorted(frame.data)
    channels = list(frame.channels)

    empty = EventSystem.empty()
    start_config = {lid: behavior_start(spec) for lid, spec in behaviors.items()}
    found: dict[CanonicalRun, EventSystem] = {canonicalize(empty): empty}
    # Behaviour steps of this enumeration, filled on first use:
    # (location, state, label) -> next state, or None when not enabled.
    step_table: dict[tuple, object] = {}
    # Worklist entries: (events, ancestor sets, last event per location,
    # per-location behavior states, per-location event counts).
    queue: list[tuple[list[Event], list[frozenset[int]], dict, dict, dict]] = [
        ([], [], {}, start_config, {lid: 0 for lid in behaviors})
    ]
    per_loc = bound.max_events_per_location

    while queue:
        events, anc, last, config, counts = queue.pop()
        if len(events) >= bound.max_total_events:
            continue
        for chan in channels:
            locs = (chan.sender,) if chan.is_self_loop else (chan.sender, chan.recipient)
            if per_loc is not None and any(counts[l] + 1 > per_loc for l in locs):
                continue
            for value in values:
                label = (chan.id, value)
                steps = {}
                for l in locs:
                    step_key = (l, config[l], label)
                    try:
                        nxt = step_table[step_key]
                    except KeyError:
                        nxt = step_table[step_key] = behavior_step(behaviors[l], config[l], label)
                    if nxt is None:
                        break
                    steps[l] = nxt
                else:
                    new_idx = len(events)
                    pred: set[int] = set()
                    for l in locs:
                        if l in last:
                            pred.add(last[l])
                            pred |= anc[last[l]]
                    events2 = events + [Event(chan.id, value)]
                    anc2 = anc + [frozenset(pred)]
                    sys = _assemble(events2, anc2)
                    crun = canonicalize(sys)
                    if crun in found:
                        continue
                    found[crun] = sys
                    last2 = dict(last)
                    for l in locs:
                        last2[l] = new_idx
                    config2 = dict(config)
                    config2.update(steps)
                    counts2 = dict(counts)
                    for l in locs:
                        counts2[l] += 1
                    queue.append((events2, anc2, last2, config2, counts2))

    ordered = sorted(found.items(), key=lambda kv: kv[0].serialize())
    systems = tuple(sys for _, sys in ordered)
    canonicals = tuple(crun for crun, _ in ordered)
    return ExecutionSet(frame, bound, systems, canonicals)


def _assemble(events: list[Event], anc: list[frozenset[int]]) -> EventSystem:
    strict = frozenset((a, b) for b, preds in enumerate(anc) for a in preds)
    return EventSystem(tuple(events), strict)


def enumerate_runs(frame: Frame, chans: Iterable[str], bound: Bound) -> frozenset[CanonicalRun]:
    """All local runs at the given channels: canonical restrictions of the
    bounded executions."""
    keep = frame.check_channels(chans)
    exset = enumerate_executions(frame, bound)
    return frozenset(canonicalize(sys.restrict(keep)) for sys in exset.systems)
