"""
Bounded exhaustive enumeration of executions and local runs.

The search walks the space of minimal-order executions directly: starting
from the empty execution, it repeatedly fires an enabled channel step and
attaches the new event above the latest events of the sender and recipient
locations.  A step on channel c with value v is enabled only when the
label (c, v) is enabled at both endpoints simultaneously (synchronous
message passing); a self-loop channel consults its single location once.
Each location's enabled steps are read from a successor row built once per
(location, behaviour state) of the enumeration, from the labels the
location's move table enables in that state.

The order attached to each execution is the least partial order making
every location projection a chain.  Such an execution is determined by
the tuple of its locations' label sequences: the k-th ``c`` label at the
sender and the k-th ``c`` label at the recipient are the same event, with
canonical id ``(c, k)``.  So an execution's firing sequences differ only in
the order of independent events, events that share no location (the
trace-theory view of an execution as its location projections), and the
search fires only the least of them in channel-id order: a step is taken
only if no event after the last one at its endpoints lies on a later
channel, which it could move left past.  Each distinct execution is then
reached once, from one parent, by one event, with no record of the
executions seen, and the search keeps only its tree: per execution, the
parent, the channel step and the value.  Executions come out in the
reverse of the order the search first reached them; that order follows
only the frame's channel order and sorted values, never string hashing,
so it is the same in every process.  A report that prints executions
puts them in order itself.

``ExecutionSet.texts`` writes every execution's text, its canonical
run's serialization, along the same tree without building a run: a
child keeps its parent's channel entries but one and its parent's
covering pairs, and adds the pairs from its new event's covers, the last
events at the event's two endpoints less one that lies below the other.
Only the functions that build runs import ``events``, so printing the
executions loads no run type.

Restricting an execution to a channel set C keeps every event on C, so
canonical ids survive restriction, and one walk down the tree, parents
first, builds every execution's run at C.  An execution whose new event
is off C has its parent's run, the same object: a maximal event outside C
changes no order on C.  One whose new event is on C has its parent's run
with the event inserted at the end of its channel: mask bits at or above
its position move up one, and its mask is the kept events at or below the last
events of its two endpoints, which the walk keeps per location.  The
canonical runs are that walk at all channels.  ``ExecutionSet.runs_at``
makes it once per channel set and execution set, on first use.  An
execution set is made only from its frame and bound, by the search, so a
copy or a pickle searches again; the sets are cached per (frame, bound),
and that cache is the package's only process-level one.  Every analysis
result is relative to the bound, and callers are expected to surface that
bound in their reports.
"""

from __future__ import annotations

from bisect import bisect
from functools import lru_cache
from itertools import islice
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Iterable

from .frames import (  # Bound and EnumerationError are re-exported here
    Bound,
    EnumerationError,
    Frame,
    _Record,
    behavior_enabled,
    behavior_start,
    behavior_step,
    validate_frame,
)

if TYPE_CHECKING:
    from .events import CanonicalRun, EventSystem


class ExecutionSet(_Record):
    """All minimal-order executions of a frame within a bound, one per
    isomorphism class, in the search's deterministic order.

    Construction validates the frame and runs the search.  The set keeps
    the search tree and builds every channel set's local runs from it in
    one pass, on the first ``runs_at`` call; ``canonicals`` is the pass at
    all channels.  The runs are kept as long as the set.  The tree and the
    runs are private state, not fields: ``repr`` shows the frame and the
    bound, a copy or a pickle searches again from them, and equality is
    identity."""

    __slots__ = ("frame", "bound", "_tree", "_runs")

    def __init__(self, frame: Frame, bound: Bound) -> None:
        report = validate_frame(frame)
        if not report.ok:
            raise EnumerationError(
                "frame is not well-formed: " + "; ".join(v.message for v in report.violations)
            )
        self._fill(frame, bound, _search(frame, bound), {})

    def __len__(self) -> int:
        return len(self._tree[0])

    @property
    def canonicals(self) -> tuple[CanonicalRun, ...]:
        """Every execution as a canonical run, in execution order."""
        return self.runs_at(self.frame.channel_ids)

    @property
    def systems(self) -> tuple[EventSystem, ...]:
        """Every execution as an event system, events in canonical order.
        Built on each access.  Kept only because ``perfbench/probe.py``
        reads it and ``perfbench/tracecmd.py`` wraps ``EventSystem.restrict``,
        until the benchmark stops using them (ROADMAP item 1)."""
        return tuple(run.to_event_system() for run in self.canonicals)

    def runs_at(self, chans: Iterable[str]) -> tuple[CanonicalRun, ...]:
        """Every execution's local run at ``chans``, in execution order."""
        keep = self.frame.check_channels(chans)
        runs = self._runs.get(keep)
        if runs is None:
            runs = self._runs[keep] = _local_runs(self, keep)
        return runs

    def texts(self) -> list[str]:
        """Every execution's text, ``serialize()`` of its canonical run, in
        execution order, written along the search tree without building a
        run.  Built on each call.

        An execution is its parent plus one maximal event, the last on its
        channel, so its text keeps its parent's channel entries but one and
        its parent's covering pairs, adding the pairs from the new event's
        covers: the last events at its sender and its recipient, less one
        that lies below (or is) the other.  Events are numbered by channel
        rank and ordinal, which orders the pairs canonically."""
        parents, steps, values, n_locs = self._tree
        names = sorted(self.frame.channel_ids)
        rank = {chan: k for k, chan in enumerate(names)}
        span = self.bound.max_total_events  # more than any ordinal
        width = len(names) * span  # more than any event number
        has_child = bytearray(len(parents))
        for p in islice(parents, 1, None):
            has_child[p] = 1
        # (channel rank, entry text or None, value) -> the entry with the
        # value appended: its text, and the new event's number and id text.
        entries: dict = {}
        numbers: dict = {}  # entry text -> the number of its last event
        # Per execution while it still has children to build: its entry
        # texts by channel rank (None for a channel without events), its
        # covering pairs' numbers and texts in canonical order, per location
        # its last event or None, and its number of events.  An event is
        # (mask of the events at or below it by firing position, number, id).
        states: list = [([None] * len(names), [], [], (None,) * n_locs, 0)]
        out = ['{"ch":[],"ord":[]}']
        prev = 0
        for i in range(1, len(parents)):
            p = parents[i]
            if p != prev:  # a parent's children are contiguous: prev is done
                states[prev] = None
                prev = p
            chan, s, r = steps[i]
            ents, keys, pairs, last, n = states[p]
            k = rank[chan]
            old = ents[k]
            entry = entries.get((k, old, values[i]))
            if entry is None:
                if old is None:
                    num, text = k * span, f"[{_quote(chan)},[{_quote(values[i])}]]"
                else:
                    num, text = numbers[old] + 1, f"{old[:-2]},{_quote(values[i])}]]"
                numbers[text] = num
                entry = entries[k, old, values[i]] = (text, num, f"[{_quote(chan)},{num - k * span}]")
            text, num, eid = entry
            ents = ents.copy()
            ents[k] = text
            keys, pairs = keys.copy(), pairs.copy()
            # The covers are the last events at the endpoints, less one at or
            # below the other: a self-loop's, or one event at both.
            a, b = last[s], last[r]
            if a is None or b is not None and a[0] | b[0] == b[0]:
                a = None
            elif b is not None and a[0] | b[0] == a[0]:
                b = None
            mask = 1 << n
            for cover in (a, b):
                if cover is not None:
                    mask |= cover[0]
                    key = cover[1] * width + num
                    at = bisect(keys, key)
                    keys.insert(at, key)
                    pairs.insert(at, f"[{cover[2]},{eid}]")
            out.append(f'{{"ch":[{",".join(filter(None, ents))}],"ord":[{",".join(pairs)}]}}')
            if has_child[i]:
                last = list(last)
                last[s] = last[r] = (mask, num, eid)
                states.append((ents, keys, pairs, tuple(last), n + 1))
            else:
                states.append(None)
        out.reverse()
        return out


def _local_runs(exset: ExecutionSet, keep: frozenset[str]) -> tuple[CanonicalRun, ...]:
    """One pass over the executions: each one's run at the channel set
    ``keep``, in execution order."""
    from .events import _EMPTY_RUN, CanonicalRun

    parents, steps, values, n_locs = exset._tree
    has_child = bytearray(len(parents))
    for p in islice(parents, 1, None):
        has_child[p] = 1
    # Per execution, its run at ``keep`` and, while it still has children
    # to build, its frontier: per location, the mask of the kept events at
    # or below the location's last event.
    runs = [_EMPTY_RUN]
    fronts: list = [(0,) * n_locs]
    shared: dict = {}  # one object per channel entry
    prev = 0
    for i in range(1, len(parents)):
        p = parents[i]
        if p != prev:  # a parent's children are contiguous: prev is done
            fronts[prev] = None
            prev = p
        chan, s, r = steps[i]
        run, front = runs[p], fronts[p]
        below = front[s] | front[r]
        if chan in keep:
            # The new event is maximal and last on its channel: it goes in
            # at the end of its channel's entry, at position ``pos``, and
            # every mask bit at or above ``pos`` moves up one.
            channels, anc = run.channels, run.ancestors
            j = pos = 0
            for c, msgs in channels:
                if c >= chan:
                    break
                pos += len(msgs)
                j += 1
            if j < len(channels) and channels[j][0] == chan:
                msgs = channels[j][1]
                pos += len(msgs)
                entry, rest = (chan, msgs + (values[i],)), j + 1
            else:
                entry, rest = (chan, (values[i],)), j
            entry = shared.setdefault(entry, entry)
            below += below >> pos << pos
            if pos == len(anc):  # nothing to move
                anc += (below,)
            else:
                lifted = [a + (a >> pos << pos) for a in anc]
                lifted.insert(pos, below)
                anc = tuple(lifted)
                if has_child[i]:
                    front = [f + (f >> pos << pos) for f in front]
            run = CanonicalRun(channels[:j] + (entry,) + channels[rest:], anc)
            below |= 1 << pos
        runs.append(run)
        if has_child[i]:
            front = list(front)
            front[s] = front[r] = below
            fronts.append(front)
        else:
            fronts.append(None)
    runs.reverse()
    return tuple(runs)


def enumerate_executions(frame: Frame, bound: Bound) -> ExecutionSet:
    """Enumerate every minimal-order execution with at most the bounded
    number of events, each once."""
    return _enumerate_cached(frame, bound)


@lru_cache(maxsize=256)
def _enumerate_cached(frame: Frame, bound: Bound) -> ExecutionSet:
    # A malformed frame raises on every call, as exceptions are not cached.
    return ExecutionSet(frame, bound)


def _search(frame: Frame, bound: Bound) -> tuple:
    """The search tree of a well-formed frame's executions within
    ``bound``: (parents, steps, values, number of locations)."""
    specs = [loc.behavior for loc in frame.locations]
    index = {loc.id: i for i, loc in enumerate(frame.locations)}
    chans = [(c.id, index[c.sender], index[c.recipient]) for c in frame.channels]

    # (location, behaviour state) -> {channel: {value: next state}}, the
    # values in sorted order; channels with nothing enabled are absent.
    rows: dict[tuple, dict] = {}

    def row(i: int, state) -> dict:
        try:
            return rows[i, state]
        except KeyError:
            pass
        out = {}
        spec = specs[i]
        for chan, value in sorted(behavior_enabled(spec, state)):
            out.setdefault(chan, {})[value] = behavior_step(spec, state, (chan, value))
        rows[i, state] = out
        return out

    total = bound.max_total_events
    per_loc = bound.max_events_per_location
    # The search tree, in the order the search reached the executions:
    # execution i is execution parents[i] plus one event that carries
    # values[i] on steps[i] = (channel, sender, recipient).  Execution 0 is
    # the empty one.
    parents: list[int] = [-1]
    steps: list = [None]
    found_values: list = [None]
    # Worklist entries: events per location, successor row per location,
    # execution, events.
    start = tuple(row(i, behavior_start(spec)) for i, spec in enumerate(specs))
    stack = [((0,) * len(specs), start, 0, 0)]
    while stack:
        counts, here, node, n = stack.pop()
        if n >= total:
            continue
        for step in chans:
            chan, s, r = step
            if per_loc is not None and (counts[s] >= per_loc or counts[r] >= per_loc):
                continue
            steps_s = here[s].get(chan)
            if steps_s is None:
                continue
            steps_r = steps_s if s == r else here[r].get(chan)
            if steps_r is None:
                continue
            # Only an execution's least firing sequence in channel-id order
            # reaches it.  Walk back past the events at neither s nor r (a
            # step is (channel, sender, recipient)): one on a later channel
            # means this step would commute left past it.
            k = node
            while k and s not in steps[k] and r not in steps[k] and steps[k][0] < chan:
                k = parents[k]
            if k and s not in steps[k] and r not in steps[k]:
                continue
            for value, next_s in steps_s.items():
                next_r = steps_r.get(value)
                if next_r is None:
                    continue
                child = len(parents)
                parents.append(node)
                steps.append(step)
                found_values.append(value)
                if n + 1 < total:
                    here2, counts2 = list(here), list(counts)
                    here2[s] = row(s, next_s)
                    here2[r] = row(r, next_r)
                    counts2[s] += 1
                    counts2[r] += s != r
                    stack.append((tuple(counts2), tuple(here2), child, n + 1))
    return parents, steps, found_values, len(specs)


def enumerate_runs(frame: Frame, chans: Iterable[str], bound: Bound) -> frozenset[CanonicalRun]:
    """All local runs at the given channels: the restrictions of the
    bounded executions."""
    keep = frame.check_channels(chans)
    return frozenset(enumerate_executions(frame, bound).runs_at(keep))
