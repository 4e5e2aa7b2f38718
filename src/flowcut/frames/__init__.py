"""
Static frames: locations, channels, data values, and per-location behavior.

A frame is a directed multigraph of locations connected by unidirectional
channels.  Each location owns a prefix-closed set of traces over labels
(channel, value); a channel whose sender and recipient coincide is a
self-loop.  Behaviors may be given either as an explicit finite trace set
(the test-fixture form) or as a finite labeled transition system (the
machine form).  Frames are immutable after construction and all operations
here are pure functions.

The base the records build on, the input error and the event budget
``Bound`` are defined in the package and re-exported here, so a purge
command, which builds no frame, loads no frame model.  The blur forms a
frame file declares are in the submodule ``blurforms``, which only the
code that reads or builds blurs imports.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Union

from .. import (  # noqa: F401 (re-exported)
    Bound,
    EnumerationError,
    InputError,
    Label,
    _compared_by,
    _Record,
    _set,
)

Trace = tuple[Label, ...]


class FrameError(InputError):
    """Raised for malformed frames or unresolvable references."""


class UnknownChannelError(FrameError):
    """A channel id does not name a channel of the frame."""


class Channel(_Record):
    """A one-directional conduit; ``sender`` holds the entry endpoint,
    ``recipient`` the exit endpoint.  Self-loop iff sender == recipient."""

    __slots__ = ("id", "sender", "recipient")
    __eq__, __hash__ = _compared_by(*__slots__)

    def __init__(self, id: str, sender: str, recipient: str) -> None:
        self._fill(id, sender, recipient)

    @property
    def is_self_loop(self) -> bool:
        return self.sender == self.recipient


class ExplicitTraces(_Record):
    """A finite, explicitly listed trace set.  Must be prefix-closed; the
    empty trace is always a member of a well-formed set."""

    __slots__ = ("traces",)
    __eq__, __hash__ = _compared_by(*__slots__)

    def __init__(self, traces: frozenset[Trace]) -> None:
        self._fill(traces)

    @staticmethod
    def of(*traces: Iterable[Label]) -> "ExplicitTraces":
        """Build from the given traces, adding all prefixes."""
        closed: set[Trace] = {()}
        for t in traces:
            tt = tuple((str(c), str(v)) for c, v in t)
            for i in range(len(tt) + 1):
                closed.add(tt[:i])
        return ExplicitTraces(frozenset(closed))

    def prefix_violations(self) -> list[Trace]:
        """Traces whose immediate prefix is missing (empty iff closed)."""
        bad = []
        for t in sorted(self.traces):
            if t and t[:-1] not in self.traces:
                bad.append(t)
        if () not in self.traces:
            bad.append(())
        return bad

    def labels(self) -> set[Label]:
        return {lab for t in self.traces for lab in t}


class Lts(_Record):
    """A finite labeled transition system; generates a prefix-closed trace
    set by construction.  May be nondeterministic."""

    __slots__ = ("states", "initial", "transitions", "_moves")
    # ``_moves`` maps each (state, label) that has a transition to its
    # target states, so a step looks its targets up instead of scanning.
    __eq__, __hash__ = _compared_by(*__slots__[:-1])

    def __init__(
        self, states: frozenset[str], initial: str, transitions: frozenset[tuple[str, Label, str]]
    ) -> None:
        moves = {(s, lab): frozenset((t,)) for s, lab, t in transitions}
        if len(moves) < len(transitions):  # some move has several targets
            for s, lab, t in transitions:
                moves[s, lab] |= {t}
        self._fill(states, initial, transitions, moves)

    def labels(self) -> set[Label]:
        return {lab for _, lab, _ in self.transitions}


TraceSpec = Union[ExplicitTraces, Lts]


class Location(_Record):
    __slots__ = ("id", "behavior")
    __eq__, __hash__ = _compared_by(*__slots__)

    def __init__(self, id: str, behavior: TraceSpec) -> None:
        self._fill(id, behavior)


class Frame(_Record):
    """An immutable frame.  ``locations`` and ``channels`` are kept sorted
    by id so equal frames hash and compare equal."""

    __slots__ = ("locations", "channels", "data")
    __eq__, __hash__ = _compared_by(*__slots__)

    def __init__(
        self, locations: tuple[Location, ...], channels: tuple[Channel, ...], data: frozenset[str]
    ) -> None:
        self._fill(locations, channels, data)

    @staticmethod
    def build(
        locations: Iterable[Location],
        channels: Iterable[Channel],
        data: Iterable[str],
    ) -> "Frame":
        locs = tuple(sorted(locations, key=lambda l: l.id))
        chans = tuple(sorted(channels, key=lambda c: c.id))
        return Frame(locs, chans, frozenset(str(d) for d in data))

    # -- lookup helpers -------------------------------------------------

    @property
    def location_ids(self) -> tuple[str, ...]:
        return tuple(l.id for l in self.locations)

    @property
    def channel_ids(self) -> tuple[str, ...]:
        return tuple(c.id for c in self.channels)

    def location(self, loc_id: str) -> Location:
        for l in self.locations:
            if l.id == loc_id:
                return l
        raise FrameError(f"unknown location: {loc_id!r}")

    def channel(self, chan_id: str) -> Channel:
        for c in self.channels:
            if c.id == chan_id:
                return c
        raise UnknownChannelError(f"unknown channel: {chan_id!r}")

    def chans(self, locs: str | Iterable[str]) -> frozenset[str]:
        """Channels with an endpoint at any of the given locations."""
        if isinstance(locs, str):
            locs = {locs}
        locset = set(locs)
        return frozenset(
            c.id for c in self.channels if c.sender in locset or c.recipient in locset
        )

    def pends(self, chans: Iterable[str]) -> frozenset[str]:
        """Locations holding an endpoint of any of the given channels."""
        out: set[str] = set()
        for cid in chans:
            c = self.channel(cid)
            out.add(c.sender)
            out.add(c.recipient)
        return frozenset(out)

    def check_channels(self, chans: Iterable[str]) -> frozenset[str]:
        """Validate a channel-id collection, returning it as a frozenset."""
        out = frozenset(chans)
        known = set(self.channel_ids)
        unknown = out - known
        if unknown:
            raise UnknownChannelError(f"unknown channels: {sorted(unknown)}")
        return out


# -- behavior stepping ---------------------------------------------------
#
# Both TraceSpec forms are driven through one stepping interface.  A
# behavior state is the residual-language identifier: the consumed prefix
# for ExplicitTraces, the subset of reachable LTS states for an Lts.
# Subset construction collapses nondeterministic branching so that equal
# label sequences always reach equal states.


def behavior_start(spec: TraceSpec):
    if isinstance(spec, ExplicitTraces):
        return ()
    return frozenset({spec.initial})


def behavior_step(spec: TraceSpec, state, label: Label):
    """Advance by one label; None if the label is not enabled."""
    if isinstance(spec, ExplicitTraces):
        nxt = state + (label,)
        return nxt if nxt in spec.traces else None
    moves = spec._moves
    if len(state) == 1:
        (s,) = state
        return moves.get((s, label))
    targets = frozenset().union(*(moves.get((s, label), ()) for s in state))
    return targets or None


def behavior_enabled(spec: TraceSpec, state) -> set[Label]:
    if isinstance(spec, ExplicitTraces):
        n = len(state)
        return {t[n] for t in spec.traces if len(t) > n and t[:n] == state}
    return {lab for (s, lab, _) in spec.transitions if s in state}


def accepts_trace(spec: TraceSpec, trace: Iterable[Label]) -> bool:
    """Membership of a label sequence in the trace set of ``spec``."""
    state = behavior_start(spec)
    for lab in trace:
        state = behavior_step(spec, state, lab)
        if state is None:
            return False
    return True


# -- validation ----------------------------------------------------------


class Violation(_Record):
    __slots__ = ("code", "message")

    def __init__(self, code: str, message: str) -> None:
        self._fill(code, message)


class ValidationReport(_Record):
    __slots__ = ("violations",)

    def __init__(self, violations: tuple[Violation, ...] = ()) -> None:
        self._fill(violations)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def validate_frame(frame: Frame) -> ValidationReport:
    """Check the well-formedness conditions of a frame.

    Violations are data, not failures: the report lists every broken
    condition (dangling endpoints, duplicate ids, labels on foreign
    channels, non-prefix-closed explicit trace sets, data values outside
    the declared domain).
    """
    out: list[Violation] = []
    loc_ids = [l.id for l in frame.locations]
    chan_ids = [c.id for c in frame.channels]

    for dup in _duplicates(loc_ids):
        out.append(Violation("duplicate-location", f"location id {dup!r} declared twice"))
    for dup in _duplicates(chan_ids):
        # Two channel records with one id would hand the same endpoint to
        # two locations, the analogue of duplicate endpoint ownership.
        out.append(Violation("duplicate-channel", f"channel id {dup!r} declared twice"))

    known_locs = set(loc_ids)
    for c in frame.channels:
        for end, loc in (("entry", c.sender), ("exit", c.recipient)):
            if loc not in known_locs:
                out.append(
                    Violation(
                        "dangling-endpoint",
                        f"channel {c.id!r} {end} endpoint names unknown location {loc!r}",
                    )
                )

    for loc in frame.locations:
        own = frame.chans(loc.id) if not any(v.code == "duplicate-channel" for v in out) else None
        spec = loc.behavior
        if isinstance(spec, ExplicitTraces):
            for t in spec.prefix_violations():
                out.append(
                    Violation(
                        "not-prefix-closed",
                        f"traces({loc.id}) misses a prefix of {_fmt_trace(t)}",
                    )
                )
        else:
            if spec.initial not in spec.states:
                out.append(
                    Violation("bad-lts", f"lts of {loc.id!r}: initial state not declared")
                )
            for (s, _lab, t) in spec.transitions:
                if s not in spec.states or t not in spec.states:
                    out.append(
                        Violation("bad-lts", f"lts of {loc.id!r}: transition uses unknown state")
                    )
        for (cid, val) in sorted(spec.labels()):
            if cid not in set(chan_ids):
                out.append(
                    Violation(
                        "foreign-channel",
                        f"traces({loc.id}) uses unknown channel {cid!r}",
                    )
                )
            elif own is not None and cid not in own:
                out.append(
                    Violation(
                        "foreign-channel",
                        f"traces({loc.id}) uses channel {cid!r} not at {loc.id}",
                    )
                )
            if val not in frame.data:
                out.append(
                    Violation(
                        "value-outside-domain",
                        f"traces({loc.id}) uses value {val!r} outside the data domain",
                    )
                )
    return ValidationReport(tuple(out))


def _duplicates(items: list[str]) -> list[str]:
    seen: set[str] = set()
    dups: list[str] = []
    for x in items:
        if x in seen and x not in dups:
            dups.append(x)
        seen.add(x)
    return dups


def _fmt_trace(t: Trace) -> str:
    return "<" + ",".join(f"({c},{v})" for c, v in t) + ">"


# -- language ------------------------------------------------------------


def location_language(loc: Location, max_len: int) -> set[Trace]:
    """All traces of the location of length <= ``max_len``.

    The result is prefix-closed and always contains the empty trace.
    """
    if max_len < 0:
        raise ValueError("max_len must be >= 0")
    spec = loc.behavior
    if isinstance(spec, ExplicitTraces):
        return {t for t in spec.traces if len(t) <= max_len}
    out: set[Trace] = set()
    frontier: dict[Trace, object] = {(): behavior_start(spec)}
    for _ in range(max_len + 1):
        out.update(frontier)
        nxt: dict[Trace, object] = {}
        for trace, state in frontier.items():
            if len(trace) >= max_len:
                continue
            for lab in behavior_enabled(spec, state):
                t2 = trace + (lab,)
                if t2 not in out and t2 not in nxt:
                    nxt[t2] = behavior_step(spec, state, lab)
        if not nxt:
            break
        frontier = nxt
    return out


def shortest_language_difference(a: TraceSpec, b: TraceSpec) -> Trace | None:
    """Shortest label sequence in exactly one of the two trace sets, or
    None if they are equal.  A breadth-first walk visits each pair of
    behavior states once; both forms have finitely many, so the answer is
    exact for explicit sets, LTSs and mixed pairs alike."""
    start = (behavior_start(a), behavior_start(b))
    seen = {start}
    queue = deque([((), *start)])
    while queue:
        trace, sa, sb = queue.popleft()
        for lab in sorted(behavior_enabled(a, sa) | behavior_enabled(b, sb)):
            na, nb = behavior_step(a, sa, lab), behavior_step(b, sb, lab)
            if na is None or nb is None:
                return trace + (lab,)
            if (na, nb) not in seen:
                seen.add((na, nb))
                queue.append((trace + (lab,), na, nb))
    return None
