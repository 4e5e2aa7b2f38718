"""
Undirected cut checking and minimum-cut discovery on the frame graph.

Cuts are channel sets, not location sets: connectivity runs on the
channel-keyed undirected multigraph so parallel channels are individually
removable.  Self-loop channels never disconnect anything; they are legal
cut members only vacuously.
"""

from __future__ import annotations

from collections import defaultdict, deque
from typing import Iterable

from .frames import Frame, InputError, _compared_by, _Record


class CutSpecError(InputError):
    """Raised for unknown channels or non-disjoint channel-set triples."""


class ChannelSetTriple(_Record):
    __slots__ = ("source", "cut", "sink")

    def __init__(self, source: frozenset[str], cut: frozenset[str], sink: frozenset[str]) -> None:
        self._fill(source, cut, sink)

    @staticmethod
    def of(source: Iterable[str], cut: Iterable[str], sink: Iterable[str]) -> "ChannelSetTriple":
        return ChannelSetTriple(frozenset(source), frozenset(cut), frozenset(sink))

    def check_disjoint(self) -> None:
        if self.source & self.cut or self.source & self.sink or self.cut & self.sink:
            raise CutSpecError("source, cut, and sink channel sets must be pairwise disjoint")


class PathWitness(_Record):
    """An undirected path avoiding the cut: alternating location and
    channel ids, starting and ending at locations."""

    __slots__ = ("locations", "channels")
    __eq__, __hash__ = _compared_by(*__slots__)

    def __init__(self, locations: tuple[str, ...], channels: tuple[str, ...]) -> None:
        self._fill(locations, channels)


class CutCheck(_Record):
    __slots__ = ("is_cut", "witness")
    __eq__, __hash__ = _compared_by(*__slots__)

    def __init__(self, is_cut: bool, witness: PathWitness | None = None) -> None:
        self._fill(is_cut, witness)

    def __bool__(self) -> bool:
        return self.is_cut


def is_cut(frame: Frame, triple: ChannelSetTriple) -> CutCheck:
    """Decide whether the cut set severs every undirected path between the
    endpoint locations of the sink and source sets.

    On failure the witness is a concrete cut-avoiding path.
    """
    for cs in (triple.source, triple.cut, triple.sink):
        frame.check_channels(cs)
    triple.check_disjoint()

    # The undirected frame graph without the cut: each location's
    # (neighbour, channel) hops.
    hops: dict[str, list[tuple[str, str]]] = {}
    for c in frame.channels:
        if c.id not in triple.cut:
            hops.setdefault(c.sender, []).append((c.recipient, c.id))
            hops.setdefault(c.recipient, []).append((c.sender, c.id))
    starts = frame.pends(triple.sink)
    goals = frame.pends(triple.source)

    shared = starts & goals
    if shared:
        loc = min(shared)
        return CutCheck(False, PathWitness((loc,), ()))

    # BFS over the multigraph, remembering the channel used per hop.
    parent: dict[str, tuple[str, str] | None] = {s: None for s in starts}
    frontier = sorted(starts)
    while frontier:
        nxt: list[str] = []
        for u in frontier:
            for v, k in sorted(hops.get(u, ())):
                if v in parent:
                    continue
                parent[v] = (u, k)
                if v in goals:
                    return CutCheck(False, _backtrack(parent, v))
                nxt.append(v)
        frontier = sorted(nxt)
    return CutCheck(True)


def _backtrack(parent: dict, end: str) -> PathWitness:
    locs = [end]
    chans: list[str] = []
    cur = end
    while parent[cur] is not None:
        cur, chan = parent[cur]
        locs.append(cur)
        chans.append(chan)
    return PathWitness(tuple(reversed(locs)), tuple(reversed(chans)))


class MinCutResult(_Record):
    __slots__ = ("cut", "impossible", "reason")
    __eq__, __hash__ = _compared_by(*__slots__)

    def __init__(self, cut: frozenset[str] | None, impossible: bool = False, reason: str = "") -> None:
        self._fill(cut, impossible, reason)


def find_min_cut(frame: Frame, source: Iterable[str], sink: Iterable[str]) -> MinCutResult:
    """A minimum-cardinality channel set forming a cut between the two
    sets, never drawing on source or sink channels.

    Impossible when some undirected path between the terminals traverses
    no removable channel (in particular when source and sink share an
    endpoint location: a zero-length path traverses no channel at all).
    """
    src = frame.check_channels(source)
    snk = frame.check_channels(sink)
    if src & snk:
        raise CutSpecError("source and sink channel sets must be disjoint")

    src_locs = frame.pends(src)
    snk_locs = frame.pends(snk)
    if src_locs & snk_locs:
        return MinCutResult(None, True, f"source and sink share location {min(src_locs & snk_locs)!r}")

    # Unit-capacity max-flow on the undirected frame graph: each removable
    # channel adds one unit to the arcs between its endpoints, both ways,
    # and a source or sink channel an effectively infinite amount.  The
    # terminals are tuples, so no location name collides with them.
    inf = len(frame.channels) + 1
    terminals = src | snk
    residual: dict = defaultdict(dict)

    def arc(u, v, capacity: int) -> None:
        residual[u][v] = residual[u].get(v, 0) + capacity
        residual[v].setdefault(u, 0)

    for c in frame.channels:
        if not c.is_self_loop:
            capacity = inf if c.id in terminals else 1
            arc(c.sender, c.recipient, capacity)
            arc(c.recipient, c.sender, capacity)
    # The flow runs from the sink's locations to the source's.  The reverse
    # entries ``arc`` keeps let the walk below step back from ``bottom``.
    top, bottom = ("SNK*",), ("SRC*",)
    for loc in snk_locs:
        arc(top, loc, inf)
    for loc in src_locs:
        arc(loc, bottom, inf)

    if _max_flow(residual, top, bottom, inf) >= inf:
        return MinCutResult(None, True, "every separating path traverses only source or sink channels")
    # The nodes that can still reach ``bottom`` in the residual graph form
    # the same side for every maximum flow, so the cut (the removable
    # channels with one endpoint on that side) does not depend on the order
    # in which augmenting paths were found.
    reaches = {bottom}
    stack = [bottom]
    while stack:
        v = stack.pop()
        for u in residual[v]:
            if u not in reaches and residual[u][v] > 0:
                reaches.add(u)
                stack.append(u)
    cut = frozenset(
        c.id for c in frame.channels
        if c.id not in terminals and (c.sender in reaches) != (c.recipient in reaches)
    )
    if not is_cut(frame, ChannelSetTriple(src, cut, snk)).is_cut:
        raise AssertionError("max-flow produced a non-cut; internal invariant violated")
    return MinCutResult(cut)


def _max_flow(residual: dict, top, bottom, limit: int) -> int:
    """Edmonds–Karp: augment along shortest paths from ``top`` to
    ``bottom`` until none is left or the flow reaches ``limit``.  Updates
    the residual capacities in place and returns the flow value."""
    value = 0
    while value < limit:
        parent = {top: None}
        queue = deque([top])
        while queue and bottom not in parent:
            u = queue.popleft()
            for v, capacity in residual[u].items():
                if capacity > 0 and v not in parent:
                    parent[v] = u
                    queue.append(v)
        if bottom not in parent:
            break
        path = []
        v = bottom
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        push = min(residual[u][v] for u, v in path)
        for u, v in path:
            residual[u][v] -= push
            residual[v][u] += push
        value += push
    return value
