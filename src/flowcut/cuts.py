"""
Undirected cut checking and minimum-cut discovery on the frame graph.

Cuts are channel sets, not location sets: connectivity runs on the
channel-keyed undirected multigraph so parallel channels are individually
removable.  Self-loop channels never disconnect anything; they are legal
cut members only vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .frames import Frame


class CutSpecError(ValueError):
    """Raised for unknown channels or non-disjoint channel-set triples."""


@dataclass(frozen=True)
class ChannelSetTriple:
    source: frozenset[str]
    cut: frozenset[str]
    sink: frozenset[str]

    @staticmethod
    def of(source: Iterable[str], cut: Iterable[str], sink: Iterable[str]) -> "ChannelSetTriple":
        return ChannelSetTriple(frozenset(source), frozenset(cut), frozenset(sink))

    def check_disjoint(self) -> None:
        if self.source & self.cut or self.source & self.sink or self.cut & self.sink:
            raise CutSpecError("source, cut, and sink channel sets must be pairwise disjoint")


@dataclass(frozen=True)
class PathWitness:
    """An undirected path avoiding the cut: alternating location and
    channel ids, starting and ending at locations."""

    locations: tuple[str, ...]
    channels: tuple[str, ...]


@dataclass(frozen=True)
class CutCheck:
    is_cut: bool
    witness: PathWitness | None = None

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


@dataclass(frozen=True)
class MinCutResult:
    cut: frozenset[str] | None
    impossible: bool = False
    reason: str = ""


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

    import networkx as nx

    # Unit-capacity max-flow on a gadget graph: each removable channel
    # becomes a capacity-1 arc between two private nodes reachable from
    # either endpoint, so cutting the arc removes the channel in both
    # directions; everything else is effectively infinite.
    inf = len(frame.channels) + 1
    g = nx.DiGraph()
    for c in frame.channels:
        if c.is_self_loop:
            continue
        a, b = ("chan", c.id, "a"), ("chan", c.id, "b")
        cap = inf if c.id in src | snk else 1
        g.add_edge(a, b, capacity=cap)
        for loc in (c.sender, c.recipient):
            g.add_edge(loc, a, capacity=inf)
            g.add_edge(b, loc, capacity=inf)
    g.add_node("SRC*")
    g.add_node("SNK*")
    for loc in snk_locs:
        g.add_edge("SNK*", loc, capacity=inf)
    for loc in src_locs:
        g.add_edge(loc, "SRC*", capacity=inf)

    value, (reachable, _) = nx.minimum_cut(g, "SNK*", "SRC*")
    if value >= inf:
        return MinCutResult(None, True, "every separating path traverses only source or sink channels")
    cut = frozenset(
        node[1]
        for node in reachable
        if isinstance(node, tuple)
        and node[2] == "a"
        and ("chan", node[1], "b") not in reachable
        and node[1] not in src | snk
    )
    result = MinCutResult(cut)
    check = is_cut(frame, ChannelSetTriple(src, cut, snk))
    if not check.is_cut:
        raise AssertionError("max-flow produced a non-cut; internal invariant violated")
    return result
