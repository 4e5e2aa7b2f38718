from __future__ import annotations

import random

import pytest

from flowcut.cuts import (
    ChannelSetTriple,
    CutCheck,
    CutSpecError,
    MinCutResult,
    PathWitness,
    find_min_cut,
    is_cut,
)
from flowcut.frames import Channel, ExplicitTraces, Frame, Location
from flowcut.scenarios import FirewallParams, build_firewall

from support import (
    child_env,
    disjoint_union,
    random_budget_complete_frame,
    random_channel_subset,
    undirected_frame_graph,
)


def chain_frame() -> Frame:
    # A - c1 - B - c2 - C, plus self loops at the ends.
    locs = [Location(l, ExplicitTraces.of()) for l in ("A", "B", "C")]
    chans = [
        Channel("sa", "A", "A"),
        Channel("c1", "A", "B"),
        Channel("c2", "B", "C"),
        Channel("sc", "C", "C"),
    ]
    return Frame.build(locs, chans, ["v"])


def test_empty_cut_between_disconnected_components():
    rng = random.Random(0)
    a = random_budget_complete_frame(rng, 3)
    b = random_budget_complete_frame(rng, 3)
    frame = disjoint_union(a, b)
    src = frozenset({f"a_{a.channel_ids[0]}"})
    obs = frozenset({f"b_{b.channel_ids[0]}"})
    assert is_cut(frame, ChannelSetTriple(src, frozenset(), obs)).is_cut


def test_chain_cut_and_witness():
    frame = chain_frame()
    assert is_cut(frame, ChannelSetTriple.of({"sa"}, {"c1"}, {"sc"})).is_cut
    res = is_cut(frame, ChannelSetTriple.of({"sa"}, frozenset(), {"sc"}))
    assert not res.is_cut
    assert res.witness is not None
    assert set(res.witness.channels) <= {"c1", "c2"}
    assert res.witness.locations[0] == "C"
    assert res.witness.locations[-1] == "A"


def test_firewall_cut_and_single_channel_failure():
    scn = build_firewall(FirewallParams())
    chans_i, chans_n = scn.named_sets["chans_i"], scn.named_sets["chans_n"]
    assert is_cut(scn.frame, ChannelSetTriple(chans_i, frozenset({"c1", "c2"}), chans_n)).is_cut
    res = is_cut(scn.frame, ChannelSetTriple(chans_i, frozenset({"c1"}), chans_n))
    assert not res.is_cut
    assert "c2" in res.witness.channels


def test_triple_must_be_disjoint_and_known():
    frame = chain_frame()
    with pytest.raises(CutSpecError):
        is_cut(frame, ChannelSetTriple.of({"c1"}, {"c1"}, {"c2"}))
    from flowcut.frames import UnknownChannelError

    with pytest.raises(UnknownChannelError):
        is_cut(frame, ChannelSetTriple.of({"ghost"}, set(), {"c2"}))


@pytest.mark.parametrize("seed", range(4))
def test_superset_monotonicity(seed):
    rng = random.Random(seed)
    frame = random_budget_complete_frame(rng, 4)
    src = random_channel_subset(rng, frame)
    obs = random_channel_subset(rng, frame, avoid=src)
    if not src or not obs:
        return
    res = find_min_cut(frame, src, obs)
    if res.impossible:
        return
    cut = res.cut
    extra = frozenset(frame.channel_ids) - src - obs - cut
    assert is_cut(frame, ChannelSetTriple(src, cut, obs)).is_cut
    assert is_cut(frame, ChannelSetTriple(src, cut | extra, obs)).is_cut


def test_min_cut_disconnected_is_empty():
    rng = random.Random(1)
    a = random_budget_complete_frame(rng, 3)
    b = random_budget_complete_frame(rng, 3)
    frame = disjoint_union(a, b)
    res = find_min_cut(
        frame,
        {f"a_{a.channel_ids[0]}"},
        {f"b_{b.channel_ids[0]}"},
    )
    assert not res.impossible
    assert res.cut == frozenset()


def test_min_cut_shared_location_impossible():
    frame = chain_frame()
    res = find_min_cut(frame, {"sa"}, {"c1"})
    assert res.impossible


def test_min_cut_firewall_has_two_channels():
    scn = build_firewall(FirewallParams())
    res = find_min_cut(scn.frame, scn.named_sets["chans_i"], scn.named_sets["chans_n"])
    assert not res.impossible
    assert len(res.cut) == 2
    assert is_cut(
        scn.frame,
        ChannelSetTriple(scn.named_sets["chans_i"], res.cut, scn.named_sets["chans_n"]),
    ).is_cut


def test_min_cut_is_minimal_witness():
    scn = build_firewall(FirewallParams())
    src, obs = scn.named_sets["chans_i"], scn.named_sets["chans_n"]
    cut = find_min_cut(scn.frame, src, obs).cut
    for dropped in cut:
        smaller = cut - {dropped}
        assert not is_cut(scn.frame, ChannelSetTriple(src, smaller, obs)).is_cut


def test_self_loops_never_needed_in_cuts():
    frame = chain_frame()
    # sa/sc are in the terminals here; build a variant with a free self loop.
    locs = list(frame.locations) + [Location("D", ExplicitTraces.of())]
    chans = list(frame.channels) + [Channel("sd", "D", "D")]
    frame2 = Frame.build(locs, chans, ["v"])
    res = find_min_cut(frame2, {"sa"}, {"sc"})
    assert "sd" not in (res.cut or frozenset())
    # But a self loop is legal (vacuous) as a cut member.
    assert is_cut(frame2, ChannelSetTriple.of({"sa"}, {"c1", "sd"}, {"sc"})).is_cut


def _graph_is_cut(frame: Frame, triple: ChannelSetTriple) -> CutCheck:
    """Reference cut check: BFS on the networkx multigraph of the frame
    with the cut's edges removed, hops taken in (neighbour, channel)
    order."""
    g = undirected_frame_graph(frame)
    g.remove_edges_from([(u, v, k) for u, v, k in g.edges(keys=True) if k in triple.cut])
    starts, goals = frame.pends(triple.sink), frame.pends(triple.source)
    if starts & goals:
        return CutCheck(False, PathWitness((min(starts & goals),), ()))
    parent: dict = {s: None for s in starts}
    frontier = sorted(starts)
    while frontier:
        nxt = []
        for u in frontier:
            for _, v, k in sorted(g.edges(u, keys=True), key=lambda e: (e[1], e[2])):
                if v in parent:
                    continue
                parent[v] = (u, k)
                if v in goals:
                    locs, chans = [v], []
                    while parent[locs[-1]] is not None:
                        prev, chan = parent[locs[-1]]
                        locs.append(prev)
                        chans.append(chan)
                    return CutCheck(False, PathWitness(tuple(reversed(locs)), tuple(reversed(chans))))
                nxt.append(v)
        frontier = sorted(nxt)
    return CutCheck(True)


@pytest.mark.parametrize("seed", range(40))
def test_is_cut_matches_graph_reference(seed):
    rng = random.Random(seed)
    frame = random_budget_complete_frame(rng, 3, max_locations=6, max_channels=8)
    chans = sorted(frame.channel_ids)
    pairs = [(a, b) for a in chans for b in chans if a != b]
    rng.shuffle(pairs)
    # Terminals with no common location first, so that most checks run the
    # search rather than stop at a shared endpoint.
    pairs.sort(key=lambda p: bool(frame.pends({p[0]}) & frame.pends({p[1]})))
    for a, b in pairs[:8]:
        src, sink = frozenset({a}), frozenset({b})
        rest = [c for c in chans if c not in (a, b)]
        cut = frozenset(rng.sample(rest, rng.randint(0, len(rest))))
        triple = ChannelSetTriple(src, cut, sink)
        assert is_cut(frame, triple) == _graph_is_cut(frame, triple)


def _networkx_min_cut(frame: Frame, source, sink) -> MinCutResult:
    """Reference min cut: the same gadget graph solved by
    ``networkx.minimum_cut``, the cut read from its source-side partition."""
    import networkx as nx

    src, snk = frozenset(source), frozenset(sink)
    src_locs, snk_locs = frame.pends(src), frame.pends(snk)
    if src_locs & snk_locs:
        return MinCutResult(None, True, f"source and sink share location {min(src_locs & snk_locs)!r}")
    inf = len(frame.channels) + 1
    g = nx.DiGraph()
    for c in frame.channels:
        if c.is_self_loop:
            continue
        a, b = ("chan", c.id, "a"), ("chan", c.id, "b")
        g.add_edge(a, b, capacity=inf if c.id in src | snk else 1)
        for loc in (c.sender, c.recipient):
            g.add_edge(loc, a, capacity=inf)
            g.add_edge(b, loc, capacity=inf)
    g.add_nodes_from(["SNK*", "SRC*"])
    for loc in snk_locs:
        g.add_edge("SNK*", loc, capacity=inf)
    for loc in src_locs:
        g.add_edge(loc, "SRC*", capacity=inf)
    value, (reachable, _) = nx.minimum_cut(g, "SNK*", "SRC*")
    if value >= inf:
        return MinCutResult(None, True, "every separating path traverses only source or sink channels")
    return MinCutResult(
        frozenset(
            n[1]
            for n in reachable
            if isinstance(n, tuple) and n[2] == "a" and ("chan", n[1], "b") not in reachable
            and n[1] not in src | snk
        )
    )


def _random_cut_frame(rng: random.Random) -> Frame:
    """4 to 8 locations joined by random channels, self loops and
    parallel channels included; behaviours play no part in cuts."""
    locs = [f"L{i}" for i in range(rng.randint(4, 8))]
    chans = [
        Channel(f"c{i}", rng.choice(locs), rng.choice(locs))
        for i in range(rng.randint(len(locs) - 1, 2 * len(locs)))
    ]
    return Frame.build([Location(l, ExplicitTraces.of()) for l in locs], chans, ["v"])


def test_find_min_cut_matches_networkx_reference():
    rng = random.Random(2014)
    cases = possible = 0
    for _ in range(300):
        frame = _random_cut_frame(rng)
        ids = list(frame.channel_ids)
        rng.shuffle(ids)
        src = frozenset(ids[: rng.randint(1, 2)])
        # Mostly sinks away from the source's locations, so that most
        # cases reach the max-flow instead of stopping at a shared endpoint.
        rest = [c for c in ids if c not in src]
        if rng.random() < 0.8:
            rest = [c for c in rest if not frame.pends({c}) & frame.pends(src)]
        snk = frozenset(rest[: rng.randint(1, 2)])
        if not snk:
            continue
        expected = _networkx_min_cut(frame, src, snk)
        assert find_min_cut(frame, src, snk) == expected, (frame, src, snk)
        cases += 1
        possible += not expected.impossible
    assert possible * 2 >= cases >= 200


def test_cli_import_leaves_networkx_unloaded(tmp_path):
    """Neither importing the CLI nor running ``min-cut`` loads networkx."""
    import subprocess
    import sys

    code = (
        "import sys, flowcut.cli as cli\n"
        "assert cli.main(['scenario', 'firewall', '--out', 'fw.yaml']) == 0\n"
        "assert cli.main(['min-cut', 'fw.yaml', '--source', 'chans_i', '--observed', 'chans_n']) == 0\n"
        "sys.exit('networkx' in sys.modules)"
    )
    child = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        cwd=tmp_path,
        env=child_env(),
    )
    assert child.returncode == 0, child.stderr.decode(errors="replace")
