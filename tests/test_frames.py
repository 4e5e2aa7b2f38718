from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcut.frames import (
    Channel,
    ExplicitTraces,
    Frame,
    FrameError,
    Location,
    Lts,
    accepts_trace,
    behavior_step,
    location_language,
    validate_frame,
)
from flowcut.scenarios import FirewallParams, VotingParams, build_firewall, build_voting

from support import frame_graph, oracle_step, random_budget_complete_frame, undirected_frame_graph


def single_location_frame() -> Frame:
    loc = Location("L", ExplicitTraces.of())
    return Frame.build([loc], [], ["v"])


def test_validate_vacuous_frame():
    assert validate_frame(single_location_frame()).ok


def test_validate_reports_missing_prefix():
    loc = Location("L", ExplicitTraces(frozenset({(("c", "v"),)})))
    frame = Frame.build([loc], [Channel("c", "L", "L")], ["v"])
    report = validate_frame(frame)
    assert not report.ok
    assert any(v.code == "not-prefix-closed" for v in report.violations)


def test_validate_scenario_frames_are_well_formed():
    assert validate_frame(build_firewall(FirewallParams()).frame).ok
    assert validate_frame(build_voting(VotingParams()).frame).ok


def test_validate_flags_dangling_endpoint_and_foreign_labels():
    loc = Location("L", ExplicitTraces.of([("ghost", "v")]))
    frame = Frame.build([loc], [Channel("c", "L", "M")], ["v"])
    codes = {v.code for v in validate_frame(frame).violations}
    assert "dangling-endpoint" in codes
    assert "foreign-channel" in codes


def test_validate_flags_value_outside_domain():
    loc = Location("L", ExplicitTraces.of([("c", "w")]))
    frame = Frame.build([loc], [Channel("c", "L", "L")], ["v"])
    codes = {v.code for v in validate_frame(frame).violations}
    assert "value-outside-domain" in codes


def test_graph_self_loop():
    loc = Location("L", ExplicitTraces.of())
    frame = Frame.build([loc], [Channel("c", "L", "L")], ["v"])
    g = frame_graph(frame)
    assert set(g.nodes) == {"L"}
    assert list(g.edges(keys=True)) == [("L", "L", "c")]


def collapsed_firewall() -> Frame:
    """The five-node view of the two-router firewall."""
    locs = [Location(l, ExplicitTraces.of()) for l in ("i", "r1", "r2", "n1", "n2")]
    chans = [
        Channel("self_i", "i", "i"),
        Channel("self_n1", "n1", "n1"),
        Channel("self_n2", "n2", "n2"),
        Channel("i_r1", "i", "r1"),
        Channel("r1_i", "r1", "i"),
        Channel("r1_r2", "r1", "r2"),
        Channel("r2_r1", "r2", "r1"),
        Channel("r2_n1", "r2", "n1"),
        Channel("n1_r2", "n1", "r2"),
        Channel("r2_n2", "r2", "n2"),
        Channel("n2_r2", "n2", "r2"),
    ]
    return Frame.build(locs, chans, ["v"])


def test_graph_two_router_firewall_shape():
    g = frame_graph(collapsed_firewall())
    assert set(g.nodes) == {"i", "r1", "r2", "n1", "n2"}
    directed = {(u, v) for u, v, _ in g.edges(keys=True)}
    assert ("i", "r1") in directed and ("r1", "i") in directed
    assert ("r2", "n1") in directed and ("n1", "r2") in directed
    assert ("i", "i") in directed


def test_graph_expanded_firewall_topology():
    scn = build_firewall(FirewallParams())
    g = frame_graph(scn.frame)
    assert len(g.nodes) == 15
    assert ("i", "i") in {(u, v) for u, v, _ in g.edges(keys=True)}
    # Edge set equals the channel list exactly.
    edges = {(u, v, k) for u, v, k in g.edges(keys=True)}
    expected = {(c.sender, c.recipient, c.id) for c in scn.frame.channels}
    assert edges == expected


def test_undirected_graph_symmetrizes():
    frame = collapsed_firewall()
    g = undirected_frame_graph(frame)
    assert g.has_edge("i", "r1")
    assert g.has_edge("r1", "i")


def test_language_bound_zero_is_epsilon():
    loc = Location("L", ExplicitTraces.of([("c", "v")]))
    assert location_language(loc, 0) == {()}


def test_language_of_a_malformed_explicit_set_holds_only_reachable_traces():
    # A trace whose prefix is missing is never reached: the language stays
    # prefix-closed and holds the empty trace, as it does for any set.
    loc = Location("L", ExplicitTraces(frozenset({(("c", "v"), ("c", "w"))})))
    assert location_language(loc, 2) == {()}


def test_language_lts_loop_unrolls():
    lts = Lts(frozenset({"s"}), "s", frozenset({("s", ("c", "v"), "s")}))
    loc = Location("L", lts)
    assert location_language(loc, 2) == {
        (),
        (("c", "v"),),
        (("c", "v"), ("c", "v")),
    }


_STATES = st.sampled_from("pqrs")
_LABELS = st.tuples(st.sampled_from("ab"), st.sampled_from("01"))


@settings(max_examples=200, deadline=None)
@given(
    transitions=st.frozensets(st.tuples(_STATES, _LABELS, _STATES), max_size=16),
    states=st.lists(st.frozensets(_STATES, min_size=1), min_size=1, max_size=4),
)
def test_indexed_lts_step_equals_the_transition_scan(transitions, states):
    # Nondeterministic LTSs: a (state, label) pair may have several targets,
    # and a behaviour state is any non-empty subset of the states.
    lts = Lts(frozenset("pqrs"), "p", transitions)
    for state in states:
        for label in [("a", "0"), ("a", "1"), ("b", "0"), ("b", "1")]:
            assert behavior_step(lts, state, label) == oracle_step(lts, state, label)


_TRACES = st.lists(_LABELS, max_size=3).map(tuple)


@settings(max_examples=200, deadline=None)
@given(traces=st.frozensets(_TRACES, max_size=12), queries=st.lists(_TRACES, max_size=6))
def test_indexed_explicit_step_accepts_the_traces_whose_prefixes_are_listed(traces, queries):
    # Any set, prefix-closed or not: a trace is accepted exactly when every
    # one of its non-empty prefixes is listed.
    spec = ExplicitTraces(traces)
    for t in [*traces, *queries]:
        assert accepts_trace(spec, t) == all(t[:i] in traces for i in range(1, len(t) + 1))


def test_language_voting_voter():
    scn = build_voting(VotingParams(precincts=(1,)))
    voter = scn.frame.location("v1_1")
    chan = scn.voter_channels[0][0]
    assert location_language(voter, 3) == {(), ((chan, "0"),), ((chan, "1"),)}


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_language_prefix_closed_and_monotone(seed):
    rng = random.Random(seed)
    frame = random_budget_complete_frame(rng, 4)
    for loc in frame.locations:
        for k in range(4):
            lang = location_language(loc, k)
            assert () in lang
            assert lang <= location_language(loc, k + 1)
            for t in lang:
                for i in range(len(t)):
                    assert t[:i] in lang


def test_frame_lookup_errors():
    frame = single_location_frame()
    with pytest.raises(FrameError):
        frame.location("nope")
    with pytest.raises(FrameError):
        frame.channel("nope")
