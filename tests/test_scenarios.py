from __future__ import annotations

import pytest

from flowcut.blur import blur_apply, f_limits_flow
from flowcut.cuts import ChannelSetTriple, is_cut
from flowcut.disclosure import CompatQuery, check_symmetry, compatible_runs
from flowcut.enumeration import Bound, enumerate_executions, enumerate_runs
from flowcut.events import CanonicalRun
from flowcut.frames import location_language, validate_frame
from flowcut.scenarios import (
    MAX_BALLOT_BOX_MOVES,
    MAX_COMMISSION_STATES,
    MAX_REGION_SENDS,
    FirewallParams,
    ScenarioError,
    VotingParams,
    build_firewall,
    build_voting,
    datagram,
    datagram_fields,
)

B6, B8 = Bound(6), Bound(8)


def test_datagram_round_trip():
    d = datagram("ext", "www", "hi", "web")
    assert datagram_fields(d) == ("ext", "www", "hi", "web")


def test_firewall_params_validation():
    with pytest.raises(ScenarioError):
        FirewallParams(filtering="nonsense")
    with pytest.raises(ScenarioError):
        FirewallParams(region_sends=-1)


def test_firewall_region_sends_are_capped():
    assert FirewallParams(region_sends=MAX_REGION_SENDS).region_sends == MAX_REGION_SENDS
    with pytest.raises(ScenarioError) as info:
        FirewallParams(region_sends=MAX_REGION_SENDS + 1)
    assert str(info.value) == f"region_sends must be <= {MAX_REGION_SENDS}"


def test_firewall_frame_is_well_formed():
    scn = build_firewall(FirewallParams())
    assert validate_frame(scn.frame).ok
    assert len(scn.frame.locations) == 15
    assert len(scn.frame.channels) == 21


def test_firewall_importable_exportable_disjoint():
    scn = build_firewall(FirewallParams())
    assert not scn.importable & scn.exportable
    assert scn.importable and scn.exportable


def test_firewall_cut_carries_only_filtered_traffic():
    scn = build_firewall(FirewallParams())
    runs = enumerate_runs(scn.frame, scn.named_sets["cut"], B6)
    for run in runs:
        for chan, msgs in run.channels:
            for msg in msgs:
                if chan == "c1":
                    assert msg in scn.exportable
                else:
                    assert msg in scn.importable


def test_firewall_discard_all_silences_cut_and_hides_everything():
    scn = build_firewall(FirewallParams(filtering="discard_all"))
    assert enumerate_runs(scn.frame, scn.named_sets["cut"], B6) == frozenset(
        {CanonicalRun.empty()}
    )
    fwd, bwd = check_symmetry(scn.frame, scn.named_sets["chans_i"], scn.named_sets["cut"], B6)
    assert fwd.holds and bwd.holds
    # Non-vacuously: the external region still acts.
    assert len(enumerate_runs(scn.frame, scn.named_sets["chans_i"], B6)) > 1


def test_firewall_blur_limited_flows_into_the_cut():
    scn = build_firewall(FirewallParams())
    assert f_limits_flow(
        scn.frame, scn.named_sets["chans_i"], scn.named_sets["cut"], scn.blurs["f_i"], B6
    ).holds
    assert f_limits_flow(
        scn.frame, scn.named_sets["chans_n"], scn.named_sets["cut"], scn.blurs["f_e"], B6
    ).holds


def test_firewall_cut_is_a_cut_between_the_regions():
    scn = build_firewall(FirewallParams())
    triple = ChannelSetTriple(
        scn.named_sets["chans_i"], scn.named_sets["cut"], scn.named_sets["chans_n"]
    )
    assert is_cut(scn.frame, triple).is_cut


def test_voting_params_validation():
    with pytest.raises(ScenarioError):
        VotingParams(precincts=())
    with pytest.raises(ScenarioError):
        VotingParams(precincts=(0,))
    with pytest.raises(ScenarioError):
        VotingParams(candidates=("solo",))
    with pytest.raises(ScenarioError):
        build_voting(VotingParams(precincts=(2,), commissioners=((9, 9),)))


@pytest.mark.parametrize("candidates", [("0", "", "1"), ("a", "a"), ("a", "b", "a")])
def test_voting_candidates_must_be_distinct_and_non_empty(candidates):
    with pytest.raises(ScenarioError) as info:
        VotingParams(candidates=candidates)
    assert str(info.value) == f"candidate names must be distinct and non-empty, got {candidates!r}"


def test_voting_candidate_names_must_not_contain_a_comma():
    # A ballot box's state joins its votes with commas, so one vote for
    # "a,b" would reach the state of a vote for "a" and one for "b".
    candidates = ("a", "b", "a,b")
    with pytest.raises(ScenarioError) as info:
        VotingParams((2,), candidates)
    assert str(info.value) == f"candidate names must not contain ',', got {candidates!r}"


def _commission_states(scn):
    commission = next(loc for loc in scn.frame.locations if loc.id == "EC")
    return len(commission.behavior.states - {"done"})


def _ballot_box_moves(scn, precinct):
    box = next(loc for loc in scn.frame.locations if loc.id == f"BB{precinct}")
    return sum(1 for _, (chan, _), _ in box.behavior.transitions if chan.startswith("cv"))


def test_voting_commission_states_are_capped():
    # Each precinct multiplies the commission's states by one more than its
    # tallies: 3 + 1 for two voters and two candidates, 6 + 1 with three.
    scn = build_voting(VotingParams((2, 2, 2, 2), ("a", "b", "c")))
    assert _commission_states(scn) == 7**4 <= MAX_COMMISSION_STATES
    assert _commission_states(build_voting(VotingParams((1, 2, 3), ("a", "b", "c")))) == 4 * 7 * 11
    with pytest.raises(ScenarioError) as info:
        VotingParams((2, 2, 2, 2, 2), ("a", "b", "c"))
    assert str(info.value) == f"the commission must have at most {MAX_COMMISSION_STATES} states"


def test_voting_ballot_box_moves_are_capped():
    # One precinct's commission is small, but its ballot box moves on each
    # voter's vote from each count of fewer votes: 231 counts × 21 voters ×
    # 2 candidates for 21 voters.
    scn = build_voting(VotingParams((21,), ("a", "b")))
    assert _ballot_box_moves(scn, 1) == 231 * 21 * 2 <= MAX_BALLOT_BOX_MOVES
    assert _ballot_box_moves(build_voting(VotingParams((3, 2), ("a", "b", "c"))), 1) == 10 * 3 * 3
    with pytest.raises(ScenarioError) as info:
        VotingParams((2, 22), ("a", "b"))
    assert str(info.value) == f"a ballot box must have at most {MAX_BALLOT_BOX_MOVES} vote moves"


def test_voting_frame_shape_and_language():
    scn = build_voting(VotingParams(precincts=(2,)))
    assert validate_frame(scn.frame).ok
    voter = scn.frame.location("v1_1")
    assert location_language(voter, 3) == {
        (),
        (("cv1_1", "0"),),
        (("cv1_1", "1"),),
    }
    # Full executions: two votes, one tally, one publication.
    sizes = {run.n_events for run in enumerate_executions(scn.frame, B8).canonicals}
    assert max(sizes) == 4


def test_voting_tally_compatibility_is_permutation_blurred():
    scn = build_voting(VotingParams(precincts=(2,)))
    voters = scn.named_sets["voters"]
    tally_runs = [
        r
        for r in enumerate_runs(scn.frame, {"c1"}, B8)
        if r.n_events and "0x1+1x1" in r.serialize()
    ]
    assert len(tally_runs) == 1
    compat = compatible_runs(scn.frame, CompatQuery(frozenset({"c1"}), voters, tally_runs[0], B8))
    # Two assignments at each of the two reception orders.
    assert len(compat) == 4
    assert {tuple(sorted(r.channels)) for r in compat} == {
        (("cv1_1", ("0",)), ("cv1_2", ("1",))),
        (("cv1_1", ("1",)), ("cv1_2", ("0",))),
    }
    universe = enumerate_runs(scn.frame, voters, B8)
    assert blur_apply(scn.blurs["f0"], compat, universe) == compat


def test_voting_same_blur_applies_at_the_public_channel():
    scn = build_voting(VotingParams(precincts=(2,)))
    assert f_limits_flow(
        scn.frame, scn.named_sets["voters"], {"c1"}, scn.blurs["f0"], B8
    ).holds
    assert f_limits_flow(
        scn.frame, scn.named_sets["voters"], {"p"}, scn.blurs["f0"], B8
    ).holds


def test_voting_two_precincts_structure():
    scn = build_voting(VotingParams(precincts=(2, 2)))
    assert validate_frame(scn.frame).ok
    assert scn.named_sets["voters1"] == frozenset({"cv1_1", "cv1_2"})
    assert scn.named_sets["voters2"] == frozenset({"cv2_1", "cv2_2"})
    sizes = {run.n_events for run in enumerate_executions(scn.frame, B8).canonicals}
    assert max(sizes) == 7


def test_voting_ec_reports_per_precinct():
    scn = build_voting(VotingParams(precincts=(1, 1)))
    runs = enumerate_runs(scn.frame, {"p"}, B8)
    published = {
        msgs[0] for r in runs for chan, msgs in r.channels if chan == "p"
    }
    assert published
    for agg in published:
        assert agg.startswith("P1=") and "P2=" in agg
