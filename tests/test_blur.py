from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcut.blur import (
    SharedCoreError,
    blur_apply,
    build_shared_core,
    f_limits_flow,
    validate_blur,
    verify_composition,
    verify_cut_blur,
)
from flowcut.cuts import ChannelSetTriple
from flowcut.disclosure import no_disclosure
from flowcut.enumeration import Bound, enumerate_runs
from flowcut.events import CanonicalRun
from flowcut.frames import Channel, ExplicitTraces, Frame, Location, Lts
from flowcut.frames.blurforms import (
    AllBlur,
    BlurError,
    IdentityBlur,
    PartitionBlur,
    PermutationBlur,
    SelectionBlur,
    TableBlur,
)
from flowcut.scenarios import (
    FirewallParams,
    VotingParams,
    build_firewall,
    build_voting,
)

from support import (
    oracle_orbit,
    oracle_selection_apply,
    random_budget_complete_frame,
    random_channel_subset,
    reference_validate_blur,
)

B = Bound(5)


@pytest.fixture(scope="module")
def run_universe():
    rng = random.Random(0)
    frame = random_budget_complete_frame(rng, 5)
    chans = frozenset(frame.channel_ids)
    return frame, enumerate_runs(frame, chans, B)


def test_identity_and_all_blur(run_universe):
    _, universe = run_universe
    some = frozenset(list(universe)[:1])
    assert blur_apply(IdentityBlur(), some, universe) == some
    assert blur_apply(AllBlur(), some, universe) == universe


def test_blur_apply_rejects_runs_outside_universe(run_universe):
    _, universe = run_universe
    alien = CanonicalRun.build((("zz", ("zz",)),))
    with pytest.raises(BlurError):
        blur_apply(IdentityBlur(), {alien}, universe)


def test_partition_blur_from_equivalence_validates(run_universe):
    _, universe = run_universe
    by_size = PartitionBlur.from_equivalence(
        universe, lambda a, b: a.n_events == b.n_events
    )
    report = validate_blur(by_size, universe)
    assert report.is_blur and report.partition_generated
    with pytest.raises(BlurError):
        PartitionBlur.from_equivalence(
            universe, lambda a, b: a.n_events <= b.n_events
        )


def test_blur_laws_hold_for_every_constructed_form(run_universe):
    frame, universe = run_universe
    voting = build_voting(VotingParams(precincts=(2,)))
    vote_universe = enumerate_runs(voting.frame, voting.named_sets["voters"], Bound(8))
    fw = build_firewall(FirewallParams())
    fw_universe = enumerate_runs(fw.frame, fw.named_sets["chans_n"], Bound(6))
    cases = [
        (IdentityBlur(), universe),
        (AllBlur(), universe),
        (PartitionBlur.from_equivalence(universe, lambda a, b: a.n_events == b.n_events), universe),
        (voting.blurs["f0"], vote_universe),
        (voting.blurs["f0_blocks"], vote_universe),
        (fw.blurs["f_e"], fw_universe),
    ]
    for blur, uni in cases:
        report = validate_blur(blur, uni)
        assert report.is_blur, type(blur).__name__
        assert report.partition_generated


def test_monotonicity_follows_from_union(run_universe):
    _, universe = run_universe
    runs = sorted(universe, key=CanonicalRun.serialize)
    blur = PartitionBlur.from_equivalence(universe, lambda a, b: a.n_events == b.n_events)
    small = frozenset(runs[:1])
    large = frozenset(runs[:3])
    assert blur_apply(blur, small, universe) <= blur_apply(blur, large, universe)


def test_table_blur_admits_non_partition_blurs(run_universe):
    _, universe = run_universe
    runs = sorted(universe, key=CanonicalRun.serialize)
    a, b = runs[0], runs[1]
    blur = TableBlur(
        (
            (a, frozenset({a})),
            (b, frozenset({a, b})),
        )
    )
    report = validate_blur(blur, frozenset({a, b}))
    assert report.is_blur
    assert not report.partition_generated


def test_table_blur_enforces_inclusion(run_universe):
    _, universe = run_universe
    runs = sorted(universe, key=CanonicalRun.serialize)
    a, b = runs[0], runs[1]
    with pytest.raises(BlurError):
        TableBlur(((a, frozenset({b})),))


def test_table_blur_idempotence_is_checked_not_assumed(run_universe):
    _, universe = run_universe
    runs = sorted(universe, key=CanonicalRun.serialize)
    a, b, c = runs[0], runs[1], runs[2]
    drifting = TableBlur(
        (
            (a, frozenset({a, b})),
            (b, frozenset({b, c})),
            (c, frozenset({c})),
        )
    )
    report = validate_blur(drifting, frozenset({a, b, c}))
    assert report.inclusion_ok and report.union_ok
    assert not report.idempotence_ok


# The 13 voter runs of two voters at bound 8, and two runs outside them.
_TWO_VOTERS = build_voting(VotingParams(precincts=(2,)))
VOTER_RUNS = sorted(
    enumerate_runs(_TWO_VOTERS.frame, _TWO_VOTERS.named_sets["voters"], Bound(8)),
    key=CanonicalRun.serialize,
)
ALIENS = [CanonicalRun.build((("zz", ("zz",)),)), CanonicalRun.build((("zz", ("a", "b")),))]


@st.composite
def tabled_and_partitioned_blurs(draw):
    """A universe of voter runs and a table or partition blur over voter
    runs and aliens: blocks may overlap or miss universe runs, and images
    may leave the universe."""
    universe = draw(st.frozensets(st.sampled_from(VOTER_RUNS)))
    inside = sorted(universe, key=CanonicalRun.serialize) or VOTER_RUNS
    run_sets = st.frozensets(st.sampled_from(inside), max_size=5) | st.frozensets(
        st.sampled_from(VOTER_RUNS + ALIENS), max_size=5
    )
    # Whether every universe run is sure to have a class.
    covered = draw(st.booleans())
    if draw(st.booleans()):
        blocks = draw(st.lists(run_sets, max_size=6))
        if covered:
            blocks.append(universe)
        return PartitionBlur(tuple(blocks)), universe
    rows = draw(st.lists(st.tuples(st.sampled_from(VOTER_RUNS + ALIENS), run_sets), max_size=8))
    if covered:
        rows.extend((run, draw(run_sets)) for run in inside)
    return TableBlur(tuple((run, image | {run}) for run, image in rows)), universe


def _outcome(check):
    try:
        return check()
    except BlurError as exc:
        return f"BlurError: {exc}"


@settings(max_examples=300, deadline=None)
@given(case=tabled_and_partitioned_blurs())
def test_validate_blur_matches_sampled_reference(case):
    blur, universe = case

    def flags():
        rep = validate_blur(blur, universe)
        return rep.inclusion_ok, rep.idempotence_ok, rep.union_ok, rep.partition_generated

    assert _outcome(flags) == _outcome(lambda: reference_validate_blur(blur, universe))


def test_permutation_blur_on_two_voters():
    scn = build_voting(VotingParams(precincts=(2,)))
    universe = enumerate_runs(scn.frame, scn.named_sets["voters"], Bound(8))
    split = [
        r
        for r in universe
        if len(r.channels) == 2 and {seq for _, seq in r.channels} == {("0",), ("1",)}
    ]
    closed = blur_apply(scn.blurs["f0"], frozenset(split[:1]), universe)
    # Value reallocation fixes the order skeleton, so the orbit of one
    # ordered (0,1) pattern is the two assignments at that skeleton.
    assert len(closed) == 2
    assert {tuple(sorted(r.channels)) for r in closed} == {
        (("cv1_1", ("0",)), ("cv1_2", ("1",))),
        (("cv1_1", ("1",)), ("cv1_2", ("0",))),
    }


def test_permutation_blur_fixed_members_stay_put():
    scn = build_voting(VotingParams(precincts=(2,), commissioners=((1, 1),)))
    universe = enumerate_runs(scn.frame, scn.named_sets["voters"], Bound(8))
    blur = scn.blurs["f1"]
    for run in universe:
        for img in oracle_orbit(blur, run):
            assert dict(img.channels).get("cv1_1") == dict(run.channels).get("cv1_1")


def _key_classes(blur, universe):
    """Each run's class: the runs of the universe sharing its key."""
    groups: dict = {}
    for run in universe:
        groups.setdefault(blur.key(run), set()).add(run)
    return {run: frozenset(g) for g in groups.values() for run in g}


@pytest.mark.parametrize(
    ("precincts", "commissioners", "name"),
    [
        ((2,), (), "f0"),
        ((2, 2), (), "f0"),
        ((2, 2), (), "f0_blocks"),
        ((2, 2), (), "f0_p2"),
        ((3,), (), "f0"),
        ((2, 2), ((1, 1),), "f1"),
        ((3,), ((1, 2),), "f1"),
    ],
)
def test_permutation_key_classes_equal_oracle_orbits(precincts, commissioners, name):
    scn = build_voting(VotingParams(precincts=precincts, commissioners=commissioners))
    universe = enumerate_runs(scn.frame, scn.named_sets["voters"], Bound(8))
    blur = scn.blurs[name]
    classes = _key_classes(blur, universe)
    uneven = 0
    for run in universe:
        assert classes[run] == oracle_orbit(blur, run) & universe, run.serialize()
        seqs = dict(run.channels)
        uneven += len({len(seqs.get(m, ())) for m in blur.members}) > 1
    # Runs in which some voters have voted and others not: no permutation
    # swaps a vote with an absent one.
    assert uneven
    runs = sorted(universe, key=CanonicalRun.serialize)
    rng = random.Random(len(runs))
    for _ in range(5):
        some = frozenset(rng.sample(runs, rng.randint(0, 6)))
        expected = frozenset().union(*(classes[r] for r in some))
        assert blur_apply(blur, some, universe) == expected


@pytest.mark.parametrize(("name", "source"), [("f_e", "chans_n"), ("f_i", "chans_i")])
def test_selection_blur_images_equal_rescan(name, source):
    fw = build_firewall(FirewallParams())
    universe = enumerate_runs(fw.frame, fw.named_sets[source], Bound(6))
    blur = fw.blurs[name]
    runs = sorted(universe, key=CanonicalRun.serialize)
    for k in range(len(runs) + 1):
        for some in itertools.combinations(runs, k):
            assert blur_apply(blur, some, universe) == oracle_selection_apply(blur, some, universe)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data())
def test_permutation_blur_matches_oracle_on_random_frames(seed, data):
    frame = random_budget_complete_frame(random.Random(seed), 5)
    chans = sorted(frame.channel_ids)
    members = data.draw(st.lists(st.sampled_from(chans), min_size=1, unique=True))
    blocks = None
    if data.draw(st.booleans()):
        labels = data.draw(st.lists(st.integers(0, 2), min_size=len(members), max_size=len(members)))
        blocks = tuple(
            frozenset(m for m, lab in zip(members, labels) if lab == k) for k in sorted(set(labels))
        )
    fixed = data.draw(st.frozensets(st.sampled_from(members)))
    blur = PermutationBlur(tuple(members), blocks, fixed)
    universe = enumerate_runs(frame, chans, B)
    runs = sorted(universe, key=CanonicalRun.serialize)
    some = data.draw(st.frozensets(st.sampled_from(runs), max_size=4))
    expected = frozenset().union(*(oracle_orbit(blur, r) for r in some)) & universe
    assert blur_apply(blur, some, universe) == expected


def test_selection_blur_groups_by_selected_events():
    fw = build_firewall(FirewallParams())
    universe = enumerate_runs(fw.frame, fw.named_sets["chans_n"], Bound(6))
    blur = fw.blurs["f_e"]
    empty = CanonicalRun.empty()
    closed = blur_apply(blur, {empty}, universe)
    # The class of the silent run is every run with no exportable events.
    assert empty in closed
    for run in closed:
        assert all(
            msg not in fw.exportable for _, msgs in run.channels for msg in msgs
        )


def test_identity_blur_always_limits_flow():
    rng = random.Random(3)
    frame = random_budget_complete_frame(rng, 5)
    src = random_channel_subset(rng, frame)
    obs = random_channel_subset(rng, frame)
    assert f_limits_flow(frame, src, obs, IdentityBlur(), B).holds


def _every_form(frame, universe, rng):
    """One blur of each form over the frame's channels and the universe."""
    chans = sorted(frame.channel_ids)
    runs = sorted(universe, key=CanonicalRun.serialize)
    return [
        IdentityBlur(),
        AllBlur(),
        PermutationBlur(tuple(rng.sample(chans, rng.randint(1, len(chans))))),
        SelectionBlur(channels=frozenset(rng.sample(chans, rng.randint(1, len(chans))))),
        SelectionBlur(values=frozenset(sorted(frame.data)[:1])),
        PartitionBlur.from_equivalence(universe, lambda a, b: a.n_events == b.n_events),
        # Each run's image adds the run before it, cyclically: not idempotent
        # from three runs on.
        TableBlur(tuple((run, frozenset({run, runs[i - 1]})) for i, run in enumerate(runs))),
    ]


_VOTING = build_voting(VotingParams(precincts=(2,)))
_FIREWALL = build_firewall(FirewallParams())


@pytest.mark.parametrize(
    "frame, source, observed, bound",
    [
        (_VOTING.frame, _VOTING.named_sets["voters"], _VOTING.named_sets["pub"], Bound(8)),
        (_FIREWALL.frame, _FIREWALL.named_sets["chans_n"], _FIREWALL.named_sets["cut"], Bound(6)),
    ]
    + [
        (frame, random_channel_subset(rng, frame), random_channel_subset(rng, frame), B)
        for rng in map(random.Random, range(4))
        for frame in [random_budget_complete_frame(rng, 5)]
    ],
)
def test_flow_laws_equal_validate_blur_for_every_form(frame, source, observed, bound):
    # f_limits_flow takes the key forms' laws as constants; validate_blur
    # decides every form on the source universe and is the oracle.
    def flags(laws):
        return laws.idempotence_ok, laws.partition_generated

    universe = enumerate_runs(frame, source, bound)
    for blur in _every_form(frame, universe, random.Random(len(universe))):
        expected = _outcome(lambda: flags(validate_blur(blur, universe)))
        got = _outcome(lambda: flags(f_limits_flow(frame, source, observed, blur, bound).laws))
        assert got == expected, blur


@pytest.mark.parametrize("seed", range(6))
def test_all_blur_limits_flow_iff_no_disclosure(seed):
    rng = random.Random(seed)
    frame = random_budget_complete_frame(rng, 5)
    src = random_channel_subset(rng, frame)
    obs = random_channel_subset(rng, frame)
    flow = f_limits_flow(frame, src, obs, AllBlur(), B)
    nd = no_disclosure(frame, obs, src, B)
    assert flow.holds == nd.holds
    assert nd.counterexample == (None if flow.holds else (flow.failing_observed, flow.unblurred))


def test_flow_failure_reports_unblurred_witness():
    # The relay discloses the bit, so the all-blur cannot hold and the
    # report carries a run the blur adds beyond the compatible set.
    s = Location("S", ExplicitTraces.of([("a", "0")], [("a", "1")]))
    a = Location(
        "A", ExplicitTraces.of([("a", "0"), ("b", "0")], [("a", "1"), ("b", "1")])
    )
    bl = Location("B", ExplicitTraces.of([("b", "0")], [("b", "1")]))
    frame = Frame.build(
        [s, a, bl], [Channel("a", "S", "A"), Channel("b", "A", "B")], ["0", "1"]
    )
    res = f_limits_flow(frame, {"a"}, {"b"}, AllBlur(), Bound(4))
    assert not res.holds
    assert res.failing_observed is not None and res.unblurred is not None


def test_verify_cut_blur_requires_a_cut():
    fw = build_firewall(FirewallParams())
    bad = ChannelSetTriple(fw.named_sets["chans_i"], frozenset({"c1"}), fw.named_sets["chans_n"])
    with pytest.raises(BlurError):
        verify_cut_blur(fw.frame, bad, fw.blurs["f_i"], Bound(6))


def test_shared_core_same_frame_is_valid():
    rng = random.Random(5)
    frame = random_budget_complete_frame(rng, 5)
    core = build_shared_core(frame, frame, set(frame.location_ids[:1]), B)
    assert core.run_inclusion_ok
    assert core.left0 | core.cut0 | core.right1 == frozenset(frame.channel_ids)


def test_shared_core_trace_mismatch_is_named():
    v1 = build_voting(VotingParams(precincts=(2,)))
    v2 = build_voting(VotingParams(precincts=(2,), candidates=("0", "1", "2")))
    with pytest.raises(SharedCoreError) as info:
        build_shared_core(v1.frame, v2.frame, {"v1_1"}, Bound(6))
    assert "v1_1" in str(info.value)


def _chain_lts(n: int) -> Lts:
    """Sends ``n`` zeros on channel c, one after another."""
    return Lts(
        frozenset(f"s{i}" for i in range(n + 1)),
        "s0",
        frozenset((f"s{i}", ("c", "0"), f"s{i + 1}") for i in range(n)),
    )


def _sender_frame(behavior) -> Frame:
    """A sends on c to B, which takes any number of zeros."""
    sink = Lts(frozenset({"idle"}), "idle", frozenset({("idle", ("c", "0"), "idle")}))
    return Frame.build(
        [Location("A", behavior), Location("B", sink)], [Channel("c", "A", "B")], ["0"]
    )


def test_shared_core_names_a_trace_mismatch_past_the_bound():
    # At bound 2 the two senders agree on every run, but their trace sets
    # differ at the sixth send.
    with pytest.raises(SharedCoreError) as info:
        build_shared_core(_sender_frame(_chain_lts(6)), _sender_frame(_chain_lts(5)), {"A"}, Bound(2))
    assert str((("c", "0"),) * 6) in str(info.value)


def test_shared_core_compares_explicit_traces_with_an_lts_past_the_bound():
    six = ExplicitTraces.of([("c", "0")] * 6)
    with pytest.raises(SharedCoreError) as info:
        build_shared_core(_sender_frame(six), _sender_frame(_chain_lts(5)), {"A"}, Bound(2))
    assert str((("c", "0"),) * 6) in str(info.value)


def test_shared_core_accepts_equal_explicit_and_lts_behaviors():
    six = ExplicitTraces.of([("c", "0")] * 6)
    core = build_shared_core(_sender_frame(six), _sender_frame(_chain_lts(6)), {"A"}, Bound(2))
    assert core.cut0 == frozenset({"c"}) and core.run_inclusion_ok


def test_shared_core_missing_location_rejected():
    v1 = build_voting(VotingParams(precincts=(2,)))
    v2 = build_voting(VotingParams(precincts=(2, 2)))
    with pytest.raises(SharedCoreError):
        build_shared_core(v1.frame, v2.frame, {"v9_9"}, Bound(6))


def test_composition_checks_side_condition_and_scopes():
    v1 = build_voting(VotingParams(precincts=(2,)))
    v2 = build_voting(VotingParams(precincts=(2, 2)))
    core = build_shared_core(v1.frame, v2.frame, {"v1_1", "v1_2", "BB1"}, Bound(8))
    blur = v1.blurs["f0_p1"]
    with pytest.raises(SharedCoreError):
        verify_composition(core, {"c1"}, {"p"}, blur)
    with pytest.raises(SharedCoreError):
        verify_composition(core, core.left0, {"c1"}, blur)


def test_composition_on_same_frame_matches_cut_blur():
    # With the two frames equal, composition specializes to the cut-blur
    # transport over the core boundary.
    fw = build_firewall(FirewallParams())
    core = build_shared_core(
        fw.frame,
        fw.frame,
        {"n1", "n2", "I_n1r2_up", "I_n2r2_up", "I_r2n1_down", "I_r2n2_down", "r2",
         "I_r1r2_up_a", "I_r1r2_down_b"},
        Bound(6),
    )
    assert core.cut0 == frozenset({"mid_up", "mid_down"})
    comp = verify_composition(core, frozenset({"n1_out"}), frozenset({"i_in"}), fw.blurs["f_e"])
    cut = verify_cut_blur(
        fw.frame,
        ChannelSetTriple(frozenset({"n1_out"}), core.cut0, frozenset({"i_in"})),
        fw.blurs["f_e"],
        Bound(6),
    )
    assert comp.antecedent.holds == cut.antecedent.holds
    assert comp.consequent.holds == cut.consequent.holds
    assert comp.locality_ok
