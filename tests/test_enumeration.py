from __future__ import annotations

import hashlib
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from flowcut.enumeration import (
    Bound,
    EnumerationError,
    _enumerate_cached,
    enumerate_executions,
    enumerate_runs,
)
from flowcut.events import CanonicalRun, is_execution, project
from flowcut.frames import (
    Channel,
    ExplicitTraces,
    Frame,
    Location,
    location_language,
)
from flowcut.purge import star_frame
from flowcut.scenarios import FirewallParams, VotingParams, build_firewall, build_voting

from support import (
    canonical_to_naive,
    child_env,
    count_restrictions,
    count_serializations,
    naive_histories,
    naive_iso,
    naive_poset,
    random_budget_complete_frame,
    random_channel_subset,
    random_machine,
    reference_canonicalize,
    reference_enumerate,
)


def test_bound_validation():
    with pytest.raises(EnumerationError):
        Bound(-1)
    with pytest.raises(EnumerationError):
        Bound(2, -1)
    with pytest.raises(EnumerationError):
        Bound(2, 3)
    assert Bound(3, 2).max_events_per_location == 2


def test_bound_zero_gives_empty_execution_only():
    loc = Location("L", ExplicitTraces.of([("c", "v")]))
    frame = Frame.build([loc], [Channel("c", "L", "L")], ["v"])
    exset = enumerate_executions(frame, Bound(0))
    assert len(exset) == 1
    assert exset.canonicals[0].n_events == 0
    assert exset.systems[0].n_events == 0


def test_single_self_loop_two_executions():
    loc = Location("L", ExplicitTraces.of([("c", "v")]))
    frame = Frame.build([loc], [Channel("c", "L", "L")], ["v"])
    exset = enumerate_executions(frame, Bound(2))
    assert len(exset) == 2


def test_independent_events_stay_incomparable():
    x = Location("X", ExplicitTraces.of([("cx", "v")]))
    y = Location("Y", ExplicitTraces.of([("cy", "v")]))
    frame = Frame.build(
        [x, y], [Channel("cx", "X", "X"), Channel("cy", "Y", "Y")], ["v"]
    )
    exset = enumerate_executions(frame, Bound(2))
    assert len(exset) == 4
    both = [run for run in exset.canonicals if run.n_events == 2]
    assert len(both) == 1
    assert both[0].ancestors == (0, 0)


def test_synchronous_step_needs_both_endpoints():
    # The sender is willing but the recipient's trace set never accepts.
    s = Location("S", ExplicitTraces.of([("c", "v")]))
    r = Location("R", ExplicitTraces.of())
    frame = Frame.build([s, r], [Channel("c", "S", "R")], ["v"])
    exset = enumerate_executions(frame, Bound(3))
    assert len(exset) == 1  # only the empty execution


def test_per_location_bound_caps_participation():
    loc = Location("L", ExplicitTraces.of([("c", "v"), ("c", "v")]))
    frame = Frame.build([loc], [Channel("c", "L", "L")], ["v"])
    assert len(enumerate_executions(frame, Bound(3))) == 3
    assert len(enumerate_executions(frame, Bound(3, 1))) == 2


def test_per_location_bound_caps_the_recipient_too():
    # R takes c from S and fires its own d, in either order; with one event
    # per location, c is disabled once R has fired d.
    s = Location("S", ExplicitTraces.of([("c", "v")]))
    r = Location("R", ExplicitTraces.of([("c", "v"), ("d", "v")], [("d", "v"), ("c", "v")]))
    frame = Frame.build([s, r], [Channel("c", "S", "R"), Channel("d", "R", "R")], ["v"])
    assert len(enumerate_executions(frame, Bound(3))) == 5
    assert len(enumerate_executions(frame, Bound(3, 1))) == 3


def test_malformed_frame_rejected():
    loc = Location("L", ExplicitTraces(frozenset({(("c", "v"),)})))
    frame = Frame.build([loc], [Channel("c", "L", "L")], ["v"])
    with pytest.raises(EnumerationError):
        enumerate_executions(frame, Bound(2))


def test_each_frame_is_validated_once_per_enumeration(monkeypatch):
    from flowcut import enumeration

    validated = []
    validate = enumeration.validate_frame

    def counted(frame):
        validated.append(frame)
        return validate(frame)

    monkeypatch.setattr(enumeration, "validate_frame", counted)
    _enumerate_cached.cache_clear()
    frame = build_voting(VotingParams(precincts=(2,))).frame
    for _ in range(3):
        enumerate_executions(frame, Bound(4))
    enumerate_runs(frame, set(), Bound(4))
    assert validated == [frame]
    enumerate_executions(frame, Bound(5))
    assert validated == [frame, frame]
    # A malformed frame raises on every call: the cache keeps no failure.
    loc = Location("L", ExplicitTraces(frozenset({(("c", "v"),)})))
    bad = Frame.build([loc], [Channel("c", "L", "L")], ["v"])
    for _ in range(2):
        with pytest.raises(EnumerationError):
            enumerate_executions(bad, Bound(2))
    assert validated == [frame, frame, bad, bad]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_soundness_every_member_is_an_execution(seed):
    rng = random.Random(seed)
    frame = random_budget_complete_frame(rng, 5)
    for run in enumerate_executions(frame, Bound(5)).canonicals:
        assert is_execution(run, frame).ok


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_monotonicity_in_the_bound(seed):
    rng = random.Random(seed)
    frame = random_budget_complete_frame(rng, 5)
    small = {c.serialize() for c in enumerate_executions(frame, Bound(3)).canonicals}
    large = {c.serialize() for c in enumerate_executions(frame, Bound(5)).canonicals}
    assert small <= large


@pytest.mark.parametrize("seed", [0, 1])
def test_projection_completeness(seed):
    rng = random.Random(seed)
    frame = random_budget_complete_frame(rng, 5)
    for run in enumerate_executions(frame, Bound(5)).canonicals:
        for loc in frame.locations:
            assert project(run, frame, loc.id) in location_language(loc, 5)


_ORDER_DIGEST = """
import hashlib, random
from flowcut.enumeration import Bound, enumerate_executions
from flowcut.purge import star_frame
from flowcut.scenarios import FirewallParams, build_firewall
from support import random_budget_complete_frame
for frame, bound in (
    (random_budget_complete_frame(random.Random(9), 5), 5),
    (build_firewall(FirewallParams()).frame, 7),
):
    joined = "\\n".join(c.serialize() for c in enumerate_executions(frame, Bound(bound)).canonicals)
    print(hashlib.sha256(joined.encode()).hexdigest())
"""


def test_determinism_across_fresh_enumerations():
    import subprocess
    import sys
    from pathlib import Path

    rng = random.Random(9)
    frame = random_budget_complete_frame(rng, 5)
    first = [c.serialize() for c in enumerate_executions(frame, Bound(5)).canonicals]
    _enumerate_cached.cache_clear()
    second = [c.serialize() for c in enumerate_executions(frame, Bound(5)).canonicals]
    assert first == second
    # The order is the search's own, so it must not follow string hashing:
    # fresh processes under two hash seeds list the executions alike.
    outputs = []
    for seed in ("0", "2"):
        child = subprocess.run(
            [sys.executable, "-c", _ORDER_DIGEST],
            capture_output=True,
            env=child_env(Path(__file__).resolve().parent, PYTHONHASHSEED=seed),
        )
        assert child.returncode == 0, child.stderr.decode(errors="replace")
        outputs.append(child.stdout.decode().split())
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == hashlib.sha256("\n".join(first).encode()).hexdigest()


def test_enumeration_serializes_no_execution(monkeypatch):
    calls = count_serializations(monkeypatch)
    _enumerate_cached.cache_clear()
    exset = enumerate_executions(build_firewall(FirewallParams()).frame, Bound(8))
    assert len(exset) > 100
    assert calls[0] == 0


def test_execution_set_restricts_once_per_channel_set_and_keeps_no_field(monkeypatch):
    rng = random.Random(4)
    frame = random_budget_complete_frame(rng, 4)
    chans = random_channel_subset(rng, frame)
    _enumerate_cached.cache_clear()
    exset = enumerate_executions(frame, Bound(4))
    calls = count_restrictions(monkeypatch)
    runs = exset.runs_at(chans)
    assert exset.runs_at(list(chans)) is runs
    assert enumerate_executions(frame, Bound(4)).runs_at(chans) is runs
    assert calls[0] == 1
    assert runs == tuple(run.restrict(chans) for run in exset.canonicals)
    # The memo is private state: repr and pickling carry the two fields
    # only, and a copy searches and restricts afresh.
    assert repr(exset).startswith("ExecutionSet(frame=") and "_runs" not in repr(exset)
    assert exset.__reduce__()[1] == (exset.frame, exset.bound)
    twin = pickle.loads(pickle.dumps(exset))
    assert (twin.frame, twin.bound, twin.canonicals) == (exset.frame, exset.bound, exset.canonicals)
    assert twin != exset
    calls[0] = 0
    assert twin.runs_at(chans) == runs and calls[0] == 1


def test_runs_empty_channel_set_is_single_empty_run():
    rng = random.Random(4)
    frame = random_budget_complete_frame(rng, 4)
    assert enumerate_runs(frame, set(), Bound(4)) == frozenset({CanonicalRun.empty()})


def test_runs_unknown_channel_rejected():
    rng = random.Random(4)
    frame = random_budget_complete_frame(rng, 4)
    from flowcut.frames import UnknownChannelError

    with pytest.raises(UnknownChannelError):
        enumerate_runs(frame, {"ghost"}, Bound(4))


def test_runs_discarding_firewall_cut_is_empty_run_only():
    scn = build_firewall(FirewallParams(filtering="discard_all"))
    runs = enumerate_runs(scn.frame, scn.named_sets["cut"], Bound(6))
    assert runs == frozenset({CanonicalRun.empty()})


def test_runs_voting_voter_channels():
    scn = build_voting(VotingParams(precincts=(2,)))
    runs = enumerate_runs(scn.frame, scn.named_sets["voters"], Bound(8))
    # Votes at a shared ballot box are mutually ordered, so full patterns
    # come in both reception orders: 1 empty + 4 singles + 4*2 pairs.
    assert len(runs) == 13
    assignments = {run.channels for run in runs}
    assert len(assignments) == 9


def test_runs_are_restrictions_of_enumerated_executions():
    rng = random.Random(6)
    frame = random_budget_complete_frame(rng, 5)
    chans = frozenset(list(frame.channel_ids)[:2])
    exset = enumerate_executions(frame, Bound(5))
    expected = {reference_canonicalize(s.restrict(chans)) for s in exset.systems}
    assert enumerate_runs(frame, chans, Bound(5)) == expected


def test_firewall_region_sends_2_at_bound_8_is_pinned():
    """Count and digest of every canonical execution (its serializations,
    sorted), recorded with the enumerator that canonicalized each firing
    sequence."""
    scn = build_firewall(FirewallParams(region_sends=2))
    exset = enumerate_executions(scn.frame, Bound(8))
    assert len(exset) == 9244
    # The serializations of the canonical runs, and the texts written along
    # the search tree.
    for texts in ([c.serialize() for c in exset.canonicals], exset.texts()):
        joined = "\n".join(sorted(texts))
        assert (
            hashlib.sha256(joined.encode()).hexdigest()
            == "6c7a7b86bccec149b55af16b04fe46fe4639449fbf9bd3ae7762e2f5fe77a2cc"
        )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_canonicals_match_the_naive_oracle(seed):
    """Every firing history is isomorphic to exactly one enumerated
    execution, and every enumerated execution to some history."""
    rng = random.Random(seed)
    frame = random_budget_complete_frame(rng, 4)
    exset = enumerate_executions(frame, Bound(4))
    by_labels: dict = {}
    for i, crun in enumerate(exset.canonicals):
        poset = canonical_to_naive(crun)
        by_labels.setdefault(tuple(sorted(poset[0])), []).append((i, poset))
    hit = set()
    for history in naive_histories(frame, 4):
        poset = naive_poset(frame, history)
        candidates = by_labels.get(tuple(sorted(history)), [])
        matches = [i for i, rep in candidates if naive_iso(poset, rep)]
        assert len(matches) == 1
        hit.update(matches)
    assert hit == set(range(len(exset)))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_executions_and_runs_match_the_reference_enumerator(seed):
    """The same canonicals, each once, as canonicalizing every firing
    sequence, and each execution's bitmask restriction equals the
    canonical form of its reference execution restricted as an event
    system."""
    rng = random.Random(seed)
    frame = random_budget_complete_frame(rng, 5)
    exset = enumerate_executions(frame, Bound(5))
    reference = dict(reference_enumerate(frame, 5))
    assert len(exset.canonicals) == len(reference)
    assert set(exset.canonicals) == set(reference)
    for chans in [frozenset(), frozenset(frame.channel_ids)] + [
        random_channel_subset(rng, frame) for _ in range(4)
    ]:
        expected = tuple(
            reference_canonicalize(reference[crun].restrict(chans)) for crun in exset.canonicals
        )
        assert exset.runs_at(chans) == expected
        assert tuple(reference_canonicalize(sys.restrict(chans)) for sys in exset.systems) == expected
    cap = rng.randint(1, 4)
    capped = enumerate_executions(frame, Bound(5, cap))
    expected = {crun for crun in reference if _within_cap(frame, crun, cap)}
    assert len(capped.canonicals) == len(expected)
    assert set(capped.canonicals) == expected


def _within_cap(frame, run, cap):
    """Whether every location has at most ``cap`` events in ``run``; a
    self-loop event counts once."""
    msgs = dict(run.channels)
    counts = dict.fromkeys(frame.location_ids, 0)
    for c in frame.channels:
        for loc in {c.sender, c.recipient}:
            counts[loc] += len(msgs.get(c.id, ()))
    return max(counts.values()) <= cap


def _check_runs_along_the_tree(frame, bound, channel_sets, cap):
    """Each channel set's runs, built along the search tree before the
    canonicals are, equal the canonicals restricted one by one, in
    execution order; the canonicals are the reference enumerator's, and
    at the per-location ``cap`` those of them within the cap."""
    _enumerate_cached.cache_clear()
    reference = {crun for crun, _ in reference_enumerate(frame, bound)}
    for limit, expected in [
        (Bound(bound), reference),
        (Bound(bound, cap), {crun for crun in reference if _within_cap(frame, crun, cap)}),
    ]:
        exset = enumerate_executions(frame, limit)
        built = [exset.runs_at(chans) for chans in channel_sets]
        assert len(exset.canonicals) == len(exset) == len(expected)
        assert set(exset.canonicals) == expected
        for chans, runs in zip(channel_sets, built):
            assert runs == tuple(run.restrict(chans) for run in exset.canonicals)
        assert exset.runs_at(frame.channel_ids) is exset.canonicals


@pytest.mark.parametrize("seed", range(12))
def test_runs_along_the_tree_on_random_frames(seed):
    rng = random.Random(seed)
    frame = random_budget_complete_frame(rng, 5)
    loops = [c.id for c in frame.channels if c.is_self_loop]
    while not loops:  # every case restricts to a self-loop channel too
        frame = random_budget_complete_frame(rng, 5)
        loops = [c.id for c in frame.channels if c.is_self_loop]
    loop = frozenset({rng.choice(loops)})
    sets = [frozenset(), frozenset(frame.channel_ids), loop, loop | random_channel_subset(rng, frame)]
    sets += [random_channel_subset(rng, frame) for _ in range(3)]
    _check_runs_along_the_tree(frame, 5, sets, rng.randint(1, 4))


@pytest.mark.parametrize("seed", range(12))
def test_runs_along_the_tree_on_star_frames(seed):
    rng = random.Random(seed)
    machine = random_machine(rng)
    frame = star_frame(machine)
    sets = [frozenset(), frozenset(frame.channel_ids), machine.input_channels()]
    sets += [machine.domain_channels(d) for d in machine.domains]
    sets += [random_channel_subset(rng, frame) for _ in range(2)]
    _check_runs_along_the_tree(frame, 8, sets, rng.randint(1, 7))


def _check_texts_along_the_tree(frame, bound):
    """The texts written along the search tree are the canonical runs'
    serializations, in execution order."""
    _enumerate_cached.cache_clear()
    exset = enumerate_executions(frame, bound)
    assert exset.texts() == [c.serialize() for c in exset.canonicals]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16), cap=st.integers(1, 4))
def test_texts_along_the_tree_on_random_frames(seed, cap):
    rng = random.Random(seed)
    frame = random_budget_complete_frame(rng, 5)
    while not any(c.is_self_loop for c in frame.channels):
        frame = random_budget_complete_frame(rng, 5)
    _check_texts_along_the_tree(frame, Bound(5))
    _check_texts_along_the_tree(frame, Bound(5, cap))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), cap=st.integers(1, 7))
def test_texts_along_the_tree_on_star_frames(seed, cap):
    frame = star_frame(random_machine(random.Random(seed)))
    _check_texts_along_the_tree(frame, Bound(8))
    _check_texts_along_the_tree(frame, Bound(8, cap))
