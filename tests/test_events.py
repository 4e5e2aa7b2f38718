from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from flowcut.enumeration import Bound, enumerate_executions
from flowcut.events import (
    CanonicalizeError,
    CanonicalRun,
    Event,
    EventSystem,
    EventSystemError,
    LinearityError,
    canonicalize,
    covering_pairs,
    is_execution,
    is_initial_substructure,
    project,
)
from flowcut.frames import Channel, ExplicitTraces, Frame, Location, UnknownChannelError

from support import (
    random_budget_complete_frame,
    reference_canonicalize,
    reference_closure,
    reference_reduction,
)


def tiny_frame() -> Frame:
    loc = Location("L", ExplicitTraces.of())
    return Frame.build([loc], [Channel("c", "L", "L")], ["v"])


def test_empty_system_is_execution_everywhere():
    assert is_execution(EventSystem.empty(), tiny_frame()).ok


def test_trace_membership_diagnostic():
    sys = EventSystem.build([("c", "v")])
    check = is_execution(sys, tiny_frame())
    assert not check.ok
    assert check.failures == (("L", "trace membership"),)


def test_linearity_diagnostic():
    loc = Location("L", ExplicitTraces.of([("c", "v"), ("c", "v")]))
    frame = Frame.build([loc], [Channel("c", "L", "L")], ["v"])
    sys = EventSystem.build([("c", "v"), ("c", "v")])  # no order
    check = is_execution(sys, frame)
    assert check.failures == (("L", "linearity"),)


def test_unknown_channel_raises():
    sys = EventSystem.build([("ghost", "v")])
    with pytest.raises(UnknownChannelError):
        is_execution(sys, tiny_frame())


def test_project_empty_and_ordered():
    frame = tiny_frame()
    assert project(EventSystem.empty(), frame, "L") == ()
    sys = EventSystem.build([("c", "v"), ("c", "v")], [(0, 1)])
    assert project(sys, frame, "L") == (("c", "v"), ("c", "v"))


def test_project_linearity_error_carries_pair():
    sys = EventSystem.build([("c", "v"), ("c", "v")])
    with pytest.raises(LinearityError) as info:
        project(sys, tiny_frame(), "L")
    assert set(info.value.pair) == {0, 1}


def test_order_must_be_acyclic():
    with pytest.raises(EventSystemError):
        EventSystem.build([("c", "v"), ("c", "v")], [(0, 1), (1, 0)])
    # Event 1 lies only downstream of the 2-3 cycle; the message names an
    # event on the cycle.
    with pytest.raises(EventSystemError, match="cycle through event 2$"):
        EventSystem.build([("c", "v")] * 4, [(2, 3), (3, 2), (3, 1)])
    with pytest.raises(EventSystemError, match="cycle through event 1$"):
        EventSystem.build([("c", "v")] * 2, [(0, 1), (1, 1)])
    with pytest.raises(EventSystemError, match="out of range"):
        EventSystem.build([("c", "v")], [(0, 1)])


def test_restrict_identity_and_empty():
    sys = EventSystem.build([("c", "v"), ("d", "w")], [(0, 1)])
    assert canonicalize(sys.restrict({"c", "d"})) == canonicalize(sys)
    assert sys.restrict(set()).n_events == 0


def test_restrict_keeps_induced_order_through_dropped_events():
    # a < b < c with b on its own channel: restricting away b must keep a < c.
    sys = EventSystem.build(
        [("x", "v"), ("y", "v"), ("x", "v")], [(0, 1), (1, 2)]
    )
    out = sys.restrict({"x"})
    assert out.n_events == 2
    assert out.precedes(0, 1)


def test_canonicalize_empty_and_isomorphism():
    assert canonicalize(EventSystem.empty()) == CanonicalRun.empty()
    s1 = EventSystem.build([("c", "v")])
    s2 = EventSystem.build([("c", "v")])
    assert canonicalize(s1) == canonicalize(s2)


def test_canonicalize_distinguishes_order():
    runs = {
        canonicalize(EventSystem.build([("c", "v"), ("d", "w")], pairs)).serialize()
        for pairs in ([(0, 1)], [(1, 0)], [])
    }
    assert len(runs) == 3


def test_canonicalize_rejects_incomparable_same_channel():
    sys = EventSystem.build([("c", "v"), ("c", "v")])
    with pytest.raises(CanonicalizeError):
        canonicalize(sys)


def test_canonicalize_invariant_under_event_relabeling():
    # The same poset presented with permuted event indices canonicalizes
    # identically.
    events = [("a", "0"), ("b", "1"), ("a", "1")]
    pairs = [(0, 1), (1, 2)]
    base = canonicalize(EventSystem.build(events, pairs))
    for perm in itertools.permutations(range(3)):
        shuffled = [events[i] for i in perm]
        inv = {old: new for new, old in enumerate(perm)}
        mapped = [(inv[a], inv[b]) for a, b in pairs]
        assert canonicalize(EventSystem.build(shuffled, mapped)) == base


def test_initial_substructure_basics():
    frame = tiny_frame()
    sys = EventSystem.build([("c", "v"), ("c", "v")], [(0, 1)])
    assert is_initial_substructure(EventSystem.empty(), sys)
    assert is_initial_substructure(sys, sys)
    # Keeping the later event without its predecessor is not downward closed;
    # under canonical identity the one kept event reads as the chain head,
    # which mismatches the original system's first event only when msgs
    # differ, so use distinct messages.
    sys2 = EventSystem.build([("c", "v"), ("c", "w")], [(0, 1)])
    frame2 = Frame.build(
        [Location("L", ExplicitTraces.of([("c", "v"), ("c", "w")]))],
        [Channel("c", "L", "L")],
        ["v", "w"],
    )
    tail_only = EventSystem.build([("c", "w")])
    assert not is_initial_substructure(tail_only, sys2)
    # The same events with less order are not order-induced.
    ordered = EventSystem.build([("a", "v"), ("b", "v")], [(0, 1)])
    assert not is_initial_substructure(EventSystem.build([("a", "v"), ("b", "v")]), ordered)


def test_initial_substructures_of_executions_are_executions():
    rng = random.Random(5)
    frame = random_budget_complete_frame(rng, 4)
    exset = enumerate_executions(frame, Bound(4))
    for sys in exset.systems:
        n = sys.n_events
        for mask in range(1 << n):
            keep = [i for i in range(n) if mask >> i & 1]
            downward = all(a in keep for b in keep for a in range(n) if sys.precedes(a, b))
            if not downward:
                continue
            sub = sys.induced(keep)
            assert is_execution(sub, frame).ok
            assert is_initial_substructure(sub, sys)


@pytest.mark.parametrize("seed", [0, 3])
def test_nested_restriction_composes(seed):
    rng = random.Random(seed)
    frame = random_budget_complete_frame(rng, 5)
    chans = list(frame.channel_ids)
    exset = enumerate_executions(frame, Bound(5))
    for sys in exset.systems:
        c1 = frozenset(chans[: max(1, len(chans) // 2 + 1)])
        c0 = frozenset(list(c1)[:1])
        direct = canonicalize(sys.restrict(c0))
        nested = canonicalize(sys.restrict(c1).restrict(c0))
        assert direct == nested


def test_restriction_commutes_with_canonicalization():
    # Two isomorphic presentations restrict to equal canonical runs.
    rng = random.Random(11)
    frame = random_budget_complete_frame(rng, 5)
    exset = enumerate_executions(frame, Bound(5))
    for sys in exset.systems:
        rebuilt = canonicalize(sys).to_event_system()
        for cid in frame.channel_ids:
            assert canonicalize(sys.restrict({cid})) == canonicalize(
                rebuilt.restrict({cid})
            )


def test_to_event_system_round_trip():
    rng = random.Random(2)
    frame = random_budget_complete_frame(rng, 5)
    for sys in enumerate_executions(frame, Bound(5)).systems:
        run = canonicalize(sys)
        assert canonicalize(run.to_event_system()) == run


@given(st.integers(0, 2 ** 4 - 1))
@settings(max_examples=16, deadline=None)
def test_canonical_equality_iff_bijection_exists(mask):
    # Three fixed events with the same-channel pair always ordered (so the
    # systems are canonicalizable), random cross-channel pairs: canonical
    # equality must track brute-force isomorphism.
    events = [Event("a", "0"), Event("b", "0"), Event("a", "1")]
    candidates = [(0, 1), (1, 2)]
    chosen = [(0, 2)] + [p for k, p in enumerate(candidates) if mask >> k & 1]
    chosen2 = [(0, 2)] + [p for k, p in enumerate(candidates) if mask >> (k + 2) & 1]
    s1 = EventSystem.build(events, chosen)
    s2 = EventSystem.build(events, chosen2)
    run_equal = canonicalize(s1) == canonicalize(s2)
    iso = _brute_force_iso(s1, s2)
    assert run_equal == iso


def _brute_force_iso(s1: EventSystem, s2: EventSystem) -> bool:
    n = s1.n_events
    if n != s2.n_events:
        return False
    for perm in itertools.permutations(range(n)):
        if any(s1.events[i] != s2.events[perm[i]] for i in range(n)):
            continue
        if all(
            ((i, j) in s1.strict) == ((perm[i], perm[j]) in s2.strict)
            for i in range(n)
            for j in range(n)
        ):
            return True
    return False


# -- differential check against the direct canonical form ------------------------


@st.composite
def event_systems(draw, linear: bool):
    """Random DAGs on up to seven events over three channels, presented in
    a random index order.  With ``linear`` each channel's events are
    chained, so the system is per-channel linear."""
    n = draw(st.integers(0, 7))
    chans = draw(st.lists(st.sampled_from("abc"), min_size=n, max_size=n))
    msgs = draw(st.lists(st.sampled_from("01"), min_size=n, max_size=n))
    forward = [(i, j) for i in range(n) for j in range(i + 1, n)]
    pairs = draw(st.sets(st.sampled_from(forward))) if forward else set()
    if linear:
        for chan in set(chans):
            idx = [i for i in range(n) if chans[i] == chan]
            pairs |= set(zip(idx, idx[1:]))
    perm = draw(st.permutations(range(n)))
    events = [None] * n
    for i in range(n):
        events[perm[i]] = (chans[i], msgs[i])
    return EventSystem.build(events, {(perm[a], perm[b]) for a, b in pairs})


def _canonical_or_error(fn, sys):
    try:
        return fn(sys)
    except CanonicalizeError:
        return CanonicalizeError


@given(event_systems(linear=True))
@settings(max_examples=100, deadline=None)
def test_canonicalize_matches_reference_on_linear_systems(sys):
    assert canonicalize(sys) == reference_canonicalize(sys)


@given(event_systems(linear=False))
@settings(max_examples=100, deadline=None)
def test_canonicalize_and_reference_reject_the_same_systems(sys):
    linear = all(
        sys.comparable(a, b)
        for a in range(sys.n_events)
        for b in range(sys.n_events)
        if sys.events[a].chan == sys.events[b].chan
    )
    got = _canonical_or_error(canonicalize, sys)
    assert got == _canonical_or_error(reference_canonicalize, sys)
    assert (got is CanonicalizeError) == (not linear)


# -- canonical runs against the direct canonical form -----------------------------


def _json_serialization(run: CanonicalRun) -> str:
    return json.dumps(
        {
            "ch": [[c, list(msgs)] for c, msgs in run.channels],
            "ord": [[list(a), list(b)] for a, b in run.order],
        },
        sort_keys=True,
        separators=(",", ":"),
    )


@given(event_systems(linear=True), st.data())
@settings(max_examples=200, deadline=None)
def test_canonical_restrict_and_induced_match_reference(sys, data):
    run = canonicalize(sys)
    assert run == reference_canonicalize(sys)
    chans = data.draw(st.sets(st.sampled_from("abc")))
    assert run.restrict(chans) == reference_canonicalize(sys.restrict(chans))
    # Canonical indices of the run are the event indices of its system.
    full = run.to_event_system()
    assert reference_canonicalize(full) == run
    n = run.n_events
    kept = data.draw(st.sets(st.integers(0, n - 1))) if n else set()
    sub = full.induced(kept)
    new = {old: k for k, old in enumerate(sorted(kept))}
    assert sub.strict == {(new[a], new[b]) for a, b in full.strict if a in kept and b in kept}
    assert run.induced(kept) == reference_canonicalize(sub)
    ids = [(chan, i) for chan, msgs in run.channels for i in range(len(msgs))]
    covers = reference_reduction(full.strict, n)
    assert run.order == tuple(sorted((ids[a], ids[b]) for a, b in covers))
    assert CanonicalRun.build(run.channels, run.order) == run
    assert run.serialize() == _json_serialization(run)


def test_serialize_escapes_like_json():
    channels = [('c"1', ("\u00e9", "\\", "\n")), ("b", ("x",))]
    run = CanonicalRun.build(channels, [(("b", 0), ('c"1', 1))])
    assert run.serialize() == _json_serialization(run)
    assert json.loads(run.serialize())["ord"] == [
        [["b", 0], ['c"1', 1]],
        [['c"1', 0], ['c"1', 1]],
        [['c"1', 1], ['c"1', 2]],
    ]


def test_build_names_a_canonical_id_on_a_cycle():
    # a0 < a1 by the chain, a1 < b0 < a0 by the pairs; b1 lies only above it.
    channels = [("b", ("z", "w")), ("a", ("x", "y"))]
    with pytest.raises(EventSystemError, match=r"cycle through event \('a', 0\)$"):
        CanonicalRun.build(channels, [(("a", 1), ("b", 0)), (("b", 0), ("a", 0))])
    with pytest.raises(EventSystemError, match="unknown canonical id"):
        CanonicalRun.build(channels, [(("a", 2), ("b", 0))])
    run = CanonicalRun.build(channels, [(("a", 1), ("b", 0))])
    assert run.channels == (("a", ("x", "y")), ("b", ("z", "w")))
    assert run.order == ((("a", 0), ("a", 1)), (("a", 1), ("b", 0)), (("b", 0), ("b", 1)))


# -- ancestor masks against the pair-set closure ---------------------------------


@st.composite
def relations(draw):
    """A random relation on up to eight events; cycles and self-loops
    included."""
    n = draw(st.integers(0, 8))
    if not n:
        return 0, []
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    return n, draw(st.lists(pair, max_size=10))


@given(relations())
@settings(max_examples=300, deadline=None)
def test_build_matches_reference_closure_or_names_a_cycle(rel):
    n, pairs = rel
    closed = reference_closure(n, pairs)
    events = [("c", "v")] * n
    if any(a == b for a, b in closed):
        with pytest.raises(EventSystemError) as info:
            EventSystem.build(events, pairs)
        named = int(str(info.value).rsplit(" ", 1)[1])
        assert (named, named) in closed
    else:
        assert EventSystem.build(events, pairs).strict == closed


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_covering_pairs_match_brute_force_reduction(data):
    n = data.draw(st.integers(0, 8))
    forward = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pairs = data.draw(st.sets(st.sampled_from(forward))) if forward else set()
    perm = data.draw(st.permutations(range(n)))
    sys = EventSystem.build([("c", "v")] * n, [(perm[a], perm[b]) for a, b in pairs])
    kept = data.draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []
    induced = {(a, b) for a, b in sys.strict if a in kept and b in kept}
    reduction = {
        (a, b) for a, b in induced if not any((a, c) in induced and (c, b) in induced for c in kept)
    }
    new = {old: k for k, old in enumerate(sorted(kept))}
    got = covering_pairs(sys.induced(kept).ancestors)
    assert got == sorted((new[a], new[b]) for a, b in reduction)


def test_covering_pairs_of_a_40_event_chain():
    # Each event of a chain has every earlier event below it; only the one
    # just before it is a cover, whether indices follow the chain or not.
    shuffled = list(range(40))
    random.Random(40).shuffle(shuffled)
    for chain in (list(range(40)), shuffled):
        links = list(zip(chain, chain[1:]))
        sys = EventSystem.build([("c", "v")] * 40, links)
        assert covering_pairs(sys.ancestors) == sorted(links)
