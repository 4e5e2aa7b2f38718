from __future__ import annotations

import itertools
import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from flowcut.enumeration import Bound, enumerate_executions
from flowcut.events import (
    CanonicalRun,
    Event,
    EventSystemError,
    LinearityError,
    ancestor_masks,
    chain_order,
    covering_pairs,
    is_execution,
    is_initial_substructure,
    project,
)
from flowcut.frames import Channel, ExplicitTraces, Frame, FrameError, Location, UnknownChannelError

from support import (
    CanonicalizeError,
    build_system,
    comparable,
    induced_system,
    precedes,
    random_budget_complete_frame,
    reference_canonicalize,
    reference_closure,
    reference_is_execution,
    reference_is_initial_substructure,
    reference_reduction,
    strict_pairs,
)


def tiny_frame() -> Frame:
    loc = Location("L", ExplicitTraces.of())
    return Frame.build([loc], [Channel("c", "L", "L")], ["v"])


def two_channel_frame() -> Frame:
    """One location with two self-loops, ``c`` and ``d``."""
    loc = Location("L", ExplicitTraces.of([("c", "v"), ("d", "v")]))
    return Frame.build([loc], [Channel("c", "L", "L"), Channel("d", "L", "L")], ["v"])


UNORDERED = CanonicalRun.build([("c", ("v",)), ("d", ("v",))])  # two events, no order


def test_empty_system_is_execution_everywhere():
    assert is_execution(CanonicalRun.empty(), tiny_frame()).ok


def test_trace_membership_diagnostic():
    run = CanonicalRun.build([("c", ("v",))])
    check = is_execution(run, tiny_frame())
    assert not check.ok
    assert check.failures == (("L", "trace membership"),)


def test_linearity_diagnostic():
    check = is_execution(UNORDERED, two_channel_frame())
    assert check.failures == (("L", "linearity"),)


def test_unknown_channel_raises():
    run = CanonicalRun.build([("ghost", ("v",))])
    with pytest.raises(UnknownChannelError):
        is_execution(run, tiny_frame())


def test_project_empty_and_ordered():
    frame = tiny_frame()
    assert project(CanonicalRun.empty(), frame, "L") == ()
    run = CanonicalRun.build([("c", ("v", "v"))])
    assert project(run, frame, "L") == (("c", "v"), ("c", "v"))


def test_project_linearity_error_carries_pair():
    with pytest.raises(LinearityError) as info:
        project(UNORDERED, two_channel_frame(), "L")
    assert set(info.value.pair) == {0, 1}


def test_project_rejects_an_unknown_location():
    with pytest.raises(FrameError, match="unknown location: 'nope'"):
        project(CanonicalRun.empty(), tiny_frame(), "nope")


def test_order_must_be_acyclic():
    with pytest.raises(EventSystemError):
        ancestor_masks(2, [(0, 1), (1, 0)])
    # Event 1 lies only downstream of the 2-3 cycle; the message names an
    # event on the cycle.
    with pytest.raises(EventSystemError, match="cycle through event 2$"):
        ancestor_masks(4, [(2, 3), (3, 2), (3, 1)])
    with pytest.raises(EventSystemError, match="cycle through event 1$"):
        ancestor_masks(2, [(0, 1), (1, 1)])
    with pytest.raises(EventSystemError, match="out of range"):
        ancestor_masks(1, [(0, 1)])


def test_restrict_identity_and_empty():
    sys = build_system([("c", "v"), ("d", "w")], [(0, 1)])
    assert reference_canonicalize(sys.restrict({"c", "d"})) == reference_canonicalize(sys)
    assert sys.restrict(set()).n_events == 0
    run = reference_canonicalize(sys)
    assert run.restrict({"c", "d"}) is run
    assert run.restrict(set()) == CanonicalRun.empty()


def test_restrict_keeps_induced_order_through_dropped_events():
    # a < b < c with b on its own channel: restricting away b must keep a < c.
    sys = build_system([("x", "v"), ("y", "v"), ("x", "v")], [(0, 1), (1, 2)])
    out = sys.restrict({"x"})
    assert out.n_events == 2
    assert precedes(out, 0, 1)
    run = reference_canonicalize(sys).restrict({"x"})
    assert run.ancestors == (0, 1)


def test_canonicalize_empty_and_isomorphism():
    assert reference_canonicalize(build_system([])) == CanonicalRun.empty()
    s1 = build_system([("c", "v")])
    s2 = build_system([("c", "v")])
    assert reference_canonicalize(s1) == reference_canonicalize(s2)


def test_canonicalize_distinguishes_order():
    runs = {
        reference_canonicalize(build_system([("c", "v"), ("d", "w")], pairs)).serialize()
        for pairs in ([(0, 1)], [(1, 0)], [])
    }
    assert len(runs) == 3


def test_canonicalize_rejects_incomparable_same_channel():
    sys = build_system([("c", "v"), ("c", "v")])
    with pytest.raises(CanonicalizeError):
        reference_canonicalize(sys)


def test_canonicalize_invariant_under_event_relabeling():
    # The same poset presented with permuted event indices canonicalizes
    # identically.
    events = [("a", "0"), ("b", "1"), ("a", "1")]
    pairs = [(0, 1), (1, 2)]
    base = reference_canonicalize(build_system(events, pairs))
    for perm in itertools.permutations(range(3)):
        shuffled = [events[i] for i in perm]
        inv = {old: new for new, old in enumerate(perm)}
        mapped = [(inv[a], inv[b]) for a, b in pairs]
        assert reference_canonicalize(build_system(shuffled, mapped)) == base


def test_initial_substructure_basics():
    run = CanonicalRun.build([("c", ("v", "v"))])
    assert is_initial_substructure(CanonicalRun.empty(), run)
    assert is_initial_substructure(run, run)
    # Keeping the later event without its predecessor is not downward closed;
    # under canonical identity the one kept event reads as the chain head,
    # which mismatches the original run's first event only when msgs
    # differ, so use distinct messages.
    run2 = CanonicalRun.build([("c", ("v", "w"))])
    tail_only = CanonicalRun.build([("c", ("w",))])
    assert not is_initial_substructure(tail_only, run2)
    # The same events with less order are not order-induced.
    two = [("a", ("v",)), ("b", ("v",))]
    ordered = CanonicalRun.build(two, [(("a", 0), ("b", 0))])
    assert not is_initial_substructure(CanonicalRun.build(two), ordered)


def test_initial_substructures_of_executions_are_executions():
    rng = random.Random(5)
    frame = random_budget_complete_frame(rng, 4)
    exset = enumerate_executions(frame, Bound(4))
    for run in exset.canonicals:
        n = run.n_events
        for mask in range(1 << n):
            keep = [i for i in range(n) if mask >> i & 1]
            if any(run.ancestors[b] & ~mask for b in keep):
                continue  # not downward closed
            sub = run.induced(keep)
            assert is_execution(sub, frame).ok
            assert is_initial_substructure(sub, run)


def _mutants(run: CanonicalRun, frame: Frame, rng: random.Random) -> list[CanonicalRun]:
    """Runs one edit away from ``run``: an extra message at the end of a
    channel, a dropped covering pair, and an event cut loose from every
    event below it, leaving it incomparable with its predecessors at their
    shared location."""
    chan = rng.choice(frame.channels).id
    msgs = dict(run.channels)
    msgs[chan] = msgs.get(chan, ()) + (rng.choice(sorted(frame.data)),)
    out = [CanonicalRun.build(msgs.items(), run.order)]
    covers = covering_pairs(run.ancestors)
    if covers:
        dropped = rng.choice(covers)
        kept = [p for p in covers if p != dropped]
        out.append(CanonicalRun(run.channels, ancestor_masks(run.n_events, kept)))
        loose = rng.choice(sorted({b for _, b in covers}))
        kept = [(a, b) for a, b in covers if b != loose]
        out.append(CanonicalRun(run.channels, ancestor_masks(run.n_events, kept)))
    return out


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_execution_checks_match_the_event_system_oracles(seed):
    # is_execution and is_initial_substructure on canonical runs agree with
    # the event-system versions they replace: on every execution, on each
    # of its downward-closed parts, and on runs one edit away from it.
    rng = random.Random(seed)
    frame = random_budget_complete_frame(rng, 4)
    executions = enumerate_executions(frame, Bound(4)).canonicals
    mutated = 0
    for run in executions:
        sys = run.to_event_system()
        check = is_execution(run, frame)
        assert check.ok and check.failures == reference_is_execution(sys, frame) == ()
        n = run.n_events
        for mask in range(1 << n):
            sub = run.induced(i for i in range(n) if mask >> i & 1)
            assert is_initial_substructure(sub, run) == reference_is_initial_substructure(
                sub.to_event_system(), sys
            )
            if not any(run.ancestors[b] & ~mask for b in range(n) if mask >> b & 1):
                assert is_initial_substructure(sub, run)
                assert is_execution(sub, frame).ok
        for bad in _mutants(run, frame, rng):
            bad_sys = bad.to_event_system()
            check = is_execution(bad, frame)
            assert check.failures == reference_is_execution(bad_sys, frame)
            mutated += not check.ok
            assert is_initial_substructure(bad, run) == reference_is_initial_substructure(bad_sys, sys)
            assert is_initial_substructure(run, bad) == reference_is_initial_substructure(sys, bad_sys)
    assert mutated  # some edit leaves the frame's executions


@pytest.mark.parametrize("seed", [0, 3])
def test_nested_restriction_composes(seed):
    rng = random.Random(seed)
    frame = random_budget_complete_frame(rng, 5)
    chans = list(frame.channel_ids)
    exset = enumerate_executions(frame, Bound(5))
    for run in exset.canonicals:
        c1 = frozenset(chans[: max(1, len(chans) // 2 + 1)])
        c0 = frozenset(list(c1)[:1])
        direct = run.restrict(c0)
        nested = run.restrict(c1).restrict(c0)
        assert direct == nested
        assert direct == reference_canonicalize(run.to_event_system().restrict(c0))


def test_restriction_commutes_with_canonicalization():
    # Another presentation of each execution, its events in a shuffled
    # index order, restricts to the execution's own canonical runs.
    rng = random.Random(11)
    frame = random_budget_complete_frame(rng, 5)
    exset = enumerate_executions(frame, Bound(5))
    for run in exset.canonicals:
        sys = run.to_event_system()
        perm = list(range(sys.n_events))
        rng.shuffle(perm)
        shuffled = [None] * sys.n_events
        for old, new in enumerate(perm):
            shuffled[new] = sys.events[old]
        mapped = [(perm[a], perm[b]) for a, b in strict_pairs(sys)]
        rebuilt = build_system(shuffled, mapped)
        for cid in frame.channel_ids:
            assert reference_canonicalize(rebuilt.restrict({cid})) == run.restrict({cid})


def test_to_event_system_round_trip():
    rng = random.Random(2)
    frame = random_budget_complete_frame(rng, 5)
    exset = enumerate_executions(frame, Bound(5))
    for run in exset.canonicals:
        assert reference_canonicalize(run.to_event_system()) == run
    assert tuple(reference_canonicalize(sys) for sys in exset.systems) == exset.canonicals


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
    s1 = build_system(events, chosen)
    s2 = build_system(events, chosen2)
    run_equal = reference_canonicalize(s1) == reference_canonicalize(s2)
    iso = _brute_force_iso(s1, s2)
    assert run_equal == iso


def _brute_force_iso(s1, s2) -> bool:
    n = s1.n_events
    if n != s2.n_events:
        return False
    strict1, strict2 = strict_pairs(s1), strict_pairs(s2)
    for perm in itertools.permutations(range(n)):
        if any(s1.events[i] != s2.events[perm[i]] for i in range(n)):
            continue
        if all(
            ((i, j) in strict1) == ((perm[i], perm[j]) in strict2)
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
    return build_system(events, {(perm[a], perm[b]) for a, b in pairs})


def _library_form(sys):
    """The canonical form of ``sys`` through the library's own pieces: each
    channel's chain by ``chain_order``, and the order closed by
    ``CanonicalRun.build`` on canonical ids."""
    by_chan: dict[str, list[int]] = {}
    for i, e in enumerate(sys.events):
        by_chan.setdefault(e.chan, []).append(i)
    cid, channels = {}, []
    for chan in sorted(by_chan):
        chain, bad = chain_order(by_chan[chan], sys.ancestors)
        if bad is not None:
            raise CanonicalizeError(f"events on channel {chan!r} are not totally ordered")
        cid.update((a, (chan, k)) for k, a in enumerate(chain))
        channels.append((chan, [sys.events[a].msg for a in chain]))
    return CanonicalRun.build(channels, [(cid[a], cid[b]) for a, b in strict_pairs(sys)])


def _canonical_or_error(fn, sys):
    try:
        return fn(sys)
    except CanonicalizeError:
        return CanonicalizeError


@given(event_systems(linear=True))
@settings(max_examples=100, deadline=None)
def test_canonicalize_matches_reference_on_linear_systems(sys):
    assert _library_form(sys) == reference_canonicalize(sys)


@given(event_systems(linear=False))
@settings(max_examples=100, deadline=None)
def test_canonicalize_and_reference_reject_the_same_systems(sys):
    linear = all(
        comparable(sys, a, b)
        for a in range(sys.n_events)
        for b in range(sys.n_events)
        if sys.events[a].chan == sys.events[b].chan
    )
    got = _canonical_or_error(_library_form, sys)
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
    run = _library_form(sys)
    assert run == reference_canonicalize(sys)
    chans = data.draw(st.sets(st.sampled_from("abc")))
    assert run.restrict(chans) == reference_canonicalize(sys.restrict(chans))
    # Canonical indices of the run are the event indices of its system.
    full = run.to_event_system()
    assert reference_canonicalize(full) == run
    n = run.n_events
    kept = data.draw(st.sets(st.integers(0, n - 1))) if n else set()
    sub = induced_system(full, kept)
    new = {old: k for k, old in enumerate(sorted(kept))}
    assert strict_pairs(sub) == {
        (new[a], new[b]) for a, b in strict_pairs(full) if a in kept and b in kept
    }
    assert run.induced(kept) == reference_canonicalize(sub)
    ids = [(chan, i) for chan, msgs in run.channels for i in range(len(msgs))]
    covers = reference_reduction(strict_pairs(full), n)
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
    if any(a == b for a, b in closed):
        with pytest.raises(EventSystemError) as info:
            ancestor_masks(n, pairs)
        named = int(str(info.value).rsplit(" ", 1)[1])
        assert (named, named) in closed
    else:
        anc = ancestor_masks(n, pairs)
        assert {(a, b) for b in range(n) for a in range(n) if anc[b] >> a & 1} == closed


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_covering_pairs_match_brute_force_reduction(data):
    n = data.draw(st.integers(0, 8))
    forward = [(a, b) for a in range(n) for b in range(a + 1, n)]
    pairs = data.draw(st.sets(st.sampled_from(forward))) if forward else set()
    perm = data.draw(st.permutations(range(n)))
    sys = build_system([("c", "v")] * n, [(perm[a], perm[b]) for a, b in pairs])
    kept = data.draw(st.lists(st.integers(0, n - 1), unique=True)) if n else []
    induced = {(a, b) for a, b in strict_pairs(sys) if a in kept and b in kept}
    reduction = {
        (a, b) for a, b in induced if not any((a, c) in induced and (c, b) in induced for c in kept)
    }
    new = {old: k for k, old in enumerate(sorted(kept))}
    got = covering_pairs(induced_system(sys, kept).ancestors)
    assert got == sorted((new[a], new[b]) for a, b in reduction)


def test_covering_pairs_of_a_40_event_chain():
    # Each event of a chain has every earlier event below it; only the one
    # just before it is a cover, whether indices follow the chain or not.
    shuffled = list(range(40))
    random.Random(40).shuffle(shuffled)
    for chain in (list(range(40)), shuffled):
        links = list(zip(chain, chain[1:]))
        assert covering_pairs(ancestor_masks(40, links)) == sorted(links)


@given(st.lists(st.tuples(st.sampled_from("abc"), st.sampled_from("xy")), max_size=8))
@settings(max_examples=100, deadline=None)
def test_chain_is_the_total_order_of_a_word(word):
    # The reference: every event below every later one, as a system in
    # word order canonicalized the direct way.
    pairs = [(a, b) for b in range(len(word)) for a in range(b)]
    assert CanonicalRun.chain(word) == reference_canonicalize(build_system(word, pairs))
