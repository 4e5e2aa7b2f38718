from __future__ import annotations

import random

import pytest

from flowcut.blur import build_shared_core
from flowcut.cuts import ChannelSetTriple, find_min_cut, is_cut
from flowcut.disclosure import (
    CompatQuery,
    MergeError,
    check_symmetry,
    cmpt_propagation_check,
    compatible_runs,
    merge_across_cut,
    no_disclosure,
    obs_equivalent,
)
from flowcut.enumeration import Bound, enumerate_executions, enumerate_runs
from flowcut.events import CanonicalRun, canonicalize
from flowcut.frames import Channel, ExplicitTraces, Frame, Location

from support import count_restrictions, random_budget_complete_frame, random_channel_subset

B = Bound(5)


def relay_frame() -> Frame:
    """S sends a bit to A on channel a; A echoes it to B on channel b."""
    s = Location("S", ExplicitTraces.of([("a", "0")], [("a", "1")]))
    a = Location(
        "A",
        ExplicitTraces.of([("a", "0"), ("b", "0")], [("a", "1"), ("b", "1")]),
    )
    b = Location("B", ExplicitTraces.of([("b", "0")], [("b", "1")]))
    return Frame.build(
        [s, a, b], [Channel("a", "S", "A"), Channel("b", "A", "B")], ["0", "1"]
    )


def test_degenerate_lemma_clauses():
    rng = random.Random(0)
    for _ in range(5):
        frame = random_budget_complete_frame(rng, 5)
        chans = random_channel_subset(rng, frame)
        # Runs at C are exactly those compatible with the empty run at the
        # empty channel set.
        runs = enumerate_runs(frame, chans, B)
        via_empty = compatible_runs(
            frame, CompatQuery(frozenset(), chans, CanonicalRun.empty(), B)
        )
        assert via_empty == runs
        for run in runs:
            same = compatible_runs(frame, CompatQuery(chans, chans, run, B))
            assert same == frozenset({run})
            other = random_channel_subset(rng, frame)
            compat = compatible_runs(frame, CompatQuery(chans, other, run, B))
            assert compat <= enumerate_runs(frame, other, B)
        # A non-run has an empty compatibility set.
        bogus = CanonicalRun.build(((min(chans), ("definitely-not-a-value",)),))
        assert compatible_runs(frame, CompatQuery(chans, chans, bogus, B)) == frozenset()


def test_no_disclosure_to_empty_set_is_trivial():
    rng = random.Random(1)
    frame = random_budget_complete_frame(rng, 4)
    chans = random_channel_subset(rng, frame)
    assert no_disclosure(frame, chans, frozenset(), Bound(4)).holds


def test_relay_discloses_with_counterexample():
    frame = relay_frame()
    res = no_disclosure(frame, frozenset({"a"}), frozenset({"b"}), Bound(4))
    assert not res.holds
    b_obs, b_src = res.counterexample
    # The observation pins the input bit; the missing source run carries
    # the other bit or a mismatched echo.
    assert b_obs.n_events <= 1 and b_src.n_events <= 1
    fwd, bwd = check_symmetry(frame, {"a"}, {"b"}, Bound(4))
    assert not fwd.holds and not bwd.holds


def test_witness_symmetry_of_compatibility():
    rng = random.Random(2)
    frame = random_budget_complete_frame(rng, 5)
    c1 = random_channel_subset(rng, frame)
    c2 = random_channel_subset(rng, frame)
    runs1 = enumerate_runs(frame, c1, B)
    runs2 = enumerate_runs(frame, c2, B)
    for b1 in runs1:
        compat12 = compatible_runs(frame, CompatQuery(c1, c2, b1, B))
        for b2 in runs2:
            back = compatible_runs(frame, CompatQuery(c2, c1, b2, B))
            assert (b2 in compat12) == (b1 in back)


def test_symmetry_of_no_disclosure_verdicts():
    rng = random.Random(3)
    for _ in range(6):
        frame = random_budget_complete_frame(rng, 5)
        c1 = random_channel_subset(rng, frame)
        c2 = random_channel_subset(rng, frame)
        fwd, bwd = check_symmetry(frame, c1, c2, B)
        assert fwd.holds == bwd.holds


def test_obs_equivalence_relation_laws():
    rng = random.Random(4)
    frame = random_budget_complete_frame(rng, 5)
    src = random_channel_subset(rng, frame)
    obs = random_channel_subset(rng, frame)
    runs = sorted(enumerate_runs(frame, src, B), key=CanonicalRun.serialize)
    rel = {
        (x.serialize(), y.serialize()): obs_equivalent(frame, src, obs, x, y, B)
        for x in runs
        for y in runs
    }
    for x in runs:
        assert rel[(x.serialize(), x.serialize())]
        for y in runs:
            assert rel[(x.serialize(), y.serialize())] == rel[(y.serialize(), x.serialize())]
            for z in runs:
                if rel[(x.serialize(), y.serialize())] and rel[(y.serialize(), z.serialize())]:
                    assert rel[(x.serialize(), z.serialize())]


def test_obs_equivalence_rejects_non_runs():
    frame = relay_frame()
    bogus = CanonicalRun.build((("a", ("7",)),))
    with pytest.raises(ValueError):
        obs_equivalent(frame, {"a"}, {"b"}, bogus, bogus, Bound(4))


def test_relay_observation_splits_source_runs():
    frame = relay_frame()
    runs = sorted(
        enumerate_runs(frame, {"a"}, Bound(4)), key=CanonicalRun.serialize
    )
    zero = [r for r in runs if r.channels and r.channels[0][1] == ("0",)][0]
    one = [r for r in runs if r.channels and r.channels[0][1] == ("1",)][0]
    assert not obs_equivalent(frame, {"a"}, {"b"}, zero, one, Bound(4))
    assert obs_equivalent(frame, {"a"}, {"b"}, zero, zero, Bound(4))


def test_propagation_with_identical_intermediate_is_equality():
    rng = random.Random(5)
    frame = random_budget_complete_frame(rng, 5)
    c1 = random_channel_subset(rng, frame)
    c3 = random_channel_subset(rng, frame)
    res = cmpt_propagation_check(frame, c1, c1, c3, B)
    assert res.holds
    assert not res.strict_somewhere


@pytest.mark.parametrize("seed", range(5))
def test_propagation_inclusion_holds(seed):
    rng = random.Random(seed)
    frame = random_budget_complete_frame(rng, 5)
    c1 = random_channel_subset(rng, frame)
    c2 = random_channel_subset(rng, frame)
    c3 = random_channel_subset(rng, frame)
    assert cmpt_propagation_check(frame, c1, c2, c3, B).holds


def test_propagation_restricts_each_execution_once_per_channel_set(monkeypatch):
    # Three tables over three channel sets read three passes over the
    # executions, not one pass per table side.
    from flowcut.enumeration import _enumerate_cached

    frame = relay_frame()
    _enumerate_cached.cache_clear()
    calls = count_restrictions(monkeypatch)
    assert cmpt_propagation_check(frame, {"a"}, {"a", "b"}, {"b"}, Bound(4)).holds
    assert calls[0] == 3


@pytest.mark.parametrize("seed", range(6))
def test_cut_gives_propagation_equality(seed):
    rng = random.Random(seed)
    frame = random_budget_complete_frame(rng, 5)
    src = random_channel_subset(rng, frame)
    obs = random_channel_subset(rng, frame, avoid=src)
    if not src or not obs:
        return
    mc = find_min_cut(frame, src, obs)
    if mc.impossible:
        return
    cut = mc.cut
    assert is_cut(frame, ChannelSetTriple(src, cut, obs)).is_cut
    # Both inclusions: the union over the cut equals the direct set.
    runs_obs = enumerate_runs(frame, obs, B)
    for b_o in runs_obs:
        direct = compatible_runs(frame, CompatQuery(obs, src, b_o, B))
        through: set[CanonicalRun] = set()
        for b_c in compatible_runs(frame, CompatQuery(obs, cut, b_o, B)):
            through |= compatible_runs(frame, CompatQuery(cut, src, b_c, B))
        assert direct == through


def test_merge_empty_inputs_give_empty_execution():
    rng = random.Random(6)
    frame = random_budget_complete_frame(rng, 4)
    core = build_shared_core(frame, frame, {frame.location_ids[0]}, Bound(4))
    merged = merge_across_cut(
        frame, frame, core, CanonicalRun.empty(), CanonicalRun.empty()
    )
    assert merged.n_events == 0


@pytest.mark.parametrize("seed", range(4))
def test_merge_reassembles_one_executions_restrictions(seed):
    rng = random.Random(seed)
    frame = random_budget_complete_frame(rng, 5)
    l0 = frozenset([frame.location_ids[0]])
    core = build_shared_core(frame, frame, l0, B)
    left = core.left0 | core.cut0
    right = frozenset(frame.channel_ids) - core.left0
    for sys in enumerate_executions(frame, B).systems:
        b_lc = canonicalize(sys.restrict(left))
        b_rc = canonicalize(sys.restrict(right))
        merged = merge_across_cut(frame, frame, core, b_lc, b_rc, B)
        assert canonicalize(merged.restrict(left)) == b_lc
        assert canonicalize(merged.restrict(right)) == b_rc


def test_merge_rejects_cut_disagreement():
    frame = relay_frame()
    core = build_shared_core(frame, frame, {"S"}, Bound(4))
    assert core.cut0 == frozenset({"a"})
    runs = sorted(enumerate_runs(frame, {"a"}, Bound(4)), key=CanonicalRun.serialize)
    zero = [r for r in runs if r.n_events and "0" in r.serialize()][0]
    one = [r for r in runs if r.n_events and "1" in r.serialize()][0]
    with pytest.raises(MergeError):
        merge_across_cut(frame, frame, core, zero, one)
