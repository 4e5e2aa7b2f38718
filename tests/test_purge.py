from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from flowcut.blur import f_limits_flow, validate_blur
from flowcut.enumeration import Bound, _enumerate_cached, enumerate_executions, enumerate_runs
from flowcut.events import CanonicalRun, canonicalize, chain_order
from flowcut.frames import validate_frame
from flowcut.purge import (
    MachineError,
    MachineSpec,
    PurgeKind,
    check_nd,
    check_ni,
    input_sequence,
    purge,
    purge_blur,
    purge_sequence,
    star_frame,
    validate_purge,
)

from support import (
    count_serializations,
    downgrader_machine,
    machine_document,
    random_machine,
    reference_check_nd,
    reference_view_conflict,
)

B = Bound(8)


def single_domain_machine(nondet: bool = False) -> MachineSpec:
    transitions = {("s0", "a", "s1")}
    if nondet:
        transitions.add(("s0", "a", "s2"))
    return MachineSpec.build(
        domains=["d0"],
        influence=[("d0", "d0")],
        action_domain={"a": "d0"},
        outputs=["o0", "o1"],
        states=["s0", "s1", "s2"],
        initial="s0",
        transitions=transitions,
        obs={
            ("s0", "d0"): "o0",
            ("s1", "d0"): "o0" if not nondet else "o0",
            ("s2", "d0"): "o1",
        },
    )


def chain_machine() -> MachineSpec:
    """da influences db influences dc; da does not influence dc."""
    return MachineSpec.build(
        domains=["da", "db", "dc"],
        influence=[("da", "db"), ("db", "dc")],
        action_domain={"aa": "da", "ab": "db", "ac": "dc"},
        outputs=["o"],
        states=["s"],
        initial="s",
        transitions=[("s", "aa", "s"), ("s", "ab", "s"), ("s", "ac", "s")],
        obs={("s", "da"): "o", ("s", "db"): "o", ("s", "dc"): "o"},
    )


def echo_machine() -> MachineSpec:
    """The hidden domain's last action is echoed into the target's view
    although the influence relation forbids it."""
    return MachineSpec.build(
        domains=["hid", "tgt"],
        influence=[],
        action_domain={"h0": "hid", "h1": "hid"},
        outputs=["o0", "o1"],
        states=["s0", "s1"],
        initial="s0",
        transitions=[("s0", "h0", "s0"), ("s0", "h1", "s1"), ("s1", "h0", "s0"), ("s1", "h1", "s1")],
        obs={
            ("s0", "hid"): "o0",
            ("s0", "tgt"): "o0",
            ("s1", "hid"): "o1",
            ("s1", "tgt"): "o1",
        },
    )


def test_machine_requires_reflexive_influence():
    # build() closes reflexively; a directly constructed spec is checked.
    good = single_domain_machine()
    broken = MachineSpec(
        domains=good.domains,
        influence=frozenset(),
        actions=good.actions,
        action_domain=good.action_domain,
        outputs=good.outputs,
        states=good.states,
        initial=good.initial,
        transitions=good.transitions,
        obs=good.obs,
    )
    with pytest.raises(MachineError):
        broken.validate()


def test_star_frame_shape_smallest():
    m = single_domain_machine()
    frame = star_frame(m)
    assert validate_frame(frame).ok
    assert set(frame.location_ids) == {"M", "d0"}
    assert len(frame.channels) == 2


def test_star_frame_alternates_and_is_linear():
    m = single_domain_machine()
    frame = star_frame(m)
    for sys in enumerate_executions(frame, Bound(6)).systems:
        for i in range(sys.n_events):
            for j in range(i + 1, sys.n_events):
                assert sys.comparable(i, j)
        labels = [e.chan for e in sys.events]
        # inputs and outputs strictly alternate for a one-domain machine
        seq = [sys.events[i] for i in _order(sys)]
        for k, ev in enumerate(seq):
            expect_in = k % 2 == 0
            assert ev.chan == ("in_d0" if expect_in else "out_d0")


def _order(sys):
    idx = list(range(sys.n_events))
    members = tuple(idx)
    idx.sort(key=lambda a: sum(1 for b in members if sys.precedes(b, a)))
    return idx


def test_star_frame_executions_linear_for_many_domains():
    m = chain_machine()
    frame = star_frame(m)
    for sys in enumerate_executions(frame, Bound(8)).systems:
        for i in range(sys.n_events):
            for j in range(i + 1, sys.n_events):
                assert sys.comparable(i, j)


def test_star_frame_hub_of_a_large_machine_has_its_closed_form():
    # 300 states, 4 domains with 2 actions each, a total transition function:
    # the hub has one input transition per machine transition and one
    # output transition per (state, domain), over k + 1 phases per state.
    n, domains = 300, ["d0", "d1", "d2", "d3"]
    actions = {f"a{j}_{d}": d for d in domains for j in range(2)}
    states = [f"s{i}" for i in range(n)]
    transitions = {
        (f"s{i}", a, f"s{(7 * i + j) % n}") for i in range(n) for j, a in enumerate(sorted(actions))
    }
    machine = MachineSpec.build(
        domains=domains,
        influence=[("d0", "d1")],
        action_domain=actions,
        outputs=["o0", "o1", "o2"],
        states=states,
        initial="s0",
        transitions=transitions,
        obs={(f"s{i}", d): f"o{(i + j) % 3}" for i in range(n) for j, d in enumerate(domains)},
    )
    frame = star_frame(machine)
    hub = frame.location("M").behavior
    k = len(domains)
    assert len(transitions) == n * len(actions)
    assert len(hub.transitions) == len(transitions) + n * k == 300 * 12
    assert len(hub.states) == n * (k + 1)
    assert {t for t in hub.transitions if t[0] == "s5#0"} == {("s5#0", ("out_d0", "o2"), "s5#1")}
    for d in domains:
        spoke = frame.location(d).behavior
        assert len(spoke.transitions) == 2 + 3


def test_gm_purge_with_total_influence_keeps_everything():
    m = MachineSpec.build(
        domains=["x", "y"],
        influence=[("x", "y"), ("y", "x")],
        action_domain={"ax": "x", "ay": "y"},
        outputs=["o"],
        states=["s"],
        initial="s",
        transitions=[("s", "ax", "s"), ("s", "ay", "s")],
        obs={("s", "x"): "o", ("s", "y"): "o"},
    )
    seq = (("in_x", "ax"), ("in_y", "ay"), ("in_x", "ax"))
    assert purge_sequence(m, PurgeKind("gm", "y"), seq) == seq


def test_chain_example_hy_keeps_gm_drops():
    m = chain_machine()
    seq = (("in_da", "aa"), ("in_db", "ab"), ("in_dc", "ac"))
    gm = purge_sequence(m, PurgeKind("gm", "dc"), seq)
    hy = purge_sequence(m, PurgeKind("hy", "dc"), seq)
    assert gm == (("in_db", "ab"), ("in_dc", "ac"))
    assert hy == seq


def test_hy_needs_the_intermediate_event():
    m = chain_machine()
    # Without the db step the da input has no influence chain to dc.
    seq = (("in_da", "aa"), ("in_dc", "ac"))
    assert purge_sequence(m, PurgeKind("hy", "dc"), seq) == (("in_dc", "ac"),)
    # The chain may end at any event whose domain influences the target,
    # so a trailing db input suffices even with no dc event at all.
    seq2 = (("in_da", "aa"), ("in_db", "ab"))
    assert purge_sequence(m, PurgeKind("hy", "dc"), seq2) == seq2


def test_purge_of_execution_checks_frame_membership():
    m = single_domain_machine()
    other = chain_machine()
    frame = star_frame(m)
    sys = max(enumerate_executions(frame, Bound(4)).systems, key=lambda s: s.n_events)
    run = canonicalize(sys.restrict(m.input_channels()))
    expected = purge_sequence(m, PurgeKind("gm", "d0"), input_sequence(m, run))
    assert purge(m, PurgeKind("gm", "d0"), sys) == expected
    with pytest.raises(MachineError):
        purge(other, PurgeKind("gm", "dc"), sys)


@pytest.mark.parametrize(
    "check",
    [
        lambda m, kind: check_ni(m, kind, B),
        lambda m, kind: check_nd(m, kind, B),
        lambda m, kind: validate_purge(m, kind, B),
        lambda m, kind: validate_purge(m, kind, B, purge_fn=tuple),
        lambda m, kind: purge_blur(m, kind, B),
        lambda m, kind: purge_sequence(m, kind, ()),
    ],
    ids=["check_ni", "check_nd", "validate_purge", "validate_purge-custom", "purge_blur", "purge_sequence"],
)
@pytest.mark.parametrize("target", ["zz", "M"])
def test_unknown_purge_target_is_rejected(check, target):
    m = downgrader_machine()
    message = f"unknown purge target {target!r}; declared domains: ['d0', 'd1', 'd2']"
    with pytest.raises(MachineError) as info:
        check(m, PurgeKind("hy", target))
    assert str(info.value) == message


@pytest.mark.parametrize("seed", range(6))
def test_validate_purge_gm_hy(seed):
    rng = random.Random(seed)
    m = random_machine(rng)
    for kind in ("gm", "hy"):
        for target in m.domains:
            assert validate_purge(m, PurgeKind(kind, target), B)


def test_validate_purge_flags_broken_purge():
    m = chain_machine()
    broken = lambda inputs: ()
    report = validate_purge(m, PurgeKind("gm", "dc"), B, purge_fn=broken)
    assert report.inputs_only_ok
    assert not report.visible_inputs_ok
    # The witness is two input runs that purge equally under the broken
    # purge while the target's visible inputs tell them apart.
    in1, in2 = report.witness
    assert in1.channel_ids | in2.channel_ids <= m.input_channels()
    assert broken(input_sequence(m, in1)) == broken(input_sequence(m, in2))
    vis = m.visible_inputs("dc")
    assert in1.restrict(vis) != in2.restrict(vis)


def test_ni_holds_vacuously_without_transitions():
    m = MachineSpec.build(
        domains=["d0"],
        influence=[],
        action_domain={"a": "d0"},
        outputs=["o"],
        states=["s"],
        initial="s",
        transitions=[],
        obs={("s", "d0"): "o"},
    )
    assert check_ni(m, PurgeKind("gm", "d0"), B).holds


def test_ni_fails_on_prefix_pairs_even_deterministically():
    # The execution universe is prefix-closed: an input-only prefix and
    # its output-completed extension purge equally but differ on the
    # target's channels, so noninterference is strict about event counts.
    m = single_domain_machine()
    res = check_ni(m, PurgeKind("gm", "d0"), B)
    assert not res.holds
    in1, in2 = res.witness
    assert in1 == in2  # same purged inputs, different views


def test_echo_machine_fails_ni_and_nd():
    m = echo_machine()
    ni = check_ni(m, PurgeKind("gm", "tgt"), B)
    nd = check_nd(m, PurgeKind("gm", "tgt"), B)
    assert not ni.holds and ni.witness is not None
    assert not nd.holds and nd.witness is not None


def test_nondeterminism_splits_ni_from_nd():
    # Output nondeterminism makes purge-equal executions observationally
    # different, but each observation is still explained by some execution
    # with the same inputs: the existential in nondeducibility saves it.
    m = single_domain_machine(nondet=True)
    kind = PurgeKind("gm", "d0")
    assert not check_ni(m, kind, B).holds
    assert check_nd(m, kind, B).holds


@pytest.mark.parametrize("seed", range(8))
def test_ni_implies_nd(seed):
    rng = random.Random(seed)
    m = random_machine(rng)
    for kind in ("gm", "hy"):
        for target in m.domains:
            pk = PurgeKind(kind, target)
            if check_ni(m, pk, Bound(6)).holds:
                assert check_nd(m, pk, Bound(6)).holds


@pytest.mark.parametrize("seed", range(8))
def test_nd_iff_purge_blur_limits_flow(seed):
    rng = random.Random(seed)
    m = random_machine(rng)
    frame = star_frame(m)
    for pk in (PurgeKind(kind, target) for kind in ("gm", "hy") for target in m.domains):
        blur = purge_blur(m, pk, Bound(6))
        nd = check_nd(m, pk, Bound(6))
        flow = f_limits_flow(
            frame, m.input_channels(), m.domain_channels(pk.target), blur, Bound(6)
        )
        assert nd.holds == flow.holds
        assert nd.witness == (None if flow.holds else (flow.failing_observed, flow.unblurred))


@pytest.mark.parametrize("seed", range(8))
def test_nd_verdicts_match_the_group_reference(seed):
    rng = random.Random(seed)
    m = random_machine(rng)
    for kind in ("gm", "hy"):
        for target in m.domains:
            pk = PurgeKind(kind, target)
            assert check_nd(m, pk, Bound(6)).holds == reference_check_nd(m, pk, Bound(6)).holds


#: Purges that break the law on visible inputs, so that ``validate_purge``
#: has witnesses to choose among.
BROKEN_PURGES = (lambda inputs: (), lambda inputs: tuple(inputs[:-1]))


def assert_witnesses_follow_the_reference_rule(m: MachineSpec, bound: Bound) -> None:
    for target in m.domains:
        for kind in ("gm", "hy"):
            pk = PurgeKind(kind, target)
            fn = lambda inputs: purge_sequence(m, pk, inputs)
            expected = reference_view_conflict(m, bound, m.domain_channels(target), fn)
            assert check_ni(m, pk, bound).witness == expected, (target, kind)
            vis = m.visible_inputs(target)
            for purge_fn in (None,) + BROKEN_PURGES:
                expected = reference_view_conflict(m, bound, vis, purge_fn or fn)
                assert validate_purge(m, pk, bound, purge_fn).witness == expected, (target, kind)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**16))
def test_ni_and_purge_law_witnesses_follow_the_reference_rule(seed):
    """The first conflict among all executions in serialization order,
    whatever order the enumeration lists them in."""
    assert_witnesses_follow_the_reference_rule(random_machine(random.Random(seed)), Bound(6))


@pytest.mark.parametrize("bound", (5, 9))
def test_downgrader_witnesses_follow_the_reference_rule(bound):
    assert_witnesses_follow_the_reference_rule(downgrader_machine(), Bound(bound))


@pytest.mark.parametrize("seed", range(6))
def test_transitive_influence_collapses_hy_to_gm(seed):
    rng = random.Random(seed)
    m = random_machine(rng, transitive=True)
    frame = star_frame(m)
    in_chans = m.input_channels()
    for sys in enumerate_executions(frame, Bound(6)).systems:
        run = canonicalize(sys.restrict(in_chans))
        seq = input_sequence(m, run)
        for target in m.domains:
            assert purge_sequence(m, PurgeKind("gm", target), seq) == purge_sequence(
                m, PurgeKind("hy", target), seq
            )


def test_input_sequence_follows_the_chain_of_every_input_run():
    m = downgrader_machine()
    frame = star_frame(m)
    for run in enumerate_runs(frame, m.input_channels(), Bound(7)):
        sys = run.to_event_system()
        chain, bad = chain_order(range(sys.n_events), sys.ancestors)
        assert bad is None
        expected = tuple((sys.events[i].chan, sys.events[i].msg) for i in chain)
        assert input_sequence(m, run) == expected


@pytest.mark.parametrize(
    "order",
    [
        (),
        ((("in_d0", 0), ("in_d1", 0)), (("in_d0", 0), ("in_d2", 0))),
        ((("in_d0", 0), ("in_d2", 0)), (("in_d1", 0), ("in_d2", 0))),
    ],
    ids=["incomparable", "fork", "join"],
)
def test_input_sequence_rejects_a_run_that_is_not_a_chain(order):
    m = downgrader_machine()
    run = CanonicalRun.build((("in_d0", ("set1",)), ("in_d1", ("rel",)), ("in_d2", ("look",))), order)
    with pytest.raises(MachineError, match="must be totally ordered"):
        input_sequence(m, run)


def test_purge_blur_identity_when_everything_visible():
    m = MachineSpec.build(
        domains=["x", "y"],
        influence=[("x", "y"), ("y", "x")],
        action_domain={"ax": "x", "ay": "y"},
        outputs=["o"],
        states=["s"],
        initial="s",
        transitions=[("s", "ax", "s"), ("s", "ay", "s")],
        obs={("s", "x"): "o", ("s", "y"): "o"},
    )
    blur = purge_blur(m, PurgeKind("gm", "y"), Bound(6))
    assert all(len(block) == 1 for block in blur.blocks)


def test_purge_blur_serializes_no_run(monkeypatch):
    calls = count_serializations(monkeypatch)
    _enumerate_cached.cache_clear()
    blur = purge_blur(downgrader_machine(), PurgeKind("hy", "d2"), Bound(9))
    assert len(blur.blocks) > 1
    assert calls[0] == 0


def test_purge_blur_collapses_invisible_domains():
    m = echo_machine()
    blur = purge_blur(m, PurgeKind("gm", "tgt"), Bound(6))
    uni = enumerate_runs(star_frame(m), m.input_channels(), Bound(6))
    assert validate_blur(blur, uni).is_blur
    # tgt has no actions and sees nothing else: all input runs are one class.
    assert len(blur.blocks) == 1


def test_nd_report_is_byte_stable_across_hash_seeds(tmp_path):
    # The witness must not follow set iteration order, which follows the
    # string hash seed: for the downgrader at bound 9, a witness taken by
    # iterating a purge class's inputs as a set of runs differs under hash
    # seeds 0 and 2.
    import subprocess
    import sys
    from pathlib import Path

    import flowcut

    (tmp_path / "m.yaml").write_text(machine_document(downgrader_machine()))
    argv = ["nd", "m.yaml", "--target", "d2", "--purge", "hy", "--bound", "9", "--json"]
    outputs = []
    for seed in ("0", "2"):
        child = subprocess.run(
            [sys.executable, "-m", "flowcut.cli", *argv],
            capture_output=True,
            cwd=tmp_path,
            env={
                "PATH": "/usr/bin:/bin",
                "PYTHONHASHSEED": seed,
                "PYTHONPATH": str(Path(flowcut.__file__).resolve().parents[1]),
            },
        )
        assert child.returncode == 1, child.stderr.decode(errors="replace")
        outputs.append(child.stdout)
    assert outputs[0] == outputs[1]
    assert b"witness_inputs" in outputs[0]
