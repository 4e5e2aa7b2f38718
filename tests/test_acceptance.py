"""
Acceptance suite: one test per criterion, each printing a PASS line.

Randomized sweeps use budget-complete frames (every execution fits the
bound), on which the bounded verdicts coincide with the unbounded
semantics, so the library's claims are exact rather than cut off by the
event budget.  Run with ``pytest -s tests/test_acceptance.py`` to see the
per-criterion lines.
"""

from __future__ import annotations

import itertools
import json
import random

import pytest

from flowcut.blur import (
    AllBlur,
    IdentityBlur,
    PartitionBlur,
    TableBlur,
    blur_apply,
    build_shared_core,
    f_limits_flow,
    validate_blur,
    verify_composition,
    verify_cut_blur,
)
from flowcut.cli import main as cli_main
from flowcut.cuts import ChannelSetTriple, find_min_cut, is_cut
from flowcut.disclosure import (
    CompatQuery,
    _cmpt_table,
    cmpt_propagation_check,
    compatible_runs,
    merge_across_cut,
    no_disclosure,
)
from flowcut.enumeration import Bound, enumerate_executions, enumerate_runs
from flowcut.events import CanonicalRun, canonicalize
from flowcut.fileformat import emit_frame_document
from flowcut.purge import (
    PurgeKind,
    check_nd,
    check_ni,
    input_sequence,
    purge_blur,
    purge_sequence,
    star_frame,
    validate_purge,
)
from flowcut.scenarios import FirewallParams, VotingParams, build_firewall, build_voting

from support import (
    canonical_to_naive,
    disjoint_union,
    naive_compatible_runs,
    naive_iso,
    oracle_act,
    random_budget_complete_frame,
    random_channel_subset,
    random_machine,
)

BOUND = Bound(5)


def _report(criterion: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"\nACCEPTANCE {criterion}: {status}")
    assert not failures, failures[:5]


def _criterion1_frames():
    rng = random.Random(101)
    return [random_budget_complete_frame(rng, 5) for _ in range(50)], rng


def test_criterion_1_definition_and_lemma_suite():
    failures: list[str] = []
    frames, rng = _criterion1_frames()
    antecedents = 0
    for idx, frame in enumerate(frames):
        c1 = random_channel_subset(rng, frame)
        c2 = random_channel_subset(rng, frame)
        c3 = random_channel_subset(rng, frame)

        # Symmetry clause 1: witnesses are shared.
        t12 = _cmpt_table(frame, c1, c2, BOUND)
        t21 = _cmpt_table(frame, c2, c1, BOUND)
        for b1 in enumerate_runs(frame, c1, BOUND):
            for b2 in enumerate_runs(frame, c2, BOUND):
                fwd = b2 in t12.get(b1, frozenset())
                bwd = b1 in t21.get(b2, frozenset())
                if fwd != bwd:
                    failures.append(f"frame {idx}: symmetry clause 1 broken")

        # Symmetry clause 2: the no-disclosure verdict is direction-free.
        if no_disclosure(frame, c1, c2, BOUND).holds != no_disclosure(frame, c2, c1, BOUND).holds:
            failures.append(f"frame {idx}: symmetry clause 2 broken")

        # Propagation clause 1 (monotone shrinking).
        if no_disclosure(frame, c1, c2, BOUND).holds:
            antecedents += 1
            sub1 = frozenset(rng.sample(sorted(c1), rng.randint(0, len(c1))))
            sub2 = frozenset(rng.sample(sorted(c2), rng.randint(0, len(c2))))
            if not no_disclosure(frame, sub1, sub2, BOUND).holds:
                failures.append(f"frame {idx}: monotone shrinking broken")

        # Propagation clause 2: inclusion through an intermediate set.
        if not cmpt_propagation_check(frame, c1, c2, c3, BOUND).holds:
            failures.append(f"frame {idx}: propagation inclusion broken")

        # Degenerate-case lemma.
        runs1 = enumerate_runs(frame, c1, BOUND)
        via_empty = compatible_runs(
            frame, CompatQuery(frozenset(), c1, CanonicalRun.empty(), BOUND)
        )
        if via_empty != runs1:
            failures.append(f"frame {idx}: lruns-via-empty broken")
        bogus = CanonicalRun.build(((min(frame.channel_ids), ("no-such-value",)),))
        if compatible_runs(frame, CompatQuery(c1, c2, bogus, BOUND)) != frozenset():
            failures.append(f"frame {idx}: non-run compatibility not empty")
        for b in runs1:
            if compatible_runs(frame, CompatQuery(c1, c1, b, BOUND)) != frozenset({b}):
                failures.append(f"frame {idx}: self-compatibility broken")
            if not compatible_runs(frame, CompatQuery(c1, c2, b, BOUND)) <= enumerate_runs(
                frame, c2, BOUND
            ):
                failures.append(f"frame {idx}: compatibility escapes the run universe")
    assert antecedents > 0, "monotone-shrinking antecedent never held; sweep is vacuous"
    _report("1 definition-and-lemma-suite (50 frames)", failures)


def _random_cut_instance(rng, frame):
    """Random disjoint source/sink with a valid (possibly padded) cut."""
    for _ in range(12):
        src = random_channel_subset(rng, frame)
        obs = random_channel_subset(rng, frame, avoid=src)
        if not src or not obs:
            continue
        mc = find_min_cut(frame, src, obs)
        if mc.impossible:
            continue
        cut = mc.cut
        spare = frozenset(frame.channel_ids) - src - obs - cut
        if spare and rng.random() < 0.5:
            extra = frozenset(rng.sample(sorted(spare), rng.randint(1, len(spare))))
            cut = cut | extra
        triple = ChannelSetTriple(src, cut, obs)
        if is_cut(frame, triple).is_cut:
            return triple
    return None


def test_criterion_2_cut_machinery():
    failures: list[str] = []
    rng = random.Random(202)
    thm1_antecedents = 0
    found = 0
    while found < 30:
        frame = random_budget_complete_frame(rng, 5)
        triple = _random_cut_instance(rng, frame)
        if triple is None:
            continue
        found += 1
        src, cut, obs = triple.source, triple.cut, triple.sink

        # Lemma cut: both inclusions of the set equality, for every
        # observed run.
        for b_o in enumerate_runs(frame, obs, BOUND):
            direct = compatible_runs(frame, CompatQuery(obs, src, b_o, BOUND))
            through: set[CanonicalRun] = set()
            for b_c in compatible_runs(frame, CompatQuery(obs, cut, b_o, BOUND)):
                through |= compatible_runs(frame, CompatQuery(cut, src, b_c, BOUND))
            if direct != through:
                failures.append(f"cut instance {found}: Lemma cut equality broken")

        # Thm 1: no disclosure to the cut propagates to the sink.
        if no_disclosure(frame, src, cut, BOUND).holds:
            thm1_antecedents += 1
            if not no_disclosure(frame, src, obs, BOUND).holds:
                failures.append(f"cut instance {found}: Thm 1 broken")

    # Disconnected corollary on 10 glued frame pairs.
    for k in range(10):
        a = random_budget_complete_frame(rng, 4)
        b = random_budget_complete_frame(rng, 4)
        frame = disjoint_union(a, b)
        src = frozenset(f"a_{c}" for c in a.channel_ids[:2])
        obs = frozenset(f"b_{c}" for c in b.channel_ids[:2])
        if not is_cut(frame, ChannelSetTriple(src, frozenset(), obs)).is_cut:
            failures.append(f"disconnected {k}: empty set is not a cut")
        if not no_disclosure(frame, src, obs, Bound(8)).holds:
            failures.append(f"disconnected {k}: corollary broken")
    assert thm1_antecedents > 0, "Thm 1 antecedent never held; sweep is vacuous"
    _report("2 cut-machinery (30 cuts + 10 disconnected)", failures)


def test_criterion_3_blur_axioms():
    failures: list[str] = []
    rng = random.Random(303)

    def check(blur, universe, tag, expect_partition=True):
        rep = validate_blur(blur, universe)
        if not (rep.inclusion_ok and rep.idempotence_ok and rep.union_ok):
            failures.append(f"{tag}: blur laws broken")
        if expect_partition and not rep.partition_generated:
            failures.append(f"{tag}: expected partition-generated")

    frame = random_budget_complete_frame(rng, 5)
    uni = enumerate_runs(frame, frozenset(frame.channel_ids), BOUND)
    check(IdentityBlur(), uni, "identity")
    check(AllBlur(), uni, "all")
    for k in range(3):
        runs = sorted(uni, key=CanonicalRun.serialize)
        rng.shuffle(runs)
        cutpoints = sorted(rng.sample(range(1, len(runs)), min(2, len(runs) - 1)))
        blocks, prev = [], 0
        for c in cutpoints + [len(runs)]:
            blocks.append(frozenset(runs[prev:c]))
            prev = c
        check(PartitionBlur(tuple(blocks)), uni, f"partition-{k}")

    voting = build_voting(VotingParams(precincts=(2,)))
    vote_uni = enumerate_runs(voting.frame, voting.named_sets["voters"], Bound(8))
    check(voting.blurs["f0"], vote_uni, "permutation")
    commissioner = build_voting(VotingParams(precincts=(2,), commissioners=((1, 1),)))
    check(commissioner.blurs["f1"], vote_uni, "permutation-fixed")

    fw = build_firewall(FirewallParams())
    fw_uni = enumerate_runs(fw.frame, fw.named_sets["chans_n"], Bound(6))
    check(fw.blurs["f_e"], fw_uni, "selection-exportable")
    check(fw.blurs["f_i"], enumerate_runs(fw.frame, fw.named_sets["chans_i"], Bound(6)), "selection-importable")

    # The two-element blur no partition generates: passes the laws but is
    # flagged as not partition-generated.
    runs = sorted(uni, key=CanonicalRun.serialize)
    a, b = runs[0], runs[1]
    odd = TableBlur(((a, frozenset({a})), (b, frozenset({a, b}))))
    rep = validate_blur(odd, frozenset({a, b}))
    if not (rep.inclusion_ok and rep.idempotence_ok and rep.union_ok):
        failures.append("table counterexample: blur laws should pass")
    if rep.partition_generated:
        failures.append("table counterexample: wrongly classified as partition-generated")
    _report("3 blur-axioms", failures)


def test_criterion_4_cut_blur_principle():
    failures: list[str] = []
    rng = random.Random(404)
    checked = 0
    while checked < 30:
        frame = random_budget_complete_frame(rng, 5)
        triple = _random_cut_instance(rng, frame)
        if triple is None:
            continue
        src = triple.source
        universe = enumerate_runs(frame, src, BOUND)
        if len(universe) < 2:
            continue
        table = _cmpt_table(frame, triple.cut, src, BOUND)

        def pattern(run):
            return frozenset(
                bc.serialize() for bc, compat in table.items() if run in compat
            )

        base = PartitionBlur.from_equivalence(
            universe, lambda x, y: pattern(x) == pattern(y)
        )
        blur = base
        if len(base.blocks) > 1 and rng.random() < 0.6:
            blocks = list(base.blocks)
            i, j = rng.sample(range(len(blocks)), 2)
            merged = blocks[i] | blocks[j]
            coarser = tuple(
                b for k, b in enumerate(blocks) if k not in (i, j)
            ) + (merged,)
            candidate = PartitionBlur(coarser)
            if f_limits_flow(frame, src, triple.cut, candidate, BOUND).holds:
                blur = candidate

        verdict = verify_cut_blur(frame, triple, blur, BOUND)
        if not verdict.antecedent.holds:
            failures.append(f"triple {checked}: constructed blur misses the antecedent")
            checked += 1
            continue
        checked += 1
        if not verdict.consequent.holds:
            failures.append(f"triple {checked}: cut-blur principle broken")
        if not verdict.implication_holds:
            failures.append(f"triple {checked}: implication flag inconsistent")
    _report("4 cut-blur-principle (30 triples)", failures)


def test_criterion_5_composition_on_voting():
    failures: list[str] = []
    bound = Bound(8)
    v_one = build_voting(VotingParams(precincts=(2,)))
    v_two = build_voting(VotingParams(precincts=(2, 2)))
    core = build_shared_core(v_one.frame, v_two.frame, {"v1_1", "v1_2", "BB1"}, bound)
    if core.cut0 != frozenset({"c1"}):
        failures.append(f"core boundary is {sorted(core.cut0)}, expected ['c1']")
    if not core.run_inclusion_ok:
        failures.append("cut-run inclusion side condition failed")

    blur = v_one.blurs["f0_p1"]
    verdict = verify_composition(core, v_one.named_sets["voters1"], {"p"}, blur, bound)
    if not verdict.antecedent.holds:
        failures.append("F1 does not blur-limit flow from voters to its tally channel")
    if not verdict.consequent.holds:
        failures.append("F2 does not inherit the blur at the public channel")
    if not verdict.locality_ok:
        failures.append("two-frame boundary locality broken")

    # Joint two-precinct permutations preserve compatibility, via the
    # merge construction on the larger frame shared with itself.
    core2 = build_shared_core(v_two.frame, v_two.frame, {"v1_1", "v1_2", "BB1"}, bound)
    left = core2.left0 | core2.cut0
    right = frozenset(v_two.frame.channel_ids) - core2.left0
    perms1 = [dict(zip(("cv1_1", "cv1_2"), img)) for img in itertools.permutations(("cv1_1", "cv1_2"))]
    perms2 = [dict(zip(("cv2_1", "cv2_2"), img)) for img in itertools.permutations(("cv2_1", "cv2_2"))]
    checked = 0
    for sys in enumerate_executions(v_two.frame, bound).systems:
        if sys.n_events != 7:
            continue
        b_lc = canonicalize(sys.restrict(left))
        b_rc = canonicalize(sys.restrict(right))
        p_run = canonicalize(sys.restrict({"p"}))
        for pi1 in perms1:
            for pi2 in perms2:
                lc2 = oracle_act(pi1, b_lc)
                rc2 = oracle_act(pi2, b_rc)
                if lc2 is None or rc2 is None:
                    failures.append("joint permutation inapplicable on a full run")
                    continue
                try:
                    merged = merge_across_cut(v_two.frame, v_two.frame, core2, lc2, rc2)
                except Exception as exc:  # noqa: BLE001 - acceptance failure detail
                    failures.append(f"joint merge failed: {exc}")
                    continue
                if canonicalize(merged.restrict({"p"})) != p_run:
                    failures.append("joint permutation changed the public view")
                checked += 1
    if checked == 0:
        failures.append("no full two-precinct executions reached the joint check")
    _report("5 composition-on-voting", failures)


def test_criterion_6_firewall_reproduction():
    failures: list[str] = []
    bound = Bound(6)

    quiet = build_firewall(FirewallParams(filtering="discard_all"))
    if enumerate_runs(quiet.frame, quiet.named_sets["cut"], bound) != frozenset(
        {CanonicalRun.empty()}
    ):
        failures.append("discard-all: the cut still carries runs")
    if not no_disclosure(quiet.frame, quiet.named_sets["chans_i"], quiet.named_sets["cut"], bound).holds:
        failures.append("discard-all: disclosure from the external region to the cut")
    if not no_disclosure(quiet.frame, quiet.named_sets["cut"], quiet.named_sets["chans_i"], bound).holds:
        failures.append("discard-all: disclosure from the cut to the external region")

    scn = build_firewall(FirewallParams())
    addrs = set(scn.params.external_addrs + scn.params.internal_addrs)
    if len(addrs) > 3:
        failures.append(f"address budget exceeded: {sorted(addrs)}")
    if not f_limits_flow(
        scn.frame, scn.named_sets["chans_i"], scn.named_sets["cut"], scn.blurs["f_i"], bound
    ).holds:
        failures.append("standard: importable blur does not limit flow to the cut")
    if not f_limits_flow(
        scn.frame, scn.named_sets["chans_n"], scn.named_sets["cut"], scn.blurs["f_e"], bound
    ).holds:
        failures.append("standard: exportable blur does not limit flow to the cut")

    integrity = verify_cut_blur(
        scn.frame,
        ChannelSetTriple(scn.named_sets["chans_i"], scn.named_sets["cut"], scn.named_sets["chans_n"]),
        scn.blurs["f_i"],
        bound,
    )
    if not (integrity.antecedent.holds and integrity.consequent.holds):
        failures.append("standard: importable blur does not survive to the internal regions")
    confidentiality = verify_cut_blur(
        scn.frame,
        ChannelSetTriple(scn.named_sets["chans_n"], scn.named_sets["cut"], scn.named_sets["chans_i"]),
        scn.blurs["f_e"],
        bound,
    )
    if not (confidentiality.antecedent.holds and confidentiality.consequent.holds):
        failures.append("standard: exportable blur does not survive to the external region")
    _report("6 firewall-reproduction", failures)


def test_criterion_7_machine_suite():
    failures: list[str] = []
    rng = random.Random(707)
    bound = Bound(6)
    for idx in range(20):
        machine = random_machine(rng)
        for target in machine.domains:
            for kind_name in ("gm", "hy"):
                kind = PurgeKind(kind_name, target)
                if not validate_purge(machine, kind, bound):
                    failures.append(f"machine {idx}: purge laws broken for {kind_name}/{target}")
                ni = check_ni(machine, kind, bound)
                nd = check_nd(machine, kind, bound)
                if ni.holds and not nd.holds:
                    failures.append(f"machine {idx}: NI without ND for {kind_name}/{target}")
                blur = purge_blur(machine, kind, bound)
                flow = f_limits_flow(
                    star_frame(machine),
                    machine.input_channels(),
                    machine.domain_channels(target),
                    blur,
                    bound,
                )
                if flow.holds != nd.holds:
                    failures.append(
                        f"machine {idx}: ND and blur-limited flow disagree for {kind_name}/{target}"
                    )

        transitive = random_machine(rng, transitive=True)
        frame = star_frame(transitive)
        in_chans = transitive.input_channels()
        for sys in enumerate_executions(frame, bound).systems:
            seq = input_sequence(transitive, canonicalize(sys.restrict(in_chans)))
            for target in transitive.domains:
                if purge_sequence(transitive, PurgeKind("gm", target), seq) != purge_sequence(
                    transitive, PurgeKind("hy", target), seq
                ):
                    failures.append(f"machine {idx}: transitive HY deviates from GM")
    _report("7 machine-suite (20 machines)", failures)


def test_criterion_8_oracle_cross_check():
    failures: list[str] = []
    frames, rng = _criterion1_frames()
    for idx, frame in enumerate(frames):
        obs = random_channel_subset(rng, frame)
        src = random_channel_subset(rng, frame)
        for b_o in enumerate_runs(frame, obs, BOUND):
            pipeline = compatible_runs(frame, CompatQuery(obs, src, b_o, BOUND))
            naive = naive_compatible_runs(frame, obs, src, 5, canonical_to_naive(b_o))
            if len(pipeline) != len(naive):
                failures.append(f"frame {idx}: cardinality mismatch")
                continue
            for run in pipeline:
                hits = sum(1 for rep in naive if naive_iso(canonical_to_naive(run), rep))
                if hits != 1:
                    failures.append(f"frame {idx}: pipeline run matched {hits} naive classes")
    _report("8 oracle-cross-check (50 frames)", failures)


def test_criterion_9_report_determinism(tmp_path, capsys):
    failures: list[str] = []
    scn = build_voting(VotingParams(precincts=(2,)))
    frame_path = tmp_path / "voting.yaml"
    frame_path.write_text(emit_frame_document(scn.frame, scn.named_sets, scn.blurs))

    commands = [
        ["runs", str(frame_path), "--channels", "voters", "--bound", "6", "--json", "--seed", "11"],
        ["enumerate", str(frame_path), "--bound", "4", "--json", "--seed", "11"],
        [
            "nodisclosure",
            str(frame_path),
            "--source",
            "voters",
            "--observed",
            "c1",
            "--bound",
            "6",
            "--json",
            "--seed",
            "11",
        ],
        [
            "cmpt",
            str(frame_path),
            "--observed",
            "c1",
            "--source",
            "voters",
            "--run-index",
            "1",
            "--bound",
            "6",
            "--json",
            "--seed",
            "11",
        ],
    ]
    from flowcut.enumeration import _enumerate_cached as enum_cache

    for argv in commands:
        outputs = []
        for _ in range(2):
            enum_cache.cache_clear()
            cli_main(argv)
            outputs.append(capsys.readouterr().out)
        if outputs[0] != outputs[1]:
            failures.append(f"{argv[0]}: structured reports differ between runs")
        try:
            json.loads(outputs[0])
        except json.JSONDecodeError:
            failures.append(f"{argv[0]}: report is not valid JSON")

    # Fresh interpreters randomize string hashing, so byte equality across
    # processes is the stronger claim.  The children import the flowcut this
    # process imported, from PYTHONPATH or an install alike; nothing else of
    # this process's environment reaches them.
    import subprocess
    import sys
    from pathlib import Path

    import flowcut

    env = {
        "PATH": "/usr/bin:/bin",
        "PYTHONHASHSEED": "random",
        "PYTHONPATH": str(Path(flowcut.__file__).resolve().parents[1]),
    }
    argv = commands[0]
    children = [
        subprocess.run(
            [sys.executable, "-m", "flowcut.cli", *argv],
            capture_output=True,
            env=env,
        )
        for _ in range(2)
    ]
    broken = [
        f"cross-process child {i} exited {child.returncode} with "
        f"{len(child.stdout)} bytes of stdout; stderr ends: "
        f"{child.stderr.decode(errors='replace').strip().splitlines()[-3:]}"
        for i, child in enumerate(children)
        if child.returncode != 0 or not child.stdout
    ]
    failures.extend(broken)
    if not broken:
        if children[0].stdout != children[1].stdout:
            failures.append("cross-process structured reports differ")
        try:
            json.loads(children[0].stdout)
        except json.JSONDecodeError:
            failures.append("cross-process report is not valid JSON")
    _report("9 report-determinism", failures)
