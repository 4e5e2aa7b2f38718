"""
Checks that the benchmark's count gates do not rest on the program alone.

Run from the repository root:

  python3 -m pytest -q perfbench/check_counts.py

Three independent routes back the gates in ``workloads.py``:

* the naive oracle of the test suite (``tests/support.py``: firing
  histories, least posets and brute-force isomorphism, no canonical forms)
  recounts the executions of reduced versions of every workload's inputs,
  and the program must agree with it;
* closed forms recount the voting and star-machine executions and the
  purge classes at the benchmark's own sizes;
* the star-machine closed forms rest on the machine file's shape (total,
  deterministic transitions), which is read here with plain YAML.
"""

from __future__ import annotations

import itertools
import math
import sys
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for extra in (ROOT / "src", ROOT / "tests", HERE):
    if str(extra) not in sys.path:
        sys.path.insert(0, str(extra))

from support import naive_histories, naive_iso, naive_poset  # noqa: E402

from flowcut.enumeration import Bound, enumerate_executions  # noqa: E402
from flowcut.fileformat import parse_machine_document  # noqa: E402
from flowcut.purge import PurgeKind, purge_blur, star_frame  # noqa: E402
from flowcut.scenarios import FirewallParams, VotingParams, build_firewall, build_voting  # noqa: E402
from workloads import FIREWALL, PURGE, VOTING  # noqa: E402

MACHINE_TEXT = (HERE / "downgrader.yaml").read_text()


def naive_count(frame, bound: int) -> int:
    """Executions up to isomorphism, by the test suite's naive oracle.

    Posets are grouped by an isomorphism invariant (each label with its
    numbers of predecessors and successors) before the brute-force test.
    """
    reps: dict[tuple, list] = {}
    for history in naive_histories(frame, bound):
        poset = naive_poset(frame, history)
        labels, order = poset
        n = len(labels)
        invariant = sorted(
            (labels[i], sum(order[j][i] for j in range(n)), sum(order[i])) for i in range(n)
        )
        group = reps.setdefault(tuple(invariant), [])
        if not any(naive_iso(poset, other) for other in group):
            group.append(poset)
    return sum(len(g) for g in reps.values())


def voting_count(precincts: tuple[int, ...], candidates: int = 2) -> int:
    """Executions of the voting frame when the bound is not binding.

    A precinct of k voters has sum_j k!/(k-j)! * c^j ballot-box states
    before its tally (which votes arrived, in which order, with which
    values) plus k! * c^k tallied ones.  The commission receives the
    tallies in any order and publishes once all are in.
    """
    untallied, tallied = [], []
    for k in precincts:
        untallied.append(sum(math.perm(k, j) * candidates**j for j in range(k + 1)))
        tallied.append(math.perm(k, k) * candidates**k)
    total = 0
    for mask in itertools.product((False, True), repeat=len(precincts)):
        ways = math.prod(t if m else u for m, t, u in zip(mask, tallied, untallied))
        done = sum(mask)
        total += ways * math.factorial(done) * (2 if done == len(precincts) else 1)
    return total


def machine_shape() -> tuple[dict, int, int]:
    doc = yaml.safe_load(MACHINE_TEXT)["machine"]
    return doc, len(doc["actions"]), len(doc["domains"])


def star_count(bound: int) -> int:
    """The hub alternates one input with one output per domain and every
    action is enabled in every state, so the executions of n events are
    the action words of length ceil(n / (domains + 1))."""
    _, actions, domains = machine_shape()
    return sum(actions ** math.ceil(n / (domains + 1)) for n in range(bound + 1))


def hy_classes(target: str, bound: int) -> int:
    """Distinct chain purges of every input word that fits in the bound."""
    doc, _, domains = machine_shape()
    influence = {(d, d) for d in doc["domains"]} | {tuple(p) for p in doc["influence"]}
    dom = doc["actions"]
    longest = math.ceil(bound / (domains + 1))
    values = set()
    for n in range(longest + 1):
        for word in itertools.product(sorted(dom), repeat=n):
            keep = [False] * n
            for i in reversed(range(n)):
                d = dom[word[i]]
                keep[i] = (d, target) in influence or any(
                    keep[j] and (d, dom[word[j]]) in influence for j in range(i + 1, n)
                )
            values.add(tuple(a for a, k in zip(word, keep) if k))
    return len(values)


def test_machine_is_total_and_deterministic():
    doc, _, _ = machine_shape()
    pairs = [(s, a) for s, a, _ in doc["transitions"]]
    assert len(pairs) == len(set(pairs))
    assert set(pairs) == set(itertools.product(doc["states"], doc["actions"]))


def test_firewall_reduced_matches_oracle():
    frame = build_firewall(FirewallParams()).frame
    assert naive_count(frame, 6) == len(enumerate_executions(frame, Bound(6))) == 162


def test_voting_matches_oracle_and_closed_form():
    for precincts, count in (((2,), 29), ((2, 2), 633)):
        frame = build_voting(VotingParams(precincts=precincts)).frame
        assert naive_count(frame, 8) == len(enumerate_executions(frame, Bound(8))) == count
        assert voting_count(precincts) == count


def test_star_reduced_matches_oracle_and_closed_form():
    frame = star_frame(parse_machine_document(MACHINE_TEXT))
    assert naive_count(frame, 8) == len(enumerate_executions(frame, Bound(8))) == star_count(8) == 121


def test_voting_gates_match_closed_form():
    for e in VOTING.exactness:
        precincts = {"v1.yaml": (2,), "v22.yaml": (2, 2)}[e.file]
        assert e.executions == voting_count(precincts)


def test_star_gates_match_closed_form():
    (e,) = PURGE.exactness
    assert e.executions == star_count(e.bound) == 1246
    assert star_count(16) == 3121


def test_purge_class_gate_matches_closed_form():
    cmd = next(c for c in PURGE.commands if c.name == "purge-blur-d2-hy")
    bound = int(cmd.argv[cmd.argv.index("--bound") + 1])
    assert cmd.gates["class_count"] == hy_classes("d2", bound) == 393
    blur = purge_blur(parse_machine_document(MACHINE_TEXT), PurgeKind("hy", "d2"), Bound(bound))
    assert len(blur.blocks) == 393


def test_firewall_gate_is_the_enumerate_gate():
    (e,) = FIREWALL.exactness
    cmd = next(c for c in FIREWALL.commands if c.name == "enumerate")
    assert cmd.gates["count"] == e.executions


def test_benchmark_json_matches_run_py():
    import json

    import run

    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == [
        (w.name, w.why) for w in (FIREWALL, VOTING, PURGE)
    ]
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in doc["per_layer"]} == run.PER_LAYER
