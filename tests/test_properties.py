"""
Property tests of the input boundary and the report format.

* A mutated frame or machine document makes the CLI exit 0, 1 or 2: never
  3 (an internal error) and never with a traceback.
* ``emit -> parse -> emit`` is byte-stable for every scenario the builders
  produce.
* ``--json`` output always parses.

Commands run in-process through ``cli.main`` on small inputs at small
bounds, so no test starts a process.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flowcut.cli import main
from flowcut.fileformat import emit_frame_document, parse_frame_document
from flowcut.scenarios import FirewallParams, VotingParams, build_firewall, build_voting

from support import downgrader_machine, machine_document

SELECTION_FRAME = """
frame:
  data: ["0", "1"]
  locations:
    - id: S
      traces: [[], [[a, "0"]], [[a, "1"]], [[a, "1"], [b, "0"]]]
    - id: A
      lts:
        states: [q0, q1, q2]
        initial: q0
        transitions:
          - [q0, a, "0", q1]
          - [q0, a, "1", q1]
          - [q1, b, "0", q2]
  channels:
    - {id: a, sender: S, recipient: A}
    - {id: b, sender: S, recipient: A}
  channel_sets:
    src: [a]
    obs: [b]
  blurs:
    zeros: {kind: selection, values: ["0"]}
    on_a: {kind: selection, channels: [a]}
    swap: {kind: permutation, members: [a, b], fixed: [b]}
"""

def _document(scn) -> str:
    return emit_frame_document(scn.frame, scn.named_sets, scn.blurs)


#: name -> (document text, commands run on it with FILE replaced by its path)
BASES = {
    "voting": (
        _document(build_voting(VotingParams())),
        [
            ["validate", "FILE"],
            ["runs", "FILE", "--channels", "pub", "--bound", "4"],
            ["check-blur", "FILE", "--blur", "f0", "--source", "voters", "--observed", "pub", "--bound", "4"],
            ["min-cut", "FILE", "--source", "voters", "--observed", "pub"],
        ],
    ),
    "selection": (
        SELECTION_FRAME,
        [
            ["validate", "FILE"],
            ["nodisclosure", "FILE", "--source", "src", "--observed", "obs", "--bound", "3"],
            ["check-blur", "FILE", "--blur", "zeros", "--source", "src", "--observed", "obs", "--bound", "3"],
            ["verify-cutblur", "FILE", "--blur", "swap", "--source", "src", "--cut", "obs", "--observed", "obs",
             "--bound", "3"],
        ],
    ),
    "machine": (
        machine_document(downgrader_machine()),
        [
            ["ni", "FILE", "--target", "d1", "--purge", "gm", "--bound", "3"],
            ["nd", "FILE", "--target", "d2", "--purge", "hy", "--bound", "3"],
            ["purge-blur", "FILE", "--target", "d2", "--purge", "hy", "--bound", "3"],
        ],
    ),
}

#: replacement values: wrong types, empty collections and names that clash
SUBSTITUTES = [None, 0, 7, -1, True, "", "x", "0", "a", "q0", "d1", "S", [], {}, ["a"], [["a", "0"]], {"k": 1}]


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _paths(node, prefix=()):
    """Every path to a node of a parsed document, the root included."""
    yield prefix
    if isinstance(node, dict):
        for key, child in node.items():
            yield from _paths(child, prefix + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield from _paths(child, prefix + (i,))


@st.composite
def mutated_documents(draw):
    name = draw(st.sampled_from(sorted(BASES)))
    text, commands = BASES[name]
    doc = yaml.safe_load(text)
    for _ in range(draw(st.integers(1, 3))):
        paths = [p for p in _paths(doc) if p]
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        last = path[-1]
        op = draw(st.sampled_from(["replace", "delete", "duplicate", "rename"]))
        if op == "replace":
            parent[last] = copy.deepcopy(draw(st.sampled_from(SUBSTITUTES)))
        elif op == "delete":
            del parent[last]
        elif op == "duplicate" and isinstance(parent, list):
            parent.insert(last, copy.deepcopy(parent[last]))
        elif op == "rename" and isinstance(parent, dict):
            parent[draw(st.sampled_from(["id", "kind", "extra", "members", "0"]))] = parent.pop(last)
    return name, yaml.safe_dump(doc), commands


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("mutants")


@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=mutated_documents(), json_out=st.booleans())
def test_mutated_documents_exit_0_1_or_2(workdir, case, json_out):
    name, text, commands = case
    path = workdir / f"{name}.yaml"
    path.write_text(text)
    for command in commands:
        argv = [str(path) if a == "FILE" else a for a in command] + (["--json"] if json_out else [])
        code, out, err = _run(argv)
        assert code in (0, 1, 2), (argv, err, text)
        assert "Traceback" not in err
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, err
        elif json_out:
            assert json.loads(out)["command"], out


@settings(max_examples=20, deadline=None)
@given(
    precincts=st.lists(st.integers(1, 3), min_size=1, max_size=2),
    candidates=st.lists(st.sampled_from(["0", "1", "2", "yes", "no"]), min_size=2, max_size=3, unique=True),
    data=st.data(),
)
def test_voting_documents_are_byte_stable(precincts, candidates, data):
    voters = [(p, v) for p, k in enumerate(precincts, start=1) for v in range(1, k + 1)]
    commissioners = data.draw(st.lists(st.sampled_from(voters), unique=True, max_size=2))
    text = _document(build_voting(VotingParams(tuple(precincts), tuple(candidates), tuple(commissioners))))
    assert emit_frame_document(*parse_frame_document(text)) == text


@settings(max_examples=5, deadline=None)
@given(
    filtering=st.sampled_from(["standard", "discard_all"]),
    region_sends=st.integers(1, 2),
    buffer_capacity=st.integers(1, 2),
    i_local=st.lists(st.sampled_from(["ext>ext:hi>web", "ext>ext:oth>web"]), unique=True, max_size=1),
)
def test_firewall_documents_are_byte_stable(filtering, region_sends, buffer_capacity, i_local):
    params = FirewallParams(
        filtering=filtering,
        region_sends=region_sends,
        buffer_capacity=buffer_capacity,
        i_local=tuple(i_local),
    )
    text = _document(build_firewall(params))
    assert emit_frame_document(*parse_frame_document(text)) == text
