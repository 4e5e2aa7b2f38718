from __future__ import annotations

import errno
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest
import yaml
from hypothesis import example, given, settings
from hypothesis import strategies as st

from flowcut.cli import _ARGUMENTS, _COMMANDS, _COMMON, _read_args, build_parser, main
from flowcut.emitter import emit_frame_document
from flowcut.fileformat import (
    FileFormatError,
    _read_subset,
    parse_frame_document,
    parse_machine_document,
)
from flowcut.scenarios import FirewallParams, VotingParams, build_firewall, build_voting

from support import BROKEN_DOCUMENTS, child_env, count_restrictions, downgrader_machine, machine_document

ROOT = Path(__file__).resolve().parents[1]

GOOD_FRAME = """
frame:
  data: ["0", "1"]
  locations:
    - id: S
      traces:
        - []
        - [[a, "0"]]
        - [[a, "1"]]
    - id: A
      lts:
        states: [q0, q1]
        initial: q0
        transitions:
          - [q0, a, "0", q1]
          - [q0, a, "1", q1]
  channels:
    - id: a
      sender: S
      recipient: A
  channel_sets:
    src: [a]
  blurs:
    ident: {kind: identity}
    everything: {kind: all}
"""

BAD_PREFIX_FRAME = """
frame:
  data: [v]
  locations:
    - id: L
      traces:
        - [[c, v]]
  channels:
    - id: c
      sender: L
      recipient: L
"""

MACHINE = """
machine:
  domains: [hi, lo]
  influence: [[lo, hi]]
  actions: {ah: hi, al: lo}
  outputs: [o0]
  states: [s]
  initial: s
  transitions:
    - [s, ah, s]
    - [s, al, s]
  obs:
    s: {hi: o0, lo: o0}
"""


@pytest.fixture()
def frame_file(tmp_path):
    p = tmp_path / "frame.yaml"
    p.write_text(GOOD_FRAME)
    return str(p)


@pytest.fixture()
def machine_file(tmp_path):
    p = tmp_path / "machine.yaml"
    p.write_text(MACHINE)
    return str(p)


def test_parse_good_frame_and_named_artifacts():
    frame, named, blurs = parse_frame_document(GOOD_FRAME)
    assert frame.channel_ids == ("a",)
    assert named == {"src": frozenset({"a"})}
    assert set(blurs) == {"ident", "everything"}


def test_parser_rejects_unknown_keys():
    with pytest.raises(FileFormatError) as info:
        parse_frame_document(GOOD_FRAME.replace("channel_sets", "channelz"))
    assert "channelz" in str(info.value)


def test_parser_names_line_and_column():
    with pytest.raises(FileFormatError) as info:
        parse_frame_document("frame: {a: b")
    assert "line" in str(info.value)


def test_machine_document_parses_with_implicit_reflexivity():
    machine = parse_machine_document(MACHINE)
    assert ("hi", "hi") in machine.influence
    assert ("lo", "hi") in machine.influence


def test_emit_parse_round_trip_voting():
    scn = build_voting(VotingParams(precincts=(2,)))
    text = emit_frame_document(scn.frame, scn.named_sets, scn.blurs)
    frame2, named2, blurs2 = parse_frame_document(text)
    assert frame2 == scn.frame
    assert named2 == scn.named_sets
    assert set(blurs2) == set(scn.blurs)


def test_emit_parse_round_trip_firewall():
    scn = build_firewall(FirewallParams())
    text = emit_frame_document(scn.frame, scn.named_sets, scn.blurs)
    frame2, named2, blurs2 = parse_frame_document(text)
    assert frame2 == scn.frame
    assert blurs2["f_e"] == scn.blurs["f_e"]


def test_cli_validate_exit_codes(frame_file, tmp_path, capsys):
    assert main(["validate", frame_file]) == 0
    capsys.readouterr()
    bad = tmp_path / "bad.yaml"
    bad.write_text(BAD_PREFIX_FRAME)
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "not-prefix-closed" in out
    assert main(["validate", str(tmp_path / "missing.yaml")]) == 2


def test_cli_file_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_bytes(b"frame:\n  data: [\xff]\n")
    assert main(["validate", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {bad}: 'utf-8' codec can't decode byte 0xff")


def test_cli_reads_a_frame_after_a_byte_order_mark(tmp_path, capsys):
    marked = tmp_path / "bom.yaml"
    marked.write_bytes(b"\xef\xbb\xbf" + GOOD_FRAME.encode())
    assert main(["validate", str(marked)]) == 0
    assert "verdict: HOLDS\n" in capsys.readouterr().out


def test_cli_parse_error_exit_2(tmp_path, capsys):
    broken = tmp_path / "broken.yaml"
    broken.write_text("frame: {a: b")
    assert main(["validate", str(broken)]) == 2
    assert "line" in capsys.readouterr().err


def test_cli_runs_and_enumerate(frame_file, capsys):
    assert main(["enumerate", frame_file, "--bound", "2", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == "flowcut-report/1"
    assert doc["details"]["count"] == 3
    assert main(["runs", frame_file, "--channels", "src", "--bound", "2"]) == 0


def test_cli_nodisclosure_failure_carries_counterexample(frame_file, capsys):
    code = main(
        ["nodisclosure", frame_file, "--source", "a", "--observed", "a", "--bound", "2", "--json"]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is False
    assert "counterexample_observed" in doc["details"]


def test_cli_check_blur_identity_holds(frame_file):
    assert (
        main(
            [
                "check-blur",
                frame_file,
                "--blur",
                "ident",
                "--source",
                "src",
                "--observed",
                "src",
                "--bound",
                "2",
            ]
        )
        == 0
    )


ONE_RUN_FRAME = """
frame:
  data: [v]
  locations:
    - id: A
      lts: {states: [q], initial: q, transitions: []}
    - id: B
      lts: {states: [q], initial: q, transitions: []}
  channels:
    - {id: c, sender: A, recipient: B}
    - {id: d, sender: B, recipient: A}
  blurs:
    everything: {kind: all}
"""


def test_cli_check_blur_all_blur_holds_on_a_one_run_universe(tmp_path, capsys):
    """The only source run is the empty run; the all-blur is checked on
    non-empty samples, where it fixes every compatibility set."""
    path = tmp_path / "one_run.yaml"
    path.write_text(ONE_RUN_FRAME)
    argv = ["check-blur", str(path), "--blur", "everything", "--source", "c"]
    assert main(argv + ["--observed", "d", "--bound", "2", "--json"]) == 0
    laws = json.loads(capsys.readouterr().out)["details"]["blur_laws"]
    assert laws == {
        "inclusion": True,
        "idempotence": True,
        "union": True,
        "partition_generated": True,
    }


def test_cli_unknown_blur_is_usage_error(frame_file):
    assert (
        main(
            [
                "check-blur",
                frame_file,
                "--blur",
                "nope",
                "--source",
                "src",
                "--observed",
                "src",
            ]
        )
        == 2
    )


def test_cli_cut_commands(tmp_path, capsys):
    scn = build_firewall(FirewallParams())
    path = tmp_path / "fw.yaml"
    path.write_text(emit_frame_document(scn.frame, scn.named_sets, scn.blurs))
    assert main(["check-cut", str(path), "--source", "chans_i", "--cut", "c1,c2", "--observed", "chans_n"]) == 0
    capsys.readouterr()
    assert main(["check-cut", str(path), "--source", "chans_i", "--cut", "c1", "--observed", "chans_n"]) == 1
    out = capsys.readouterr().out
    assert "witness" in out
    assert main(["min-cut", str(path), "--source", "chans_i", "--observed", "chans_n", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert len(doc["details"]["cut"]) == 2


def test_cli_machine_commands(machine_file, capsys):
    assert main(["nd", machine_file, "--target", "hi", "--purge", "gm", "--bound", "6"]) in (0, 1)
    capsys.readouterr()
    assert main(["purge-blur", machine_file, "--target", "hi", "--purge", "hy", "--bound", "6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["details"]["class_count"] >= 1


@pytest.mark.parametrize("command", ["ni", "nd", "purge-blur"])
@pytest.mark.parametrize("target", ["zz", "M"])
def test_unknown_purge_target_exits_2_naming_the_domains(machine_file, capsys, command, target):
    # The hub "M" is a location of the star frame, not a domain.
    assert main([command, machine_file, "--target", target, "--purge", "hy", "--bound", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: unknown purge target {target!r}; declared domains: ['hi', 'lo']\n"


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("domains: [hi, lo]", "domains: [hi, lo, hi]", "domain 'hi' declared twice"),
        ("states: [s]", "states: [s, s]", "state 's' declared twice"),
        ("outputs: [o0]", "outputs: [o0, o0]", "output 'o0' declared twice"),
        ("    s: {hi: o0, lo: o0}", "    s: {hi: o0, lo: o0}\n    zz: {d9: o0}", "obs['zz']['d9'] names undeclared state 'zz'"),
        ("s: {hi: o0, lo: o0}", "s: {hi: o0, lo: o0, d9: o0}", "obs['s']['d9'] names undeclared domain 'd9'"),
    ],
    ids=["domain", "state", "output", "obs-state", "obs-domain"],
)
@pytest.mark.parametrize("command", ["ni", "nd", "purge-blur"])
def test_machine_with_a_repeated_name_or_a_stray_obs_entry_exits_2(tmp_path, capsys, command, old, new, message):
    # A repeated domain was read as one more domain, which the hub then
    # sent two outputs per input; a stray obs entry was dropped unread.
    assert old in MACHINE
    path = tmp_path / "machine.yaml"
    path.write_text(MACHINE.replace(old, new))
    assert main([command, str(path), "--target", "hi", "--bound", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_cli_scenario_voting_roundtrips_through_analysis(tmp_path, capsys):
    out = tmp_path / "v.yaml"
    assert main(["scenario", "voting", "--precincts", "2", "--out", str(out)]) == 0
    capsys.readouterr()
    assert (
        main(
            [
                "check-blur",
                str(out),
                "--blur",
                "f0",
                "--source",
                "voters",
                "--observed",
                "p",
                "--bound",
                "8",
            ]
        )
        == 0
    )


#: Commands, their exit status and their passes over the executions: one
#: per distinct channel set of each execution set they read.
RESTRICTING_COMMANDS = {
    # the observed and the source channels; the blur laws read the source
    # universe off the table instead of restricting a third time
    "check-blur-f0": (
        ["check-blur", "v22.yaml", "--blur", "f0", "--source", "voters", "--observed", "pub", "--bound", "8"],
        1,
        2,
    ),
    # source, cut and sink: both flow checks read one set of source runs
    "verify-cutblur-f_i": (
        ["verify-cutblur", "fw.yaml", "--blur", "f_i", "--source", "chans_i", "--cut", "cut"]
        + ["--observed", "chans_n", "--bound", "14"],
        1,
        3,
    ),
    # v1 at the cut and the source, v22 at the cut, the source and the
    # observed channels, however many tables are built over them
    "compose": (
        ["compose", "v1.yaml", "v22.yaml", "--core", "v1_1,v1_2,BB1", "--blur", "f0_p1"]
        + ["--source", "voters1", "--observed", "p", "--bound", "8"],
        0,
        2 + 3,
    ),
    # the observed runs are listed to pick one, then tabled with the source
    "cmpt": (
        ["cmpt", "v22.yaml", "--observed", "pub", "--source", "voters", "--run-index", "0", "--bound", "8"],
        0,
        2,
    ),
}


@pytest.mark.parametrize("command", RESTRICTING_COMMANDS)
def test_check_blur_restricts_the_executions_once_per_channel_set(tmp_path, monkeypatch, command):
    # An execution set memoizes its local runs per channel set, so a command
    # makes one pass over the executions per distinct channel set it reads.
    from flowcut.enumeration import _enumerate_cached

    argv, status, passes = RESTRICTING_COMMANDS[command]
    for name, scenario in [
        ("v1.yaml", ["voting", "--precincts", "2"]),
        ("v22.yaml", ["voting", "--precincts", "2,2"]),
        ("fw.yaml", ["firewall"]),
    ]:
        assert main(["scenario", *scenario, "--out", str(tmp_path / name)]) == 0
    monkeypatch.chdir(tmp_path)
    _enumerate_cached.cache_clear()
    calls = count_restrictions(monkeypatch)
    assert main(argv) == status
    assert calls[0] == passes


@pytest.mark.parametrize("command, frames", [("compose", 2), ("verify-cutblur-f_i", 1)])
def test_each_frame_is_validated_once_per_command(tmp_path, monkeypatch, command, frames):
    from flowcut import enumeration

    for name, scenario in [
        ("v1.yaml", ["voting", "--precincts", "2"]),
        ("v22.yaml", ["voting", "--precincts", "2,2"]),
        ("fw.yaml", ["firewall"]),
    ]:
        assert main(["scenario", *scenario, "--out", str(tmp_path / name)]) == 0
    monkeypatch.chdir(tmp_path)
    validated = []
    validate = enumeration.validate_frame
    monkeypatch.setattr(enumeration, "validate_frame", lambda frame: validated.append(frame) or validate(frame))
    enumeration._enumerate_cached.cache_clear()
    argv, status, _ = RESTRICTING_COMMANDS[command]
    assert main(argv) == status
    assert len(validated) == len(set(validated)) == frames


def test_each_flow_check_groups_its_universe_once(tmp_path, monkeypatch):
    # The blur laws and the flow loop of one flow check share one class
    # index, so each source run is keyed once per flow check.
    from flowcut.frames.blurforms import SelectionBlur

    out = tmp_path / "fw.yaml"
    assert main(["scenario", "firewall", "--out", str(out)]) == 0
    key = SelectionBlur.key
    calls = []

    def counted(self, run):
        calls.append(run)
        return key(self, run)

    monkeypatch.setattr(SelectionBlur, "key", counted)
    argv = ["verify-cutblur", str(out), "--blur", "f_i", "--source", "chans_i", "--cut", "cut"]
    assert main(argv + ["--observed", "chans_n", "--bound", "14"]) == 1
    assert len(calls) == 36


def test_cli_reports_are_byte_deterministic(frame_file, capsys):
    argv = [
        "cmpt",
        frame_file,
        "--observed",
        "src",
        "--source",
        "src",
        "--run-index",
        "1",
        "--bound",
        "2",
        "--json",
        "--seed",
        "7",
    ]
    assert main(argv) == 0
    first = capsys.readouterr().out
    from flowcut.enumeration import _enumerate_cached

    _enumerate_cached.cache_clear()
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert json.loads(first)["params"]["seed"] == 7


def test_cli_default_bound_is_announced(frame_file, capsys):
    assert main(["runs", frame_file, "--channels", "src"]) == 0
    out = capsys.readouterr().out
    assert "defaulting to 6" in out


def test_emitted_files_reproduce_in_memory_analyses_bit_for_bit(tmp_path, capsys):
    from flowcut.enumeration import Bound, enumerate_runs

    scn = build_voting(VotingParams(precincts=(2,)))
    path = tmp_path / "v.yaml"
    path.write_text(emit_frame_document(scn.frame, scn.named_sets, scn.blurs))
    assert main(["runs", str(path), "--channels", "voters", "--bound", "6", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    in_memory = sorted(
        r.serialize()
        for r in enumerate_runs(scn.frame, scn.named_sets["voters"], Bound(6))
    )
    assert doc["details"]["runs"] == in_memory


def _with_field(text: str, path: tuple, value) -> str:
    """``text``'s document with the entry at ``path`` set to ``value``."""
    doc = yaml.safe_load(text)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return yaml.safe_dump(doc)


@pytest.mark.parametrize(
    "path, value, field",
    [
        (("frame", "data"), 1, "'data'"),
        (("frame", "data"), "01", "'data'"),
        (("frame", "locations", 1, "lts", "states"), 3, "'states'"),
        (("frame", "locations"), 7, "'locations'"),
        (("frame", "locations", 0, "id"), [1], "'id'"),
        (("frame", "channels", 0, "sender"), {"x": 1}, "'sender'"),
        (("frame", "channel_sets"), ["x"], "'channel_sets'"),
        (("frame", "blurs"), ["x"], "'blurs'"),
        (("machine", "domains"), 5, "'domains'"),
        (("machine", "obs"), ["s"], "'obs'"),
        (("machine", "initial"), None, "'initial'"),
    ],
    ids=lambda p: "/".join(map(str, p)) if isinstance(p, tuple) else repr(p),
)
def test_wrong_typed_field_exits_2_naming_it(tmp_path, capsys, path, value, field):
    kind = path[0]
    file = tmp_path / f"{kind}.yaml"
    file.write_text(_with_field(GOOD_FRAME if kind == "frame" else MACHINE, path, value))
    argv = ["validate", str(file)] if kind == "frame" else ["ni", str(file), "--target", "hi"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err, err


@pytest.mark.parametrize(
    "blur, message",
    [
        (
            {"kind": "permutation", "members": ["a", "b"]},
            "'members' in blur 'x' names 'b', which is not a declared channel",
        ),
        ({"kind": "permutation", "members": ["a"], "blocks": [["b"]]}, "'blocks' in blur 'x' names 'b'"),
        ({"kind": "permutation", "members": ["a"], "fixed": ["b"]}, "'fixed' in blur 'x' names 'b'"),
        ({"kind": "permutation", "members": [], "fixed": ["a"]}, "names 'a', which is not one of its members"),
        (
            {"kind": "selection", "channels": ["b"]},
            "'channels' in blur 'x' names 'b', which is not a declared channel",
        ),
        ({"kind": "selection", "values": ["2"]}, "'values' in blur 'x' names '2', which is not in 'data'"),
    ],
    ids=["members", "blocks", "fixed-channel", "fixed-member", "selection-channels", "selection-values"],
)
def test_blur_naming_undeclared_name_exits_2(tmp_path, capsys, blur, message):
    file = tmp_path / "frame.yaml"
    file.write_text(_with_field(GOOD_FRAME, ("frame", "blurs", "x"), blur))
    assert main(["validate", str(file)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err


def test_misspelled_permutation_members_are_rejected(tmp_path, capsys):
    """Typos in a member list used to leave those voters out of the blur,
    turning a failing check into a passing one."""
    path = tmp_path / "v22.yaml"
    assert main(["scenario", "voting", "--precincts", "2,2", "--out", str(path)]) == 0
    argv = ["check-blur", str(path), "--blur", "f0", "--source", "voters", "--observed", "pub", "--bound", "8"]
    assert main(argv) == 1
    typos = ["cv1_1", "cv1_2", "cv2-1", "cv2-2"]
    path.write_text(_with_field(path.read_text(), ("frame", "blurs", "f0", "members"), typos))
    capsys.readouterr()
    assert main(argv) == 2
    assert "'members' in blur 'f0' names 'cv2-1'" in capsys.readouterr().err


def test_unexpected_exception_exits_3_on_one_line(frame_file, capsys, monkeypatch):
    import flowcut.cli as cli

    def boom(args):
        raise RuntimeError("boom\nsecond line")

    monkeypatch.setattr(cli, "cmd_validate", boom)
    assert main(["validate", frame_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("internal error: RuntimeError(")
    assert captured.err.count("\n") == 1


def test_internal_value_error_exits_3_not_2(frame_file, capsys, monkeypatch):
    # An EventSystemError is a ValueError, but not an input error: reaching
    # main means a bug, so it must not read as bad input.
    import flowcut.enumeration
    from flowcut.events import CanonicalRun

    def unordered_runs(frame, chans, bound):
        cycle = [(("a", 0), ("b", 0)), (("b", 0), ("a", 0))]
        return {CanonicalRun.build([("a", ("0",)), ("b", ("1",))], cycle)}

    # ``runs`` imports enumerate_runs from its home module when it runs.
    monkeypatch.setattr(flowcut.enumeration, "enumerate_runs", unordered_runs)
    assert main(["runs", frame_file, "--channels", "src"]) == 3
    assert capsys.readouterr().err.startswith("internal error: EventSystemError(")


def test_precincts_that_are_not_numbers_exit_2(capsys):
    assert main(["scenario", "voting", "--precincts", "2,x"]) == 2
    err = capsys.readouterr().err
    assert err == "error: --precincts takes comma-separated voter counts, got '2,x'\n"


def test_negative_region_sends_exits_2(capsys):
    assert main(["scenario", "firewall", "--region-sends", "-1"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: region_sends must be >= 0\n")


def test_region_sends_above_the_cap_exit_2(tmp_path, capsys):
    out = tmp_path / "fw.yaml"
    assert main(["scenario", "firewall", "--region-sends", "1001", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: region_sends must be <= 1000\n")
    assert not out.exists()


@pytest.mark.parametrize(
    ("precincts", "candidates", "message"),
    [
        ("2,2,2,2,2", "a,b,c", "the commission must have at most 2500 states"),
        ("48", "a,b", "a ballot box must have at most 10000 vote moves"),
    ],
)
def test_voting_above_the_caps_exits_2(tmp_path, capsys, precincts, candidates, message):
    out = tmp_path / "v.yaml"
    argv = ["scenario", "voting", "--precincts", precincts, "--candidates", candidates, "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()


@pytest.mark.parametrize("candidates", ["0,,1", "a,a"])
def test_empty_or_repeated_candidates_exit_2(tmp_path, capsys, candidates):
    out = tmp_path / "v.yaml"
    assert main(["scenario", "voting", "--candidates", candidates, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: candidate names must be distinct and non-empty, got (")
    assert not out.exists()


def test_scenario_out_to_an_unwritable_path_exits_2(tmp_path, capsys):
    out = tmp_path / "missing" / "fw.yaml"
    assert main(["scenario", "firewall", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: [Errno 2] No such file or directory")
    assert captured.err.count("\n") == 1


#: One valid invocation of every analysis command on ``frame.yaml`` and
#: ``machine.yaml`` (the ``GOOD_FRAME`` and ``MACHINE`` documents).
ANALYSES = {
    "validate": ["frame.yaml"],
    "enumerate": ["frame.yaml", "--bound", "2"],
    "runs": ["frame.yaml", "--channels", "src", "--bound", "2"],
    "cmpt": ["frame.yaml", "--observed", "src", "--source", "src", "--bound", "2"],
    "nodisclosure": ["frame.yaml", "--source", "src", "--observed", "src", "--bound", "2"],
    "check-blur": ["frame.yaml", "--blur", "ident", "--source", "src", "--observed", "src", "--bound", "2"],
    "check-cut": ["frame.yaml", "--source", "src", "--cut", "", "--observed", ""],
    "min-cut": ["frame.yaml", "--source", "src", "--observed", ""],
    "verify-cutblur": [
        "frame.yaml", "--blur", "ident", "--source", "src", "--cut", "", "--observed", "", "--bound", "2",
    ],
    "compose": [
        "frame.yaml", "frame.yaml", "--core", "S,A", "--blur", "ident", "--source", "src",
        "--observed", "", "--bound", "2",
    ],
    "ni": ["machine.yaml", "--target", "hi", "--bound", "2"],
    "nd": ["machine.yaml", "--target", "hi", "--bound", "2"],
    "purge-blur": ["machine.yaml", "--target", "hi", "--bound", "2"],
}


def _subparsers() -> dict:
    import argparse

    from flowcut.cli import build_parser

    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


@pytest.fixture()
def analysis_dir(tmp_path, monkeypatch):
    (tmp_path / "frame.yaml").write_text(GOOD_FRAME)
    (tmp_path / "machine.yaml").write_text(MACHINE)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def test_every_analysis_command_is_covered():
    assert set(_subparsers()) - {"scenario"} == set(ANALYSES)


@pytest.mark.parametrize("command", sorted(ANALYSES))
def test_report_params_echo_the_declared_arguments(analysis_dir, capsys, command):
    # ``params`` echoes each argument the command declares, apart from the
    # bound, which the report carries on its own.
    declared = {a.dest for a in _subparsers()[command]._actions}
    declared -= {"help", "json", "seed", "timing", "bound", "per_location"}
    assert main([command, *ANALYSES[command], "--json"]) in (0, 1)
    assert set(json.loads(capsys.readouterr().out)["params"]) == declared


@pytest.mark.parametrize("command", sorted(c for c in ANALYSES if "--bound" in ANALYSES[c]))
def test_a_missing_file_is_named_before_a_bad_bound(analysis_dir, capsys, command):
    argv = [command, *ANALYSES[command], "--bound", "-1"]
    # the last input file of the command is missing
    last = max(i for i, a in enumerate(argv) if a.endswith(".yaml"))
    argv[last] = "missing.yaml"
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: cannot read missing.yaml: ")


@pytest.mark.parametrize("command", sorted(c for c in ANALYSES if "--blur" in ANALYSES[c]))
def test_a_bad_bound_is_named_before_an_unknown_blur(analysis_dir, capsys, command):
    argv = [command, *ANALYSES[command], "--bound", "-1"]
    argv[argv.index("--blur") + 1] = "nope"
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: max_total_events must be >= 0\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["firewall"],
        ["firewall", "--filtering", "discard_all"],
        ["firewall", "--region-sends", "2"],
        ["voting", "--precincts", "2"],
        ["voting", "--precincts", "2,2"],
        ["voting", "--precincts", "3,3"],
    ],
    ids=" ".join,
)
def test_scenario_files_load_equal_under_both_loaders(tmp_path, capsys, argv):
    path = tmp_path / "scn.yaml"
    assert main(["scenario", *argv, "--out", str(path)]) == 0
    text = path.read_text()
    # The subset reader reads every generated file, with no PyYAML fallback.
    assert _read_subset(text) == yaml.load(text, Loader=yaml.SafeLoader)


def test_machine_file_loads_equal_under_both_loaders():
    text = machine_document(downgrader_machine())
    assert _read_subset(text) == yaml.load(text, Loader=yaml.SafeLoader)


@pytest.mark.parametrize("name", sorted(BROKEN_DOCUMENTS))
def test_parse_errors_keep_pure_python_messages(name):
    text, message = BROKEN_DOCUMENTS[name]
    with pytest.raises(FileFormatError) as info:
        parse_frame_document(text)
    assert str(info.value) == message


def test_tab_after_colon_is_rejected_on_every_host():
    """libyaml takes a tab as the space after ``:``, pure-Python PyYAML
    does not; a declined document is parsed only in pure Python, so such a
    file is rejected whether or not libyaml is installed."""
    text = GOOD_FRAME.replace('data: ["0", "1"]', 'data:\t["0", "1"]')
    with pytest.raises(FileFormatError) as info:
        parse_frame_document(text)
    assert str(info.value) == "parse error at line 3, column 8: found character '\\t' that cannot start any token"


# -- the process exit path ---------------------------------------------------------
#
# ``python -m flowcut.cli`` and the ``flowcut`` script end the process with
# ``os._exit`` once the report is flushed, skipping interpreter finalization.
# These tests run that path in a child process: nothing buffered may be
# lost, every exit status must come through, and a report that cannot be
# written exits 2 with one line.


def _flowcut(*argv: str, cwd: Path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, code: str | None = None):
    """(status, stdout, stderr) of ``python -m flowcut.cli argv``, or of
    ``python -c code argv``; ``PYTHONUNBUFFERED`` is unset, so a buffer the
    exit path fails to flush shows as lost output."""
    prefix = ["-m", "flowcut.cli"] if code is None else ["-c", code]
    proc = subprocess.run(
        [sys.executable, *prefix, *argv],
        stdout=stdout,
        stderr=stderr,
        cwd=cwd,
        env=child_env(COLUMNS="80"),
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.fixture()
def fw_dir(tmp_path, monkeypatch):
    scn = build_firewall(FirewallParams())
    (tmp_path / "fw.yaml").write_text(emit_frame_document(scn.frame, scn.named_sets, scn.blurs))
    (tmp_path / "frame.yaml").write_text(GOOD_FRAME)
    (tmp_path / "bad.yaml").write_text(BAD_PREFIX_FRAME)
    monkeypatch.chdir(tmp_path)
    return tmp_path


@pytest.mark.parametrize("sink", ["pipe", "file"])
def test_a_large_report_is_whole_through_the_exit_path(fw_dir, capsys, sink):
    argv = ["enumerate", "fw.yaml", "--bound", "14", "--json"]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) > 300_000  # many times the stdout buffer
    if sink == "pipe":
        status, out, err = _flowcut(*argv, cwd=fw_dir)
    else:
        with open(fw_dir / "report.json", "wb") as fh:
            status, _, err = _flowcut(*argv, cwd=fw_dir, stdout=fh)
        out = (fw_dir / "report.json").read_bytes()
    assert (status, err) == (0, b"")
    assert out == expected


#: An internal error needs a fault: this runs the ``__main__`` block as
#: ``-m`` does, with the frame check replaced by one that raises.
INTERNAL_ERROR = (
    "import runpy, flowcut.frames\n"
    "def boom(frame):\n"
    "    raise RuntimeError('boom')\n"
    "flowcut.frames.validate_frame = boom\n"
    "runpy.run_module('flowcut.cli', run_name='__main__', alter_sys=True)\n"
)


def test_every_exit_status_comes_through_the_exit_path(fw_dir):
    status, out, err = _flowcut("validate", "frame.yaml", cwd=fw_dir)
    assert (status, out.startswith(b"command: validate\n"), err) == (0, True, b"")
    status, out, err = _flowcut("validate", "bad.yaml", cwd=fw_dir)
    assert (status, b"verdict: FAILS\n" in out, err) == (1, True, b"")
    status, out, err = _flowcut("validate", "missing.yaml", cwd=fw_dir)
    assert (status, out) == (2, b"")
    assert err.startswith(b"error: cannot read missing.yaml: ") and err.count(b"\n") == 1
    status, out, err = _flowcut("validate", "frame.yaml", cwd=fw_dir, code=INTERNAL_ERROR)
    assert (status, out, err) == (3, b"", b"internal error: RuntimeError('boom')\n")


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["check-blur", "--help"], ["nope"], ["check-blur", "frame.yaml", "--blur", "ident"]],
    ids=" ".join,
)
def test_usage_output_through_the_exit_path_is_the_full_parsers(fw_dir, capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    full = capsys.readouterr()
    status, out, err = _flowcut(*argv, cwd=fw_dir)
    assert (status, out.decode(), err.decode()) == (exc.value.code, full.out, full.err)


#: The lines below that name an analysis command with its required arguments.
_TAKEN = [
    ["validate", "f.yaml"],
    ["compose", "a.yaml", "b.yaml", "--core", "L", "--blur", "b", "--source", "s", "--observed", "o"],
]


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["-h"],
        ["--he"],
        ["nope"],
        ["-1"],
        ["", "validate", "f.yaml"],
        ["--", "validate", "f.yaml"],
        ["--json", "validate", "f.yaml"],
        ["validate", "--bogus", "f.yaml"],
        _TAKEN[0],
        ["enumerate", "f.yaml", "--bound", "x"],
        ["ni", "m.yaml", "--target", "d", "--purge", "xx"],
        _TAKEN[1],
        ["scenario"],
        ["scenario", "-h"],
        ["scenario", "voting", "-h"],
        ["scenario", "voting", "--precincts", "2,2", "--json"],
        ["scenario", "firewall", "--filtering", "nope"],
    ],
    ids=repr,
)
def test_the_parser_for_argv_parses_as_the_full_parser(capsys, monkeypatch, argv):
    # ``main`` reads argv with ``_read_args`` and, where that declines, with
    # the full parser, so what argparse prints and its status are the full
    # parser's.  A line the reader takes reads as the full parser reads it,
    # and nothing is printed.
    monkeypatch.setenv("COLUMNS", "80")
    taken = _reads_as_the_full_parser(argv)
    assert capsys.readouterr() == ("", "")
    assert taken == (argv in _TAKEN)


def _namespace(args) -> list:
    """A namespace's entries in order, with each value's type."""
    return [(k, type(v), v) for k, v in vars(args).items()]


def _reads_as_the_full_parser(argv: list[str]) -> bool:
    """Whether ``_read_args`` takes argv; where it does, the full parser
    takes it too, into the same namespace."""
    read = _read_args(argv)
    if read is None:
        return False
    try:
        full = build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"argparse rejects a line the reader takes: {argv!r}")
    assert _namespace(read) == _namespace(full), argv
    return True


#: The ways ``_command_lines`` changes a well-formed line.
_CHANGES = ("abbreviate", "equals", "repeat", "dash", "bad value", "drop", "extra positional")


@st.composite
def _command_lines(draw) -> list[str]:
    """An argv made of a command's own vocabulary: a well-formed line, its
    options in random order, and then up to two changes: an option
    abbreviated, spelled ``--opt=value`` or repeated, help, ``--`` or an
    unknown option added, a value that is an int, a negative int, ``''``,
    ``-``, ``--``, one of the option's choices or random text, an argument
    dropped, or a positional added."""
    command = draw(st.sampled_from([*_COMMANDS, "-h", "--json", ""]))
    _, arguments, _ = _COMMANDS.get(command, (None, "", ""))
    names = f"{_COMMON} {arguments}".split()
    options = [n for n in names if n[0] == "-"]
    choices = [c for n in options for c in _ARGUMENTS.get(n, {}).get("choices", ())]
    anything = st.one_of(
        st.sampled_from(["", "-", "--", "x", "1.5", " 7", "\u0663", *choices]),
        st.integers(-20, 20).map(str),
        st.text(max_size=5),
    )

    def fitting(name: str) -> str:
        settings = _ARGUMENTS.get(name, {})
        if "choices" in settings:
            return draw(st.sampled_from(settings["choices"]))
        if "type" in settings:
            return str(draw(st.integers(0, 20)))
        return draw(st.sampled_from(["f.yaml", "s", "a,b", ""]))

    def spelled(option: str, value: str | None = None) -> list[str]:
        if _ARGUMENTS[option].get("action") == "store_true":
            return [option]
        return [option, fitting(option) if value is None else value]

    positionals = [[fitting(n)] for n in names if n[0] != "-"]
    pieces = [spelled(o) for o in options if _ARGUMENTS[o].get("required") or draw(st.booleans())]
    for change in draw(st.lists(st.sampled_from(_CHANGES), max_size=2)) if options else ():
        option = draw(st.sampled_from(options))
        if change == "abbreviate":
            cut = draw(st.integers(3, len(option) - 1))
            pieces.append([option[:cut], *spelled(option)[1:]])
        elif change == "equals":
            pieces.append([f"{option}={draw(anything)}"])
        elif change == "repeat":
            pieces.append(spelled(option))
        elif change == "dash":
            pieces.append([draw(st.sampled_from(["-h", "--help", "--", "--bogus"]))])
        elif change == "bad value":
            typed = [o for o in options if {"type", "choices"} & set(_ARGUMENTS[o])]
            pieces.append(spelled(draw(st.sampled_from(typed or options)), draw(anything)))
        elif change == "drop" and pieces + positionals:
            parts = draw(st.sampled_from([parts for parts in (pieces, positionals) if parts]))
            parts.pop(draw(st.integers(0, len(parts) - 1)))
        elif change == "extra positional":
            positionals.append([draw(anything)])
    pieces = draw(st.permutations(pieces))
    return [command] + [a for p in positionals + pieces for a in p]


_PURGE_LINE = ["ni", "m.yaml", "--target", "d1", "--purge", "gm", "--bound", "13"]


@settings(max_examples=500, deadline=None)
@given(_command_lines())
# One line for each kind of line the reader leaves to argparse.
@example(_PURGE_LINE + ["-h"])
@example(_PURGE_LINE + ["--help"])
@example(_PURGE_LINE + ["--bou", "4"])
@example(_PURGE_LINE + ["--per-location=2"])
@example(_PURGE_LINE + ["--bound", "4"])
@example(_PURGE_LINE + ["--per-location", "-1"])
@example(_PURGE_LINE + ["--", "--seed", "1"])
@example(_PURGE_LINE + ["--bogus", "1"])
@example(_PURGE_LINE[:1] + _PURGE_LINE[2:])
@example(["validate"])
@example(_PURGE_LINE[:2] + ["extra"] + _PURGE_LINE[2:])
@example(_PURGE_LINE[:2] + _PURGE_LINE[4:])
@example(_PURGE_LINE + ["--seed", "x"])
@example(_PURGE_LINE[:5] + ["xx"] + _PURGE_LINE[6:])
@example(_PURGE_LINE[:-1])
def test_the_reader_takes_only_lines_argparse_reads_alike(argv):
    # A taken line reads as argparse reads it.  A line with a dash-led
    # argument that is not one of the command's options in full (help, an
    # abbreviation, ``--opt=value``, ``--``, a negative number) or with an
    # option twice is declined, even where argparse would read it alike.
    taken = _reads_as_the_full_parser(argv)
    _, arguments, _ = _COMMANDS.get(argv[0], (None, "", ""))
    options = f"{_COMMON} {arguments}".split()
    dashed = [a for a in argv[1:] if a[:1] == "-"]
    if set(dashed) - set(options) or len(set(dashed)) < len(dashed):
        assert not taken, argv


def test_every_benchmark_and_corpus_line_is_read_without_argparse():
    # The benchmark's commands and the golden corpus's analysis commands are
    # what the reader is for: each is taken, and reads as the full parser
    # reads it.  ``scenario`` is always read by argparse.
    from test_reports import CORPUS

    workloads = runpy.run_path(str(ROOT / "perfbench" / "workloads.py"))["WORKLOADS"]
    lines = [list(c.argv) for w in workloads.values() for c in (w.setup, *w.commands)]
    assert len(lines) == 16
    lines += [argv + extra for argv in CORPUS.values() if argv[0] != "scenario" for extra in ([], ["--json"])]
    assert [argv for argv in lines if not _reads_as_the_full_parser(argv)] == []


class _FullDisk:
    def write(self, text):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def flush(self):
        pass


def test_a_report_that_cannot_be_written_exits_2_in_process(frame_file, capsys, monkeypatch):
    monkeypatch.setattr(sys, "stdout", _FullDisk())
    assert main(["validate", frame_file]) == 2
    assert capsys.readouterr().err == "error: cannot write report: [Errno 28] No space left on device\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "fw.yaml", "--bound", "14", "--json"],  # fails while printing
        ["validate", "fw.yaml"],  # fails when main flushes
        ["--help"],  # argparse's help fails only when the process flushes on its way out
    ],
    ids=" ".join,
)
def test_a_report_to_a_closed_pipe_exits_2_on_one_line(fw_dir, argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        status, _, err = _flowcut(*argv, cwd=fw_dir, stdout=write_end)
    finally:
        os.close(write_end)
    assert (status, err) == (2, b"error: cannot write report: [Errno 32] Broken pipe\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
def test_a_report_to_a_full_device_exits_2_on_one_line(fw_dir):
    with open("/dev/full", "wb") as full:
        status, _, err = _flowcut("validate", "fw.yaml", cwd=fw_dir, stdout=full)
    assert (status, err) == (2, b"error: cannot write report: [Errno 28] No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a device that is always full")
@pytest.mark.parametrize(
    "argv, code, full_stdout, expected",
    [
        (["validate", "missing.yaml"], None, False, 2),
        (["validate", "frame.yaml"], INTERNAL_ERROR, False, 3),
        (["validate", "fw.yaml"], None, True, 2),
    ],
    ids=["missing file", "internal error", "full stdout"],
)
def test_an_error_line_that_cannot_be_written_keeps_the_status(fw_dir, argv, code, full_stdout, expected):
    with open("/dev/full", "wb") as full:
        stdout = full if full_stdout else subprocess.PIPE
        status, out, _ = _flowcut(*argv, cwd=fw_dir, stdout=stdout, stderr=full, code=code)
    assert (status, out) == (expected, None if full_stdout else b"")
