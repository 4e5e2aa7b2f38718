from __future__ import annotations

import json

import pytest
import yaml

from flowcut.cli import main
from flowcut.fileformat import (
    FileFormatError,
    _read_subset,
    emit_frame_document,
    parse_frame_document,
    parse_machine_document,
)
from flowcut.scenarios import FirewallParams, VotingParams, build_firewall, build_voting

from support import BROKEN_DOCUMENTS, count_restrictions, downgrader_machine, machine_document

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
    from flowcut.blur import SelectionBlur

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
