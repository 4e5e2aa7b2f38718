"""
Command-line front end.

Every analysis command prints a report (human text by default, a
versioned JSON structure with ``--json``) and signals its verdict through
the exit status: 0 when the property holds or the command succeeded, 1
when the property fails (the counterexample is in the report), 2 for
usage or parse errors, 3 for an internal error.  Reports always carry the
bound and a reminder that verdicts are bound-relative; wall-clock timing
is omitted unless requested so identical inputs produce byte-identical
reports.

Each command is one row of the command table: its name, its function, its
arguments and its help, with each argument's settings in one dict.  Each
analysis command reads its arguments through one ``Query`` (input files,
bound, channel sets, blur, ``params``) and keeps only its analysis and the
details of its report.

Only the file format loads with this module; each command imports the
modules it runs when it runs, so ``validate`` loads no enumeration,
``enumerate`` loads no run type, the purge commands load no frame model
and no run type, and only ``scenario``
loads the scenario builders and the file writer.  For the same reason
``main`` reads a well-formed analysis command line straight from the
command table and imports ``argparse`` only for help, errors and other
spellings, and ``entry``, the process's entry point, ends the process as
soon as the report is flushed.
"""

from __future__ import annotations

import json
import os
import sys
import time
from types import SimpleNamespace
from typing import TYPE_CHECKING, NoReturn

from . import Bound, InputError, _Record
from .fileformat import parse_frame_document, parse_machine_document

if TYPE_CHECKING:
    import argparse

SCHEMA = "flowcut-report/1"
DEFAULT_BOUND = 6


class CliError(InputError):
    """Usage-level failure; maps to exit code 2."""


class Report:
    """A command's result; ``main`` adds the seed and the timing to it."""

    __slots__ = ("command", "params", "verdict", "details", "notes", "bound", "timing_s")
    __repr__ = _Record.__repr__
    __hash__ = None

    def __init__(
        self,
        command: str,
        params: dict,
        verdict: bool | None,
        details: dict,
        notes: list[str] | None = None,
        bound: dict | None = None,
        timing_s: float | None = None,
    ) -> None:
        self.command = command
        self.params = params
        self.verdict = verdict
        self.details = details
        self.notes = [] if notes is None else notes
        self.bound = bound
        self.timing_s = timing_s

    def to_json(self) -> str:
        doc = {
            "schema": SCHEMA,
            "command": self.command,
            "params": self.params,
            "bound": self.bound,
            "verdict": self.verdict,
            "details": self.details,
            "notes": self.notes,
        }
        if self.timing_s is not None:
            doc["timing_s"] = round(self.timing_s, 3)
        return json.dumps(doc, sort_keys=True, indent=2)

    def to_text(self) -> str:
        lines = [f"command: {self.command}"]
        for k, v in sorted(self.params.items()):
            lines.append(f"  {k}: {v}")
        if self.bound is not None:
            lines.append(f"bound: {self.bound}")
        if self.verdict is not None:
            lines.append(f"verdict: {'HOLDS' if self.verdict else 'FAILS'}")
        for k, v in sorted(self.details.items()):
            if isinstance(v, list):
                lines.append(f"{k}:")
                lines.extend(f"  {item}" for item in v)
            else:
                lines.append(f"{k}: {v}")
        for note in self.notes:
            lines.append(f"note: {note}")
        if self.timing_s is not None:
            lines.append(f"timing_s: {round(self.timing_s, 3)}")
        return "\n".join(lines)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


#: Namespace entries that are not arguments a report echoes in ``params``.
_NOT_PARAMS = frozenset({"cmd", "fn", "json", "seed", "timing", "bound", "per_location", "which", "out"})


class Query:
    """An analysis command's arguments, read once.

    The input files are read first, then the bound is built, then the blur
    is looked up, so the first bad one is the error reported.  ``frames``
    holds each frame file's frame (``machine`` the machine file's).  The
    bound and its notes exist only for a command that takes ``--bound``.
    Each set argument becomes the attribute of its name: a named set or a
    comma-separated list, with ``observed`` looked up in the last file's
    named channel sets, the other channel sets in the first file's, and
    ``core`` (locations) in none.
    ``blur`` is the first file's blur named by ``--blur``.
    """

    def __init__(self, args, machine: bool = False) -> None:
        self.command = args.cmd
        paths = [getattr(args, f) for f in ("file", "file1", "file2") if hasattr(args, f)]
        if machine:
            self.machine = parse_machine_document(_read(paths[0]))
        else:
            docs = [parse_frame_document(_read(path)) for path in paths]
            self.frames = [frame for frame, _, _ in docs]
        self.notes: list[str] = []
        self.bound: Bound | None = None
        if hasattr(args, "bound"):
            if args.bound is None:
                self.notes.append(f"no --bound given; defaulting to {DEFAULT_BOUND} total events")
            self.bound = Bound(DEFAULT_BOUND if args.bound is None else args.bound, args.per_location)
            self.notes.append("verdicts are relative to this bound over minimal-order executions")
        self.params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
        for name in ("channels", "source", "cut", "observed", "core"):
            if hasattr(args, name):
                arg = getattr(args, name)
                named = {} if name == "core" else docs[-1 if name == "observed" else 0][1]
                chans = named[arg] if arg in named else frozenset(x for x in arg.split(",") if x)
                setattr(self, name, chans)
                self.params[name] = sorted(chans)
        if hasattr(args, "blur"):
            blurs = docs[0][2]
            if args.blur not in blurs:
                raise CliError(f"unknown blur {args.blur!r}; file declares {sorted(blurs)}")
            self.blur = blurs[args.blur]

    def report(self, verdict: bool | None, details: dict) -> Report:
        bound = None
        if self.bound is not None:
            bound = {
                "max_total_events": self.bound.max_total_events,
                "max_events_per_location": self.bound.max_events_per_location,
            }
        return Report(self.command, self.params, verdict, details, self.notes, bound)


# -- command implementations -------------------------------------------------


def cmd_validate(args) -> Report:
    from .frames import validate_frame

    q = Query(args)
    report = validate_frame(q.frames[0])
    return q.report(report.ok, {"violations": [f"{v.code}: {v.message}" for v in report.violations]})


def cmd_enumerate(args) -> Report:
    from .enumeration import enumerate_executions

    q = Query(args)
    exset = enumerate_executions(q.frames[0], q.bound)
    return q.report(None, {"count": len(exset), "executions": sorted(exset.texts())})


def cmd_runs(args) -> Report:
    from .enumeration import enumerate_runs

    q = Query(args)
    runs = sorted(r.serialize() for r in enumerate_runs(q.frames[0], q.channels, q.bound))
    return q.report(None, {"count": len(runs), "runs": runs})


def cmd_cmpt(args) -> Report:
    from .disclosure import CompatQuery, compatible_runs
    from .enumeration import enumerate_runs
    from .events import CanonicalRun

    q = Query(args)
    runs = sorted(enumerate_runs(q.frames[0], q.observed, q.bound), key=CanonicalRun.serialize)
    if not (0 <= args.run_index < len(runs)):
        raise CliError(
            f"--run-index {args.run_index} out of range; {len(runs)} observed runs exist"
        )
    target = runs[args.run_index]
    compat = compatible_runs(q.frames[0], CompatQuery(q.observed, q.source, target, q.bound))
    return q.report(
        None,
        {
            "observed_run": target.serialize(),
            "count": len(compat),
            "compatible": sorted(r.serialize() for r in compat),
        },
    )


def cmd_nodisclosure(args) -> Report:
    from .disclosure import no_disclosure

    q = Query(args)
    res = no_disclosure(q.frames[0], q.observed, q.source, q.bound)
    details: dict = {}
    if res.counterexample is not None:
        b, b2 = res.counterexample
        details["counterexample_observed"] = b.serialize()
        details["counterexample_source"] = b2.serialize()
    return q.report(res.holds, details)


def cmd_check_blur(args) -> Report:
    from .blur import f_limits_flow

    q = Query(args)
    res = f_limits_flow(q.frames[0], q.source, q.observed, q.blur, q.bound)
    laws = res.laws
    details: dict = {
        "blur_laws": {
            "inclusion": laws.inclusion_ok,
            "idempotence": laws.idempotence_ok,
            "union": laws.union_ok,
            "partition_generated": laws.partition_generated,
        }
    }
    if not res.holds:
        details["failing_observed"] = res.failing_observed.serialize()
        details["unblurred"] = res.unblurred.serialize()
    return q.report(res.holds and laws.is_blur, details)


def cmd_check_cut(args) -> Report:
    from .cuts import ChannelSetTriple, is_cut

    q = Query(args)
    res = is_cut(q.frames[0], ChannelSetTriple(q.source, q.cut, q.observed))
    details: dict = {}
    if res.witness is not None:
        details["witness_locations"] = list(res.witness.locations)
        details["witness_channels"] = list(res.witness.channels)
    return q.report(res.is_cut, details)


def cmd_min_cut(args) -> Report:
    from .cuts import find_min_cut

    q = Query(args)
    res = find_min_cut(q.frames[0], q.source, q.observed)
    details: dict = {}
    if res.impossible:
        details["impossible"] = res.reason
    else:
        details["cut"] = sorted(res.cut or ())
    return q.report(not res.impossible, details)


def cmd_verify_cutblur(args) -> Report:
    from .blur import verify_cut_blur
    from .cuts import ChannelSetTriple

    q = Query(args)
    triple = ChannelSetTriple(q.source, q.cut, q.observed)
    res = verify_cut_blur(q.frames[0], triple, q.blur, q.bound)
    if not res.implication_holds:
        q.notes.append(
            "implication failed: this indicates an implementation bug, not a refuted theorem"
        )
    return q.report(
        res.antecedent.holds and res.consequent.holds,
        {
            "antecedent_source_to_cut": res.antecedent.holds,
            "consequent_source_to_observed": res.consequent.holds,
            "implication": res.implication_holds,
        },
    )


def cmd_compose(args) -> Report:
    from .blur import build_shared_core, verify_composition

    q = Query(args)
    core = build_shared_core(*q.frames, q.core, q.bound)
    res = verify_composition(core, q.source, q.observed, q.blur)
    return q.report(
        res.antecedent.holds and res.consequent.holds and res.locality_ok,
        {
            "cut0": sorted(core.cut0),
            "left0": sorted(core.left0),
            "right2": sorted(core.right2),
            "run_inclusion": core.run_inclusion_ok,
            "antecedent_source_to_cut0_in_frame1": res.antecedent.holds,
            "consequent_source_to_observed_in_frame2": res.consequent.holds,
            "boundary_locality": res.locality_ok,
        },
    )


def cmd_ni_nd(args) -> Report:
    """``ni`` and ``nd``: one purge check each, witnessed by two words,
    printed as the runs they stand for."""
    from .purge import PurgeKind, nd_witness, ni_witness, word_texts

    q = Query(args, machine=True)
    if args.cmd == "ni":
        find, keys = ni_witness, ("witness_inputs_1", "witness_inputs_2")
    else:
        find, keys = nd_witness, ("witness_view", "witness_inputs")
    witness = find(q.machine, PurgeKind(args.purge, args.target), q.bound)
    details: dict = {}
    if witness is not None:
        details.update(zip(keys, map(word_texts(), witness)))
    return q.report(witness is None, details)


def cmd_purge_blur(args) -> Report:
    from .purge import PurgeKind, input_classes, word_texts

    q = Query(args, machine=True)
    text = word_texts()
    classes = input_classes(q.machine, PurgeKind(args.purge, args.target), q.bound)
    blocks = [sorted(map(text, block)) for block in classes]
    return q.report(None, {"classes": sorted(blocks), "class_count": len(blocks)})


def cmd_scenario(args) -> Report:
    from .emitter import emit_frame_document
    from .scenarios import FirewallParams, VotingParams, build_firewall, build_voting

    if args.which == "firewall":
        scn = build_firewall(
            FirewallParams(filtering=args.filtering, region_sends=args.region_sends)
        )
    else:
        try:
            precincts = tuple(int(x) for x in args.precincts.split(","))
        except ValueError:
            raise CliError(
                f"--precincts takes comma-separated voter counts, got {args.precincts!r}"
            ) from None
        candidates = tuple(args.candidates.split(","))
        scn = build_voting(VotingParams(precincts=precincts, candidates=candidates))
    text = emit_frame_document(scn.frame, scn.named_sets, scn.blurs)
    if args.out:
        try:
            with open(args.out, "w") as f:
                f.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}") from exc
        detail = {"written": args.out}
    else:
        detail = {"document": text}
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMS}
    return Report(f"scenario {args.which}", params, None, detail)


# -- argument parsing ----------------------------------------------------------

#: ``add_argument`` settings by argument; an argument not listed takes
#: argparse's defaults.
_ARGUMENTS = {
    "--json": {"action": "store_true", "help": "structured report output"},
    "--seed": {"type": int, "help": "seed echoed into the report"},
    "--timing": {"action": "store_true", "help": "include wall-clock timing"},
    "--channels": {"required": True},
    "--observed": {"required": True},
    "--source": {"required": True},
    "--cut": {"required": True},
    "--blur": {"required": True},
    "--target": {"required": True},
    "--core": {"required": True, "help": "comma-separated shared locations"},
    "--run-index": {"type": int, "default": 0},
    "--purge": {"choices": ("gm", "hy"), "default": "gm"},
    "--bound": {"type": int, "help": "max total events (default 6)"},
    "--per-location": {"type": int},
    "--filtering": {"choices": ("standard", "discard_all"), "default": "standard"},
    "--region-sends": {"type": int, "default": 1},
    "--precincts": {"default": "2"},
    "--candidates": {"default": "0,1"},
}
#: The arguments every command takes, ahead of its own.
_COMMON = "--json --seed --timing"
_BOUND = " --bound --per-location"
_PURGE = "file --target --purge" + _BOUND

#: The command table: name -> (function name, arguments, help).  A function
#: is looked up by name when a command line is read, so a command function
#: replaced on the module after import is the one that runs.
_COMMANDS = {
    "validate": ("cmd_validate", "file", "well-formedness of a frame file"),
    "enumerate": ("cmd_enumerate", "file" + _BOUND, "all bounded executions"),
    "runs": ("cmd_runs", "file --channels" + _BOUND, "local runs at a channel set"),
    "cmpt": ("cmd_cmpt", "file --observed --source --run-index" + _BOUND,
             "compatibility set of an observed run"),
    "nodisclosure": ("cmd_nodisclosure", "file --source --observed" + _BOUND,
                     "no-disclosure between two channel sets"),
    "check-blur": ("cmd_check_blur", "file --blur --source --observed" + _BOUND,
                   "blur-limited flow from source to observed"),
    "check-cut": ("cmd_check_cut", "file --source --cut --observed", "is the channel set a cut"),
    "min-cut": ("cmd_min_cut", "file --source --observed", "minimum channel cut between two sets"),
    "verify-cutblur": ("cmd_verify_cutblur", "file --blur --source --cut --observed" + _BOUND,
                       "cut-blur transport of a flow limit"),
    "compose": ("cmd_compose", "file1 file2 --core --blur --source --observed" + _BOUND,
                "transport a flow limit across a shared core"),
    "ni": ("cmd_ni_nd", _PURGE, "purge-based noninterference"),
    "nd": ("cmd_ni_nd", _PURGE, "purge-based nondeducibility"),
    "purge-blur": ("cmd_purge_blur", _PURGE, "the blur a purge induces on input runs"),
    "scenario": (None, "", "emit a frame file for a built-in scenario"),
}


def build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built from the command table.  It is the
    parser of record: ``main`` runs it for ``--help``, for every usage error
    and for any spelling that ``_read_args`` leaves to it."""
    import argparse

    top = argparse.ArgumentParser(
        prog="flowcut",
        description="Brute-force information-flow analysis of message-passing frames",
    )
    common = argparse.ArgumentParser(add_help=False)
    for arg in _COMMON.split():
        common.add_argument(arg, **_ARGUMENTS[arg])
    sub = top.add_subparsers(dest="cmd", required=True, parser_class=argparse.ArgumentParser)

    def add(parent, name: str, fn, arguments: str, **kwargs) -> None:
        p = parent.add_parser(name, parents=[common], **kwargs)
        for arg in arguments.split():
            p.add_argument(arg, **_ARGUMENTS.get(arg, {}))
        p.set_defaults(fn=fn)

    for name, (fn_name, arguments, help_text) in _COMMANDS.items():
        if fn_name is not None:
            add(sub, name, globals()[fn_name], arguments, help=help_text)
        else:
            p = sub.add_parser(name, help=help_text, parents=[common])
            scn_sub = p.add_subparsers(dest="which", required=True)
            add(scn_sub, "firewall", cmd_scenario, "--filtering --region-sends --out")
            add(scn_sub, "voting", cmd_scenario, "--precincts --candidates --out")
    return top


def _read_args(argv: list[str]) -> SimpleNamespace | None:
    """What ``build_parser().parse_args(argv)`` gives a well-formed analysis
    command line, read from the command table without argparse; None for
    any other line, which argparse then reads.

    The line taken is the command, exactly its positionals, and then each
    option at most once, spelled in full: ``--name value``, or a bare
    ``--json`` or ``--timing``.  No positional or value starts with ``-``,
    an ``int`` value is read by ``int()`` and a value with choices is one of
    them.  Help, an abbreviation, ``--name=value``, a repeated option, a
    value that fails and a missing required option are all left to
    argparse, so every message it prints is its own."""
    row = _COMMANDS.get(argv[0]) if argv else None
    if row is None or row[0] is None:
        return None
    fn_name, arguments, _ = row
    names = f"{_COMMON} {arguments}".split()
    positionals = [name for name in names if name[0] != "-"]
    given = dict(zip(positionals, argv[1:]))
    if len(given) < len(positionals) or any(value[:1] == "-" for value in given.values()):
        return None
    rest = iter(argv[1 + len(positionals):])
    for option in rest:
        if option[:2] != "--" or option not in names or option in given:
            return None
        settings = _ARGUMENTS.get(option, {})
        if settings.get("action") == "store_true":
            given[option] = True
            continue
        value = next(rest, "-")  # no value left: argparse says so
        if value[:1] == "-":
            return None
        if "type" in settings:
            try:
                value = settings["type"](value)
            except ValueError:
                return None
        if value not in settings.get("choices", (value,)):
            return None
        given[option] = value
    # In argparse's order: the command, each argument, then the function.
    namespace = {"cmd": argv[0]}
    for name in names:
        settings = _ARGUMENTS.get(name, {})
        if name not in given and settings.get("required"):
            return None
        default = False if settings.get("action") == "store_true" else settings.get("default")
        namespace[name.lstrip("-").replace("-", "_")] = given.get(name, default)
    namespace["fn"] = globals()[fn_name]
    return SimpleNamespace(**namespace)


def _error(line: str) -> None:
    """Print one line to stderr.  A stderr that cannot be written loses the
    line, never the exit status, which still tells what happened."""
    try:
        print(line, file=sys.stderr)
    except OSError:
        pass


def _unwritten(exc: OSError) -> int:
    _error(f"error: cannot write report: {exc}")
    return 2


def main(argv: list[str] | None = None) -> int:
    """Run one command and return its exit status; never ends the process."""
    if argv is None:
        argv = sys.argv[1:]
    args = _read_args(argv)
    if args is None:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
    started = time.monotonic()
    try:
        report: Report = args.fn(args)
    except InputError as exc:
        _error(f"error: {exc}")
        return 2
    except Exception as exc:  # a bug, not a verdict: keep it off exit 1
        _error(f"internal error: {exc!r}")
        return 3
    if args.seed is not None:
        report.params["seed"] = args.seed
    if args.timing:
        report.timing_s = time.monotonic() - started
    try:
        print(report.to_json() if args.json else report.to_text(), flush=True)
    except OSError as exc:  # a closed pipe or a full disk, not a verdict
        return _unwritten(exc)
    if report.verdict is None:
        return 0
    return 0 if report.verdict else 1


def entry() -> NoReturn:
    """The ``flowcut`` command: ``main``, then end the process at once.

    Interpreter finalization frees every module and object, which no report
    needs, so the process ends by ``os._exit`` once stdout and stderr are
    flushed.  A stdout flush that fails exits 2, like a failed write in
    ``main``; a stderr flush that fails leaves the status as it is.
    """
    status = main()
    try:
        sys.stdout.flush()
    except OSError as exc:
        # After a write that ``main`` has reported, the unwritten report is
        # still buffered and fails again here: report it once.
        status = 2 if status == 2 else _unwritten(exc)
    try:
        sys.stderr.flush()
    except OSError:
        pass  # an error line ``_error`` could not write is still buffered
    os._exit(status)


if __name__ == "__main__":
    entry()
