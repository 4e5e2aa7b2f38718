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

Only the file format and ``frames`` load with this module; each command
imports the analysis modules it runs when it runs, so ``validate`` loads
no enumeration and only ``scenario`` loads the scenario builders.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from .fileformat import (
    emit_frame_document,
    parse_frame_document,
    parse_machine_document,
)
from .frames import InputError, _Record, validate_frame

if TYPE_CHECKING:
    from .enumeration import Bound
    from .purge import PurgeKind

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
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise CliError(f"cannot read {path}: {exc}") from exc


def _load_frame(path: str):
    return parse_frame_document(_read(path))


def _load_machine(path: str):
    return parse_machine_document(_read(path))


def _resolve_set(arg: str, named: dict[str, frozenset[str]]) -> frozenset[str]:
    if arg in named:
        return named[arg]
    return frozenset(x for x in arg.split(",") if x)


def _bound(args) -> tuple[Bound, list[str]]:
    from .enumeration import Bound

    notes = []
    if args.bound is None:
        notes.append(
            f"no --bound given; defaulting to {DEFAULT_BOUND} total events"
        )
        total = DEFAULT_BOUND
    else:
        total = args.bound
    per = getattr(args, "per_location", None)
    bound = Bound(total, per)
    notes.append(
        "verdicts are relative to this bound over minimal-order executions"
    )
    return bound, notes


def _bound_dict(bound: Bound) -> dict:
    return {
        "max_total_events": bound.max_total_events,
        "max_events_per_location": bound.max_events_per_location,
    }


# -- command implementations -------------------------------------------------


def cmd_validate(args) -> Report:
    frame, _, _ = _load_frame(args.file)
    report = validate_frame(frame)
    return Report(
        command="validate",
        params={"file": args.file},
        verdict=report.ok,
        details={"violations": [f"{v.code}: {v.message}" for v in report.violations]},
    )


def cmd_enumerate(args) -> Report:
    from .enumeration import enumerate_executions

    frame, _, _ = _load_frame(args.file)
    bound, notes = _bound(args)
    exset = enumerate_executions(frame, bound)
    return Report(
        command="enumerate",
        params={"file": args.file},
        verdict=None,
        details={
            "count": len(exset),
            "executions": sorted(c.serialize() for c in exset.canonicals),
        },
        notes=notes,
        bound=_bound_dict(bound),
    )


def cmd_runs(args) -> Report:
    from .enumeration import enumerate_runs
    from .events import CanonicalRun

    frame, named, _ = _load_frame(args.file)
    bound, notes = _bound(args)
    chans = _resolve_set(args.channels, named)
    runs = sorted(enumerate_runs(frame, chans, bound), key=CanonicalRun.serialize)
    return Report(
        command="runs",
        params={"file": args.file, "channels": sorted(chans)},
        verdict=None,
        details={"count": len(runs), "runs": [r.serialize() for r in runs]},
        notes=notes,
        bound=_bound_dict(bound),
    )


def cmd_cmpt(args) -> Report:
    from .disclosure import CompatQuery, compatible_runs
    from .enumeration import enumerate_runs
    from .events import CanonicalRun

    frame, named, _ = _load_frame(args.file)
    bound, notes = _bound(args)
    observed = _resolve_set(args.observed, named)
    source = _resolve_set(args.source, named)
    runs = sorted(enumerate_runs(frame, observed, bound), key=CanonicalRun.serialize)
    if not (0 <= args.run_index < len(runs)):
        raise CliError(
            f"--run-index {args.run_index} out of range; {len(runs)} observed runs exist"
        )
    target = runs[args.run_index]
    compat = compatible_runs(frame, CompatQuery(observed, source, target, bound))
    return Report(
        command="cmpt",
        params={
            "file": args.file,
            "observed": sorted(observed),
            "source": sorted(source),
            "run_index": args.run_index,
        },
        verdict=None,
        details={
            "observed_run": target.serialize(),
            "count": len(compat),
            "compatible": sorted(r.serialize() for r in compat),
        },
        notes=notes,
        bound=_bound_dict(bound),
    )


def cmd_nodisclosure(args) -> Report:
    from .disclosure import no_disclosure

    frame, named, _ = _load_frame(args.file)
    bound, notes = _bound(args)
    source = _resolve_set(args.source, named)
    observed = _resolve_set(args.observed, named)
    res = no_disclosure(frame, observed, source, bound)
    details: dict = {}
    if res.counterexample is not None:
        b, b2 = res.counterexample
        details["counterexample_observed"] = b.serialize()
        details["counterexample_source"] = b2.serialize()
    return Report(
        command="nodisclosure",
        params={"file": args.file, "source": sorted(source), "observed": sorted(observed)},
        verdict=res.holds,
        details=details,
        notes=notes,
        bound=_bound_dict(bound),
    )


def _named_blur(args, blurs):
    if args.blur not in blurs:
        raise CliError(f"unknown blur {args.blur!r}; file declares {sorted(blurs)}")
    return blurs[args.blur]


def cmd_check_blur(args) -> Report:
    from .blur import f_limits_flow

    frame, named, blurs = _load_frame(args.file)
    bound, notes = _bound(args)
    source = _resolve_set(args.source, named)
    observed = _resolve_set(args.observed, named)
    blur = _named_blur(args, blurs)
    res = f_limits_flow(frame, source, observed, blur, bound)
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
    return Report(
        command="check-blur",
        params={
            "file": args.file,
            "blur": args.blur,
            "source": sorted(source),
            "observed": sorted(observed),
        },
        verdict=res.holds and laws.is_blur,
        details=details,
        notes=notes,
        bound=_bound_dict(bound),
    )


def cmd_check_cut(args) -> Report:
    from .cuts import ChannelSetTriple, is_cut

    frame, named, _ = _load_frame(args.file)
    triple = ChannelSetTriple(
        _resolve_set(args.source, named),
        _resolve_set(args.cut, named),
        _resolve_set(args.observed, named),
    )
    res = is_cut(frame, triple)
    details: dict = {}
    if res.witness is not None:
        details["witness_locations"] = list(res.witness.locations)
        details["witness_channels"] = list(res.witness.channels)
    return Report(
        command="check-cut",
        params={
            "file": args.file,
            "source": sorted(triple.source),
            "cut": sorted(triple.cut),
            "observed": sorted(triple.sink),
        },
        verdict=res.is_cut,
        details=details,
    )


def cmd_min_cut(args) -> Report:
    from .cuts import find_min_cut

    frame, named, _ = _load_frame(args.file)
    source = _resolve_set(args.source, named)
    observed = _resolve_set(args.observed, named)
    res = find_min_cut(frame, source, observed)
    details: dict = {}
    if res.impossible:
        details["impossible"] = res.reason
    else:
        details["cut"] = sorted(res.cut or ())
    return Report(
        command="min-cut",
        params={"file": args.file, "source": sorted(source), "observed": sorted(observed)},
        verdict=not res.impossible,
        details=details,
    )


def cmd_verify_cutblur(args) -> Report:
    from .blur import verify_cut_blur
    from .cuts import ChannelSetTriple

    frame, named, blurs = _load_frame(args.file)
    bound, notes = _bound(args)
    triple = ChannelSetTriple(
        _resolve_set(args.source, named),
        _resolve_set(args.cut, named),
        _resolve_set(args.observed, named),
    )
    blur = _named_blur(args, blurs)
    res = verify_cut_blur(frame, triple, blur, bound)
    if not res.implication_holds:
        notes.append(
            "implication failed: this indicates an implementation bug, not a refuted theorem"
        )
    return Report(
        command="verify-cutblur",
        params={
            "file": args.file,
            "blur": args.blur,
            "source": sorted(triple.source),
            "cut": sorted(triple.cut),
            "observed": sorted(triple.sink),
        },
        verdict=res.antecedent.holds and res.consequent.holds,
        details={
            "antecedent_source_to_cut": res.antecedent.holds,
            "consequent_source_to_observed": res.consequent.holds,
            "implication": res.implication_holds,
        },
        notes=notes,
        bound=_bound_dict(bound),
    )


def cmd_compose(args) -> Report:
    from .blur import build_shared_core, verify_composition

    frame1, named1, blurs1 = _load_frame(args.file1)
    frame2, named2, _ = _load_frame(args.file2)
    bound, notes = _bound(args)
    core_locs = frozenset(x for x in args.core.split(",") if x)
    source = _resolve_set(args.source, named1)
    observed = _resolve_set(args.observed, named2)
    blur = _named_blur(args, blurs1)
    core = build_shared_core(frame1, frame2, core_locs, bound)
    res = verify_composition(core, source, observed, blur, bound)
    return Report(
        command="compose",
        params={
            "file1": args.file1,
            "file2": args.file2,
            "core": sorted(core_locs),
            "blur": args.blur,
            "source": sorted(source),
            "observed": sorted(observed),
        },
        verdict=res.antecedent.holds and res.consequent.holds and res.locality_ok,
        details={
            "cut0": sorted(core.cut0),
            "left0": sorted(core.left0),
            "right2": sorted(core.right2),
            "run_inclusion": core.run_inclusion_ok,
            "antecedent_source_to_cut0_in_frame1": res.antecedent.holds,
            "consequent_source_to_observed_in_frame2": res.consequent.holds,
            "boundary_locality": res.locality_ok,
        },
        notes=notes,
        bound=_bound_dict(bound),
    )


def _purge_args(args) -> PurgeKind:
    from .purge import PurgeKind

    return PurgeKind(args.purge, args.target)


def cmd_ni(args) -> Report:
    from .purge import check_ni

    machine = _load_machine(args.file)
    bound, notes = _bound(args)
    kind = _purge_args(args)
    res = check_ni(machine, kind, bound)
    details: dict = {}
    if res.witness is not None:
        details["witness_inputs_1"] = res.witness[0].serialize()
        details["witness_inputs_2"] = res.witness[1].serialize()
    return Report(
        command="ni",
        params={"file": args.file, "purge": args.purge, "target": args.target},
        verdict=res.holds,
        details=details,
        notes=notes,
        bound=_bound_dict(bound),
    )


def cmd_nd(args) -> Report:
    from .purge import check_nd

    machine = _load_machine(args.file)
    bound, notes = _bound(args)
    kind = _purge_args(args)
    res = check_nd(machine, kind, bound)
    details: dict = {}
    if res.witness is not None:
        details["witness_view"] = res.witness[0].serialize()
        details["witness_inputs"] = res.witness[1].serialize()
    return Report(
        command="nd",
        params={"file": args.file, "purge": args.purge, "target": args.target},
        verdict=res.holds,
        details=details,
        notes=notes,
        bound=_bound_dict(bound),
    )


def cmd_purge_blur(args) -> Report:
    from .purge import purge_blur

    machine = _load_machine(args.file)
    bound, notes = _bound(args)
    kind = _purge_args(args)
    blur = purge_blur(machine, kind, bound)
    blocks = [sorted(r.serialize() for r in block) for block in blur.blocks]
    return Report(
        command="purge-blur",
        params={"file": args.file, "purge": args.purge, "target": args.target},
        verdict=None,
        details={"classes": sorted(blocks), "class_count": len(blocks)},
        notes=notes,
        bound=_bound_dict(bound),
    )


def cmd_scenario(args) -> Report:
    from .scenarios import FirewallParams, VotingParams, build_firewall, build_voting

    if args.which == "firewall":
        scn = build_firewall(
            FirewallParams(filtering=args.filtering, region_sends=args.region_sends)
        )
        frame, named, blurs = scn.frame, scn.named_sets, scn.blurs
    else:
        try:
            precincts = tuple(int(x) for x in args.precincts.split(","))
        except ValueError:
            raise CliError(
                f"--precincts takes comma-separated voter counts, got {args.precincts!r}"
            ) from None
        candidates = tuple(args.candidates.split(","))
        scn = build_voting(VotingParams(precincts=precincts, candidates=candidates))
        frame, named, blurs = scn.frame, scn.named_sets, scn.blurs
    text = emit_frame_document(frame, named, blurs)
    if args.out:
        Path(args.out).write_text(text)
        detail = {"written": args.out}
    else:
        detail = {"document": text}
    return Report(
        command=f"scenario {args.which}",
        params={
            k: v
            for k, v in vars(args).items()
            if k in ("filtering", "precincts", "candidates", "region_sends") and v is not None
        },
        verdict=None,
        details=detail,
    )


# -- argument parsing ----------------------------------------------------------


def _add_bound_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bound", type=int, default=None, help="max total events (default 6)")
    p.add_argument("--per-location", type=int, default=None, dest="per_location")


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="flowcut",
        description="Brute-force information-flow analysis of message-passing frames",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", help="structured report output")
    common.add_argument("--seed", type=int, default=None, help="seed echoed into the report")
    common.add_argument("--timing", action="store_true", help="include wall-clock timing")
    sub = top.add_subparsers(dest="cmd", required=True, parser_class=argparse.ArgumentParser)

    def add_parser(name: str, help_text: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, help=help_text, parents=[common])

    p = add_parser("validate", "well-formedness of a frame file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = add_parser("enumerate", "all bounded executions")
    p.add_argument("file")
    _add_bound_args(p)
    p.set_defaults(fn=cmd_enumerate)

    p = add_parser("runs", "local runs at a channel set")
    p.add_argument("file")
    p.add_argument("--channels", required=True)
    _add_bound_args(p)
    p.set_defaults(fn=cmd_runs)

    p = add_parser("cmpt", "compatibility set of an observed run")
    p.add_argument("file")
    p.add_argument("--observed", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--run-index", type=int, default=0, dest="run_index")
    _add_bound_args(p)
    p.set_defaults(fn=cmd_cmpt)

    p = add_parser("nodisclosure", "no-disclosure between two channel sets")
    p.add_argument("file")
    p.add_argument("--source", required=True)
    p.add_argument("--observed", required=True)
    _add_bound_args(p)
    p.set_defaults(fn=cmd_nodisclosure)

    p = add_parser("check-blur", "blur-limited flow from source to observed")
    p.add_argument("file")
    p.add_argument("--blur", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--observed", required=True)
    _add_bound_args(p)
    p.set_defaults(fn=cmd_check_blur)

    p = add_parser("check-cut", "is the channel set a cut")
    p.add_argument("file")
    p.add_argument("--source", required=True)
    p.add_argument("--cut", required=True)
    p.add_argument("--observed", required=True)
    p.set_defaults(fn=cmd_check_cut)

    p = add_parser("min-cut", "minimum channel cut between two sets")
    p.add_argument("file")
    p.add_argument("--source", required=True)
    p.add_argument("--observed", required=True)
    p.set_defaults(fn=cmd_min_cut)

    p = add_parser("verify-cutblur", "cut-blur transport of a flow limit")
    p.add_argument("file")
    p.add_argument("--blur", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--cut", required=True)
    p.add_argument("--observed", required=True)
    _add_bound_args(p)
    p.set_defaults(fn=cmd_verify_cutblur)

    p = add_parser("compose", "transport a flow limit across a shared core")
    p.add_argument("file1")
    p.add_argument("file2")
    p.add_argument("--core", required=True, help="comma-separated shared locations")
    p.add_argument("--blur", required=True)
    p.add_argument("--source", required=True)
    p.add_argument("--observed", required=True)
    _add_bound_args(p)
    p.set_defaults(fn=cmd_compose)

    for name, fn, text in (
        ("ni", cmd_ni, "purge-based noninterference"),
        ("nd", cmd_nd, "purge-based nondeducibility"),
    ):
        p = add_parser(name, text)
        p.add_argument("file")
        p.add_argument("--target", required=True)
        p.add_argument("--purge", choices=("gm", "hy"), default="gm")
        _add_bound_args(p)
        p.set_defaults(fn=fn)

    p = add_parser("purge-blur", "the blur a purge induces on input runs")
    p.add_argument("file")
    p.add_argument("--target", required=True)
    p.add_argument("--purge", choices=("gm", "hy"), default="gm")
    _add_bound_args(p)
    p.set_defaults(fn=cmd_purge_blur)

    p = add_parser("scenario", "emit a frame file for a built-in scenario")
    scn_sub = p.add_subparsers(dest="which", required=True)
    pf = scn_sub.add_parser("firewall", parents=[common])
    pf.add_argument("--filtering", choices=("standard", "discard_all"), default="standard")
    pf.add_argument("--region-sends", type=int, default=1, dest="region_sends")
    pf.add_argument("--out", default=None)
    pf.set_defaults(fn=cmd_scenario)
    pv = scn_sub.add_parser("voting", parents=[common])
    pv.add_argument("--precincts", default="2")
    pv.add_argument("--candidates", default="0,1")
    pv.add_argument("--out", default=None)
    pv.set_defaults(fn=cmd_scenario)

    return top


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    started = time.monotonic()
    try:
        report: Report = args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a verdict: keep it off exit 1
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 3
    if args.seed is not None:
        report.params["seed"] = args.seed
    if args.timing:
        report.timing_s = time.monotonic() - started
    print(report.to_json() if args.json else report.to_text())
    if report.verdict is None:
        return 0
    return 0 if report.verdict else 1


if __name__ == "__main__":
    sys.exit(main())
