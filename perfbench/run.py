"""
End-to-end and per-module benchmark of the flowcut CLI.

Usage, from the root of a flowcut checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in ``perfbench/workloads.py`` or ``all``.
Each workload is a fixed list of ``flowcut <cmd> ... --json`` commands on
generated or checked-in input files.  One benchmark process runs the commands
one at a time, each in a fresh interpreter (a closed loop with one client),
so every command pays interpreter start-up and imports as a user does.
The seed shuffles the command order of every pass and is passed to the CLI
as ``--seed``; the program sees only the input files.

A run:
  1. writes the inputs to ``.perfbench_work/<workload>/`` and, once per
     checkout, records whether each bound is exact (untimed);
  2. after one untimed warm-up, runs shuffled passes over the command list
     until ``--seconds`` have passed (the first pass always completes; later
     ones stop at the deadline), precedes every other pass with an
     invocation that enumerates nothing, and takes at least
     ``SETUP_REPEATS`` of those invocations (``setup_s`` is their median;
     ``wall_s`` sums each command's median, ``wall_ref`` divides it by the
     median time of a fixed reference work timed before and after every
     command, ``peak_rss_mb`` is the largest of the commands' median peak
     RSS);
  3. with ``--trace 1``, adds one traced pass (``tracecmd.py``) and turns
     its spans into per-module metrics; the end-to-end numbers always come
     from untraced passes.

Every command's exit status, verdict and gated report values are checked
against the expected answers; a crash counts as an error.  The last line
of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The full record (environment, per-command wall and CPU
time, peak RSS, page faults, layer split) is written under
``.perfbench_work/records/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

from workloads import WORKLOADS, Command, Workload  # noqa: E402

SETUP_REPEATS = 5
REFERENCE_ENTRIES = 40_000
WORK_DIR = ".perfbench_work"

LAYERS = (
    "cli",
    "fileformat",
    "frames",
    "enumeration",
    "events",
    "disclosure",
    "blur",
    "cuts",
    "purge",
    "scenarios",
)

#: end-to-end metrics: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_ref": ("ref", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: per-layer metrics of the traced pass: name -> (unit, better)
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    **{f"{layer}.calls": ("count", "lower") for layer in LAYERS},
    "cli.import_s": ("s", "lower"),
    "cli.overhead_s": ("s", "lower"),
    "fileformat.parse_s": ("s", "lower"),
    "fileformat.doc_bytes": ("bytes", "lower"),
    "frames.validate_s": ("s", "lower"),
    "frames.lts_transitions": ("count", "lower"),
    "enumeration.executions": ("count", "lower"),
    "enumeration.executions_per_s": ("1/s", "higher"),
    "enumeration.rss_delta_mb": ("MB", "lower"),
    "events.canonicalize_calls": ("count", "lower"),
    "events.canonicalize_per_execution": ("ratio", "lower"),
    "events.restrict_calls": ("count", "lower"),
    "disclosure.observed_runs": ("count", "lower"),
    "blur.apply_calls": ("count", "lower"),
    "blur.universe_runs": ("count", "lower"),
    "purge.rows": ("count", "lower"),
    "purge.classes": ("count", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def reference_s() -> float:
    """Wall time of a fixed piece of pure-Python work, run in this process:
    filling and probing a dict of tuples and strings a few MB large, the
    kind of work the program's tables do.  It shares no code with flowcut,
    so its median time over a run measures how fast the host ran then."""
    t0 = time.perf_counter()
    table = {}
    for i in range(REFERENCE_ENTRIES):
        key = (i * 2654435761) % 1000003
        table[key] = (key, str(key), i)
    hits = 0
    for i in range(REFERENCE_ENTRIES):
        hits += (i * 40503) % 1000003 in table
    return time.perf_counter() - t0


class BenchError(Exception):
    """The benchmark cannot run here (no source tree, an input failed to build)."""


# -- running commands ------------------------------------------------------------


class Runner:
    def __init__(self, root: Path, work: Path, seed: int):
        self.root = root
        self.work = work
        self.seed = seed
        path = [str(root / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.attempted = 0
        self.failed = 0
        #: times of the reference work, one before and one after every command
        self.reference: list[float] = []

    def spawn(self, argv: list[str], out: Path, err: Path) -> dict:
        """Run one child to completion; time it and read its rusage."""
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.work, env=self.env, stdout=fo, stderr=fe)
            _, status, ru = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "user_s": ru.ru_utime,
            "sys_s": ru.ru_stime,
            "maxrss_mb": ru.ru_maxrss / 1024.0,
            "minflt": ru.ru_minflt,
            "majflt": ru.ru_majflt,
            "exit_code": proc.returncode,
        }

    def command(self, cmd: Command, prefix: list[str], tag: str) -> dict:
        argv = prefix + list(cmd.argv) + ["--json", "--seed", str(self.seed)]
        out = self.work / f"{tag}.out"
        self.reference.append(reference_s())
        rec = self.spawn(argv, out, self.work / f"{tag}.err")
        self.reference.append(reference_s())
        rec["command"] = cmd.name
        rec["tag"] = tag
        rec["problem"] = check_answer(cmd, rec["exit_code"], out)
        self.attempted += 1
        if rec["problem"] is not None:
            self.failed += 1
        return rec

    def cli(self, cmd: Command, tag: str) -> dict:
        return self.command(cmd, [sys.executable, "-m", "flowcut.cli"], tag)

    def run_pass(
        self, commands: list[Command], index: int, traced: bool = False, until: float | None = None
    ) -> dict:
        """Run the commands in order; with ``until``, start none after that
        ``perf_counter`` time, so a pass may end early."""
        recs = []
        for cmd in commands:
            if until is not None and time.perf_counter() >= until:
                break
            tag = f"{'trace' if traced else 'pass'}{index}-{cmd.name}"
            if traced:
                prefix = [
                    sys.executable, "-X", "importtime",
                    str(HERE / "tracecmd.py"), str(self.work / f"{tag}.spans"),
                ]
                recs.append(self.command(cmd, prefix, tag))
            else:
                recs.append(self.cli(cmd, tag))
        return {
            "order": [c.name for c in commands],
            "complete": len(recs) == len(commands),
            "wall_s": sum(r["wall_s"] for r in recs),
            "cpu_s": sum(r["cpu_s"] for r in recs),
            "peak_rss_mb": max((r["maxrss_mb"] for r in recs), default=0.0),
            "commands": recs,
        }


def check_answer(cmd: Command, exit_code: int, out: Path) -> str | None:
    """None when the command gave its expected answer, else what differed."""
    if exit_code != cmd.exit_code:
        return f"exit status {exit_code}, expected {cmd.exit_code}"
    try:
        report = json.loads(out.read_text())
    except ValueError:
        return "stdout is not a JSON report"
    if report.get("verdict") != cmd.verdict:
        return f"verdict {report.get('verdict')!r}, expected {cmd.verdict!r}"
    details = report.get("details", {})
    for key, want in cmd.gates.items():
        if details.get(key) != want:
            return f"details.{key} = {details.get(key)!r}, expected {want!r}"
    return None


# -- set-up ---------------------------------------------------------------------------


def prepare_inputs(runner: Runner, wl: Workload) -> None:
    for name, args in wl.scenarios.items():
        rec = runner.spawn(
            [sys.executable, "-m", "flowcut.cli", *args, "--out", name],
            runner.work / "scenario.out",
            runner.work / "scenario.err",
        )
        if rec["exit_code"] != 0:
            err = (runner.work / "scenario.err").read_text().strip()
            raise BenchError(f"could not build {name}: {err}")
    for name in wl.copies:
        shutil.copyfile(HERE / name, runner.work / name)


def _probe(runner: Runner, args: list[str], tag: str) -> object:
    out, err = runner.work / f"{tag}.out", runner.work / f"{tag}.err"
    rec = runner.spawn([sys.executable, str(HERE / "probe.py"), *args], out, err)
    if rec["exit_code"] != 0:
        raise BenchError(f"probe {args[0]} failed: {err.read_text().strip()}")
    return json.loads(out.read_text())


def exactness(runner: Runner, wl: Workload) -> list[dict]:
    """Exactness of every bound, cached per input and source content."""
    h = hashlib.sha256()
    for src in sorted((runner.root / "src" / "flowcut").glob("*.py")):
        h.update(src.read_bytes())
    for e in wl.exactness:
        h.update(f"{e.kind}:{e.file}:{e.bound}".encode())
        h.update((runner.work / e.file).read_bytes())
    cache = runner.work / f"exact-{h.hexdigest()[:16]}.json"
    if cache.is_file():
        found = json.loads(cache.read_text())
    else:
        found = _probe(runner, ["exact", *(f"{e.kind}:{e.file}:{e.bound}" for e in wl.exactness)], "exact")
        cache.write_text(json.dumps(found))
    return [
        {
            "file": e.file,
            "bound": e.bound,
            "exact": f["exact"],
            "executions": f["executions"],
            "ok": (f["exact"], f["executions"]) == (e.exact, e.executions),
        }
        for e, f in zip(wl.exactness, found)
    ]


# -- traced pass -------------------------------------------------------------------

_IMPORT_LINE = re.compile(r"^import time:\s+(\d+) \|\s+(\d+) \|( +)(\S+)\s*$")


def import_shares(stderr_text: str) -> dict[str, float]:
    """Seconds each flowcut module spent importing itself and the
    third-party modules it pulled in, from ``-X importtime`` output.

    The package ``__init__`` counts toward ``cli``, the package's front.
    """
    entries = []
    for line in stderr_text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append(((len(m.group(3)) - 1) // 2, int(m.group(2)), m.group(4)))
    owned: list[float] = [0.0] * len(entries)
    shares: dict[str, float] = defaultdict(float)
    for i, (depth, cum, name) in enumerate(entries):
        if not (name == "flowcut" or name.startswith("flowcut.")):
            continue
        inner = 0.0
        j = i - 1
        while j >= 0 and entries[j][0] > depth:
            if entries[j][2].startswith("flowcut."):
                inner += owned[j]
            j -= 1
        owned[i] = cum - inner
        layer = "cli" if name == "flowcut" else name.split(".")[1]
        shares[layer] += owned[i] / 1e6
    return shares


def layer_metrics(records: list[dict], work: Path) -> tuple[dict[str, float], dict]:
    """Per-module metrics summed over one traced pass, plus details that
    are not metrics: the time inside ``validate_blur`` and
    ``f_limits_flow`` (zero on workloads without blurs) and each layer's
    span self time split by the layer that called it."""
    m: dict[str, float] = dict.fromkeys(PER_LAYER, 0.0)
    inclusive = {"validate_blur": 0.0, "f_limits_flow": 0.0}
    by_caller: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    enum_cold_s = 0.0
    enum_canonicalize = 0
    for rec in records:
        tag = rec["tag"]
        doc = json.loads((work / f"{tag}.spans").read_text())
        for layer, secs in import_shares((work / f"{tag}.err").read_text()).items():
            m[f"{layer}.self_s"] += secs
        names, spans = doc["names"], doc["spans"]
        layers = [names[ni].split(".", 2)[1] for ni, _, _, _ in spans]
        cold = set(doc["cold_enumerations"])
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        roots = 0.0
        for i, (ni, start, end, parent) in enumerate(spans):
            layer, short = layers[i], names[ni].split(".", 2)[2]
            dur = end - start
            m[f"{layer}.self_s"] += dur - child[i]
            m[f"{layer}.calls"] += 1
            by_caller[layer][layers[parent] if parent >= 0 else "cli"] += dur - child[i]
            if parent < 0:
                roots += dur
            if short in ("parse_frame_document", "parse_machine_document"):
                m["fileformat.parse_s"] += dur
            elif short == "validate_frame":
                m["frames.validate_s"] += dur
            elif short in inclusive:
                inclusive[short] += dur
            elif short == "blur_apply":
                m["blur.apply_calls"] += 1
            elif short == "canonicalize":
                m["events.canonicalize_calls"] += 1
                enum_canonicalize += parent in cold
            elif short == "EventSystem.restrict":
                m["events.restrict_calls"] += 1
            elif short == "enumerate_executions" and i in cold:
                enum_cold_s += dur
        overhead = doc["main_s"] - roots
        m["cli.overhead_s"] += overhead
        m["cli.self_s"] += overhead
        m["cli.import_s"] += doc["import_s"]
        for key, value in doc["counters"].items():
            m[key] += value
    executions = m["enumeration.executions"]
    m["enumeration.executions_per_s"] = executions / enum_cold_s if enum_cold_s else 0.0
    m["events.canonicalize_per_execution"] = enum_canonicalize / executions if executions else 0.0
    detail = {
        "blur.validate_s": inclusive["validate_blur"],
        "blur.limits_flow_s": inclusive["f_limits_flow"],
        "span_self_s_by_caller": {k: dict(v) for k, v in by_caller.items()},
    }
    return m, detail


# -- one workload ------------------------------------------------------------------


def run_workload(root: Path, wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    work = root / WORK_DIR / wl.name
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work, seed)
    rng = random.Random(seed)

    prepare_inputs(runner, wl)
    env = _probe(runner, ["env"], "env")
    exact = exactness(runner, wl)
    runner.attempted += len(exact)
    runner.failed += sum(not e["ok"] for e in exact)

    # Untimed warm-up: reads the sources into the page cache and, unless the
    # environment sets PYTHONDONTWRITEBYTECODE, compiles bytecode once, as an
    # installed tool would have.  Commands inherit the environment as it is.
    runner.cli(wl.setup, "warmup")
    # A set-up sample precedes every other pass, so that both span the whole
    # run rather than one stretch of it.  The first pass always completes,
    # so every command has a sample; after the deadline no command starts.
    setup, passes = [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        if len(passes) % 2 == 0:
            setup.append(runner.cli(wl.setup, f"setup{len(setup)}"))
        order = list(wl.commands)
        rng.shuffle(order)
        passes.append(runner.run_pass(order, len(passes), until=deadline if passes else None))
    while len(setup) < SETUP_REPEATS:
        setup.append(runner.cli(wl.setup, f"setup{len(setup)}"))

    samples: dict[str, list[dict]] = defaultdict(list)
    for p in passes:
        for r in p["commands"]:
            samples[r["command"]].append(r)
    # The host's speed drifts by tens of percent within seconds and by up to
    # 2x over minutes.  The reference work is timed next to every command,
    # so its median is taken over the same stretch of time as the commands'
    # medians, and their ratio cancels most of that drift.
    wall_s = sum(statistics.median(r["wall_s"] for r in recs) for recs in samples.values())
    reference = statistics.median(runner.reference)
    metrics = {
        "setup_s": statistics.median(r["wall_s"] for r in setup),
        "wall_ref": wall_s / reference,
        "peak_rss_mb": max(statistics.median(r["maxrss_mb"] for r in recs) for recs in samples.values()),
    }
    measured = setup + [r for p in passes for r in p["commands"]]
    errors = sum(r["problem"] is not None for r in measured)

    traced = detail = None
    if trace:
        order = list(wl.commands)
        rng.shuffle(order)
        traced = runner.run_pass(order, 0, traced=True)
        metrics, detail = layer_metrics(traced["commands"], work)
        metrics["trace.overhead_s"] = traced["wall_s"] - wall_s

    return {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "environment": env,
        "exactness": exact,
        "setup": setup,
        "passes": passes,
        "traced_pass": traced,
        "layer_detail": detail,
        "error_rate": errors / len(measured),
        "wall_s": wall_s,
        "reference_s": reference,
        "reference_samples_s": runner.reference,
        "metrics": metrics,
        "attempted": runner.attempted,
        "failed": runner.failed,
    }


# -- output --------------------------------------------------------------------------


def print_summary(result: dict) -> None:
    print(f"== {result['workload']} (seed {result['seed']}, {len(result['passes'])} passes)")
    print(
        "   env: nproc={nproc} python={python} networkx={networkx} pyyaml={pyyaml} "
        "libyaml={yaml_with_libyaml} loader={fileformat_loader}".format(**result["environment"])
    )
    for e in result["exactness"]:
        flag = "exact" if e["exact"] else "bound-truncated"
        note = "" if e["ok"] else "  ERROR: differs from the expected answer"
        print(f"   {e['file']} at bound {e['bound']}: {e['executions']} executions, {flag}{note}")
    by_cmd: dict[str, list[dict]] = defaultdict(list)
    for r in result["setup"] + [r for p in result["passes"] for r in p["commands"]]:
        by_cmd[r["command"]].append(r)
    print("   command (medians over samples)  n  min wall s    wall s    cpu s   max rss MB   minflt")
    for name, recs in by_cmd.items():
        med = lambda key: statistics.median(r[key] for r in recs)
        problems = {r["problem"] for r in recs} - {None}
        status = "ok" if not problems else "ERROR: " + "; ".join(sorted(problems))
        print(
            f"   {name:<30} {len(recs):>2} {min(r['wall_s'] for r in recs):11.3f} "
            f"{med('wall_s'):9.3f} {med('cpu_s'):8.3f} "
            f"{max(r['maxrss_mb'] for r in recs):12.1f} {med('minflt'):8.0f}  {status}"
        )
    metrics = result["metrics"]
    if not result["trace"]:
        for name, (unit, _) in END_TO_END.items():
            print(f"   {name:<12} {metrics[name]:12.4f} {unit}")
        print(f"   {'wall_s':<12} {result['wall_s']:12.4f} s (not gated: moves with the host's speed)")
        print(
            f"   {'reference_s':<12} {result['reference_s']:12.4f} s "
            f"(median of {len(result['reference_samples_s'])})"
        )
        print(f"   {'error_rate':<12} {result['error_rate']:12.4f} ratio")
        return
    for r in result["traced_pass"]["commands"]:
        status = "ok" if r["problem"] is None else f"ERROR: {r['problem']}"
        print(f"   traced {r['command']:<23} wall {r['wall_s']:7.3f} s  {status}")
    total = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    print("   layer self time = own import time + span self time; private helpers")
    print("   count toward their public caller, per-step helpers toward enumeration:")
    callers = result["layer_detail"]["span_self_s_by_caller"]
    for layer in sorted(LAYERS, key=lambda x: -metrics[f"{x}.self_s"]):
        secs = metrics[f"{layer}.self_s"]
        calls = metrics[f"{layer}.calls"]
        split = ", ".join(
            f"{c} {t:.3f}" for c, t in sorted(callers.get(layer, {}).items(), key=lambda kv: -kv[1])
        )
        called = f"  span time by caller: {split}" if split else ""
        print(f"     {layer:<12} {secs:9.3f} s {100 * secs / total:6.1f} %  {calls:>9.0f} calls{called}")
    for name, (unit, _) in PER_LAYER.items():
        if not (name.endswith(".self_s") or name.endswith(".calls")):
            print(f"   {name:<36} {metrics[name]:14.4f} {unit}")
    for name in ("blur.validate_s", "blur.limits_flow_s"):
        print(f"   {name:<36} {result['layer_detail'][name]:14.4f} s (not a metric)")


def write_record(root: Path, results: list[dict], label: str) -> Path:
    out = root / WORK_DIR / "records"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{label}.json"
    path.write_text(json.dumps(results, indent=1, sort_keys=True, default=str))
    return path


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "flowcut" / "cli.py").is_file():
        print("error: no src/flowcut here; run from the root of a flowcut checkout", file=sys.stderr)
        return 2
    # One CPU for this process and every command it starts (children inherit
    # the mask): the reference work then runs where the commands run, and
    # the two CPUs of a shared host can be slowed by different neighbours.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = [
            run_workload(root, WORKLOADS[n], args.seed, args.seconds, bool(args.trace)) for n in names
        ]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results:
        print_summary(result)
    record = write_record(root, results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    print(f"record: {record.relative_to(root)}")

    table = PER_LAYER if args.trace else END_TO_END
    metrics = {}
    for r in results:
        prefix = "" if len(results) == 1 else f"{r['workload']}."
        for name, (unit, _) in table.items():
            metrics[prefix + name] = {"value": r["metrics"][name], "unit": unit}
    if len(results) > 1 and not args.trace:
        print("workload         " + "".join(f"{n:>16}" for n in END_TO_END) + f"{'wall_s':>16}{'error_rate':>16}")
        for r in results:
            cells = "".join(f"{r['metrics'][n]:12.4f} {u:<3}" for n, (u, _) in END_TO_END.items())
            print(f"{r['workload']:<17}{cells}{r['wall_s']:12.4f} s  {r['error_rate']:12.4f} ratio")
    failed = sum(r["failed"] for r in results)
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": sum(r["attempted"] for r in results),
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
