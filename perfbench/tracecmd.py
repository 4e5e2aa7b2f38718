"""
Run one ``flowcut`` command in-process with every public library function
wrapped in a timing span, then write the spans and layer counters as JSON.

Usage: python3 perfbench/tracecmd.py SPANS_OUT CLI_ARG...

The process imports ``flowcut.cli`` (timed as the import cost), wraps the
public functions of each ``flowcut`` module in every module namespace that
imported them, calls ``flowcut.cli.main(argv)`` and exits with its status.
The report goes to stdout exactly as the untraced command prints it.

A span is ``[name index, start, end, parent span index or -1]`` with times
in seconds from the start of ``main``.  Private helpers (``_cmpt_table``,
``_enumerate_cached``, ``_execution_rows`` ...) get no span, so their time
counts toward the nearest public caller.  Per-step helpers that run
millions of times (``behavior_step`` and the other names in ``UNWRAPPED``)
get no span either: a span there would cost more than the step, so LTS
stepping shows up as ``enumeration`` self time.  ``lru_cache`` hits of a
wrapped function appear as calls with near-zero time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import resource
import sys
import time

MODULES = (
    "frames",
    "events",
    "enumeration",
    "cuts",
    "disclosure",
    "blur",
    "purge",
    "scenarios",
    "fileformat",
    "cli",
)

#: Per-step helpers, plus the CLI entry point and its parser, whose time is
#: ``main_s`` and, outside the command function, ``cli.overhead_s``.
UNWRAPPED = frozenset(
    {
        "behavior_start",
        "behavior_step",
        "behavior_enabled",
        "accepts_trace",
        "transitive_closure",
        "transitive_reduction",
        "main",
        "build_parser",
    }
)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_index: dict[str, int] = {}
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.cold_enumerations: list[int] = []
        self.origin = time.perf_counter()

    def count(self, key: str, amount: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name: str, before=None, after=None):
        """A span around every call of ``fn``; ``after(tracer, span,
        state, args, result)`` reads counts, with ``state = before()``
        taken just before the call."""
        idx = self.name_index.setdefault(name, len(self.names))
        if idx == len(self.names):
            self.names.append(name)
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            me = len(spans)
            span = [idx, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(me)
            state = before() if before is not None else None
            span[1] = clock() - self.origin
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock() - self.origin
                stack.pop()
            if after is not None:
                after(self, me, state, args, result)
            return result

        return traced


# -- counters observed at the boundaries ---------------------------------------


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _observers(mods: dict) -> dict[str, tuple]:
    """Counters read at span boundaries: qualified name -> (before, after)."""
    cache_misses = lambda: mods["enumeration"]._enumerate_cached.cache_info().misses

    def enum_before():
        return cache_misses(), _maxrss_mb()

    def enum_after(tracer, span, state, args, result):
        misses, rss = state
        if cache_misses() > misses:
            tracer.count("enumeration.executions", len(result))
            tracer.count("enumeration.rss_delta_mb", _maxrss_mb() - rss)
            tracer.cold_enumerations.append(span)

    def doc_bytes(tracer, span, state, args, result):
        tracer.count("fileformat.doc_bytes", len(args[0].encode()))

    def lts_transitions(tracer, span, state, args, result):
        lts = [loc.behavior for loc in args[0].locations if isinstance(loc.behavior, mods["frames"].Lts)]
        tracer.count("frames.lts_transitions", sum(len(b.transitions) for b in lts))

    def universe_runs(tracer, span, state, args, result):
        if hasattr(args[1], "__len__"):
            tracer.count("blur.universe_runs", len(args[1]))

    def blur_classes(tracer, span, state, args, result):
        tracer.count("purge.classes", len(result.blocks))

    return {
        "flowcut.enumeration.enumerate_executions": (enum_before, enum_after),
        "flowcut.fileformat.parse_frame_document": (None, doc_bytes),
        "flowcut.fileformat.parse_machine_document": (None, doc_bytes),
        "flowcut.frames.validate_frame": (None, lts_transitions),
        "flowcut.blur.validate_blur": (None, universe_runs),
        "flowcut.purge.purge_blur": (None, blur_classes),
    }


def _count_only(tracer: Tracer, fn, record):
    """Wrap a private helper without a span, to read its result size."""

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        before = fn.cache_info().misses if hasattr(fn, "cache_info") else None
        result = fn(*args, **kwargs)
        if before is None or fn.cache_info().misses > before:
            record(tracer, result)
        return result

    return counted


def _table_rows(tracer, table):
    tracer.count("disclosure.observed_runs", len(table))


def _purge_rows(tracer, frame_and_rows):
    rows = frame_and_rows[1]
    tracer.count("purge.rows", len(rows))
    tracer.count("purge.classes", len({value for value, _, _ in rows}))


def install(tracer: Tracer):
    """Wrap the public functions and return the traced ``flowcut.cli``."""
    import flowcut

    mods = {m: importlib.import_module(f"flowcut.{m}") for m in MODULES}
    observers = _observers(mods)

    replace: dict[int, object] = {}
    for mod in mods.values():
        for name, obj in vars(mod).items():
            if name.startswith("_") or name in UNWRAPPED:
                continue
            if getattr(obj, "__module__", None) != mod.__name__:
                continue
            if not (inspect.isfunction(obj) or hasattr(obj, "cache_info")):
                continue
            qual = f"{mod.__name__}.{name}"
            replace[id(obj)] = tracer.wrap(obj, qual, *observers.get(qual, (None, None)))
    for helper, record in (
        (mods["disclosure"]._cmpt_table, _table_rows),
        (mods["purge"]._execution_rows, _purge_rows),
    ):
        replace[id(helper)] = _count_only(tracer, helper, record)

    for mod in list(mods.values()) + [flowcut]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in replace:
                setattr(mod, name, replace[id(obj)])

    for cls, meth in ((mods["events"].EventSystem, "restrict"), (mods["events"].CanonicalRun, "restrict")):
        qual = f"flowcut.events.{cls.__name__}.{meth}"
        setattr(cls, meth, tracer.wrap(getattr(cls, meth), qual))
    return mods["cli"]


def main(argv: list[str]) -> int:
    out_path, cli_argv = argv[0], argv[1:]
    t0 = time.perf_counter()
    import flowcut.cli  # noqa: F401  (timed: interpreter-level import cost)

    import_s = time.perf_counter() - t0
    tracer = Tracer()
    cli = install(tracer)
    tracer.origin = time.perf_counter()
    code = cli.main(cli_argv)
    main_s = time.perf_counter() - tracer.origin
    sys.stdout.flush()
    with open(out_path, "w") as fh:
        json.dump(
            {
                "argv": cli_argv,
                "exit_code": code,
                "import_s": import_s,
                "main_s": main_s,
                "names": tracer.names,
                "spans": tracer.spans,
                "cold_enumerations": tracer.cold_enumerations,
                "counters": tracer.counters,
            },
            fh,
            separators=(",", ":"),
        )
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
