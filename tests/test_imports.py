"""
What importing flowcut loads: each CLI command imports only the modules it
runs, no command loads ``dataclasses`` or ``inspect``, a well-formed
analysis command line loads no ``argparse``, frame and machine
files are read without PyYAML, and the package's lazy exports resolve to
the same objects the submodules define.  Import state is per process, so
every check of what is loaded runs in a fresh child interpreter.
"""

from __future__ import annotations

import ast
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import flowcut
import flowcut.frames
from flowcut.emitter import emit_frame_document
from flowcut.scenarios import FirewallParams, VotingParams, build_firewall, build_voting

from support import child_env, downgrader_machine, machine_document

#: The names ``flowcut`` re-exports, by home module.
EXPORTS = {
    "blur": [
        "SharedCore",
        "SharedCoreError",
        "blur_apply",
        "build_shared_core",
        "f_limits_flow",
        "validate_blur",
        "verify_composition",
        "verify_cut_blur",
    ],
    "cuts": ["ChannelSetTriple", "CutSpecError", "find_min_cut", "is_cut"],
    "disclosure": [
        "CompatQuery",
        "MergeError",
        "MergeInvariantError",
        "check_symmetry",
        "cmpt_propagation_check",
        "compatible_runs",
        "merge_across_cut",
        "no_disclosure",
        "obs_equivalent",
    ],
    "emitter": ["emit_frame_document"],
    "enumeration": ["ExecutionSet", "enumerate_executions", "enumerate_runs"],
    "events": [
        "CanonicalRun",
        "Event",
        "EventSystem",
        "LinearityError",
        "is_execution",
        "is_initial_substructure",
        "project",
    ],
    "fileformat": ["FileFormatError", "parse_frame_document", "parse_machine_document"],
    "frames": [
        "Bound",
        "Channel",
        "EnumerationError",
        "ExplicitTraces",
        "Frame",
        "FrameError",
        "InputError",
        "Location",
        "Lts",
        "UnknownChannelError",
        "location_language",
        "validate_frame",
    ],
    "frames.blurforms": [
        "AllBlur",
        "BlurError",
        "BlurSpec",
        "IdentityBlur",
        "PartitionBlur",
        "PermutationBlur",
        "SelectionBlur",
        "TableBlur",
    ],
    "purge": [
        "MachineError",
        "MachineSpec",
        "PurgeKind",
        "check_nd",
        "check_ni",
        "purge",
        "purge_blur",
        "star_frame",
        "validate_purge",
    ],
    "scenarios": [
        "FirewallParams",
        "FirewallScenario",
        "ScenarioError",
        "VotingParams",
        "VotingScenario",
        "build_firewall",
        "build_voting",
    ],
}

#: What reading a frame file that declares blurs loads: the blur forms,
#: without the blur analysis and the run type it applies them to.
FRAME_SET = {"cli", "fileformat", "frames", "frames.blurforms"}
#: What a flow check with a blur loads on top of the frame file.
BLUR_SET = FRAME_SET | {"blur", "events", "enumeration", "disclosure"}
#: What reading a machine file and deciding ``ni`` on it loads: no frame
#: model and no run type.
PURGE_SET = {"cli", "fileformat", "purge"}


def _child(code: str, *args: str, cwd: Path | None = None) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", code, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=cwd,
        env=child_env(),
    )


def _finish(child: subprocess.Popen) -> str:
    out, err = child.communicate(timeout=120)
    assert child.returncode == 0, err.decode(errors="replace")
    return out.decode()


def test_each_command_loads_only_its_modules(tmp_path):
    scn = build_firewall(FirewallParams())
    (tmp_path / "fw.yaml").write_text(emit_frame_document(scn.frame, scn.named_sets, scn.blurs))
    (tmp_path / "plain.yaml").write_text(emit_frame_document(scn.frame, scn.named_sets))
    for name, precincts in (("v1.yaml", (2,)), ("v22.yaml", (2, 2))):
        vot = build_voting(VotingParams(precincts=precincts))
        (tmp_path / name).write_text(emit_frame_document(vot.frame, vot.named_sets, vot.blurs))
    (tmp_path / "m.yaml").write_text(machine_document(downgrader_machine()))
    code = (
        "import contextlib, io, json, sys\n"
        "import flowcut.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = cli.main(sys.argv[1:])\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('flowcut.'))\n"
        "generators = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "parsing = [m for m in ('argparse', 'gettext', 'locale') if m in sys.modules]\n"
        "print(json.dumps([status, loaded, generators, parsing, 'yaml' in sys.modules]))\n"
    )
    # Frame and machine files are read without PyYAML; only writing a
    # scenario file loads it.  A frame file's blurs read with the forms
    # alone, so only the commands that apply a blur load ``blur``.  The
    # purge commands search the machine's words and print them as texts, so
    # they load no enumeration, no frame model and no run type.  A
    # well-formed analysis command line is read without argparse; the
    # scenario commands and an abbreviated option go through it.
    purge_args = ["--target", "d2", "--purge", "hy", "--bound", "5"]
    fw_flow = ["--source", "chans_i", "--observed", "chans_n"]
    cases = [
        (["validate", "fw.yaml"], {0}, FRAME_SET, False),
        (["validate", "plain.yaml"], {0}, {"cli", "fileformat", "frames"}, False),
        (["enumerate", "fw.yaml", "--bound", "4"], {0}, FRAME_SET | {"enumeration", "events"}, False),
        (["min-cut", "fw.yaml", *fw_flow], {0}, FRAME_SET | {"cuts"}, False),
        (
            ["nodisclosure", "fw.yaml", *fw_flow, "--bound", "4"],
            {0, 1},
            FRAME_SET | {"enumeration", "events", "disclosure"},
            False,
        ),
        (["check-blur", "fw.yaml", "--blur", "f_i", *fw_flow, "--bound", "4"], {0, 1}, BLUR_SET, False),
        (
            ["verify-cutblur", "fw.yaml", "--blur", "f_i", "--cut", "cut", *fw_flow, "--bound", "4"],
            {0, 1},
            BLUR_SET | {"cuts"},
            False,
        ),
        (
            ["compose", "v1.yaml", "v22.yaml", "--core", "v1_1,v1_2,BB1", "--blur", "f0_p1"]
            + ["--source", "voters1", "--observed", "p", "--bound", "4"],
            {0, 1},
            BLUR_SET,
            False,
        ),
        (["ni", "m.yaml", *purge_args], {0, 1}, PURGE_SET, False),
        (["nd", "m.yaml", *purge_args], {0, 1}, PURGE_SET | {"disclosure"}, False),
        (["purge-blur", "m.yaml", *purge_args], {0}, PURGE_SET, False),
        (["scenario", "firewall"], {0}, FRAME_SET | {"scenarios", "emitter"}, True),
        (["ni", "m.yaml", "--targ", *purge_args[1:]], {0, 1}, PURGE_SET, False),
    ]
    children = [_child(code, *argv, cwd=tmp_path) for argv, *_ in cases]
    statuses = {}
    for (argv, expected, modules, uses_yaml), child in zip(cases, children):
        status, loaded, generators, parsing, yaml_loaded = json.loads(_finish(child))
        statuses[tuple(argv)] = status
        assert status in expected, argv
        assert set(loaded) == {f"flowcut.{m}" for m in modules}, argv
        assert generators == [], argv
        assert ("argparse" in parsing) == (argv[0] == "scenario" or "--targ" in argv), argv
        if "argparse" not in parsing:
            assert parsing == [], argv
        assert yaml_loaded == uses_yaml, argv
    # argparse reads the abbreviation as the option it abbreviates.
    assert statuses["ni", "m.yaml", "--targ", *purge_args[1:]] == statuses["ni", "m.yaml", *purge_args]


def test_validate_loads_no_pathlib_without_site(tmp_path):
    # ``site`` may import ``pathlib`` itself (through a ``.pth`` file), so
    # the child starts without it: then nothing ``validate`` runs loads it.
    scn = build_firewall(FirewallParams())
    (tmp_path / "fw.yaml").write_text(emit_frame_document(scn.frame, scn.named_sets, scn.blurs))
    code = (
        "import contextlib, io, sys\n"
        "import flowcut.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = cli.main(['validate', 'fw.yaml'])\n"
        "print(status, 'site' in sys.modules, 'pathlib' in sys.modules)\n"
    )
    argv = [sys.executable, "-S", "-c", code]
    child = subprocess.run(argv, capture_output=True, cwd=tmp_path, env=child_env())
    assert child.returncode == 0, child.stderr.decode(errors="replace")
    assert child.stdout.decode().split() == ["0", "False", "False"]


def test_readers_and_builders_import_the_blur_forms_not_the_blur_analysis():
    # ``fileformat``, ``scenarios`` and ``purge`` build blurs but never apply
    # one: an import of ``blur`` anywhere in them, at the top or inside a
    # function, would load the analysis and ``events`` with every frame file.
    found = []
    for name in ("fileformat", "scenarios", "purge"):
        path = Path(flowcut.__file__).parent / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                modules = [("." * node.level) + (node.module or "")]
                if node.module is None:
                    modules = ["." + alias.name for alias in node.names]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            found += [f"{name}:{node.lineno} {m}" for m in modules if m in (".blur", "flowcut.blur")]
    assert found == []


#: The names of the frame model: what ``frames`` defines, apart from the
#: base it re-exports from the package.
FRAME_MODEL = sorted(
    name
    for name, value in vars(flowcut.frames).items()
    if getattr(value, "__module__", None) == "flowcut.frames" or name in ("Trace", "TraceSpec")
)


def test_purge_path_imports_events_and_the_frame_model_only_in_functions():
    # A top-level import of ``events``, or of a ``frames`` name, in these
    # modules would load it with every purge command.  Imports inside a
    # function body, and those read only by type checkers, are allowed.
    assert {"Frame", "Lts", "validate_frame", "UnknownChannelError"} <= set(FRAME_MODEL)
    assert not {"Bound", "InputError", "Label", "_Record"} & set(FRAME_MODEL)
    found = []
    for name in ("cli", "fileformat", "purge", "disclosure"):
        path = Path(flowcut.__file__).parent / f"{name}.py"
        tree = ast.parse(path.read_text(), str(path))
        nested = set()
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                nested.update(id(sub) for sub in ast.walk(node))
            elif isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
                nested.update(id(sub) for sub in ast.walk(node))
        for node in ast.walk(tree):
            if id(node) in nested:
                continue
            if isinstance(node, ast.Import):
                modules = [(alias.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = "." * node.level + (node.module or "")
                modules = [(base, alias.name) for alias in node.names]
            else:
                continue
            for module, imported in modules:
                if module in (".events", "flowcut.events") or imported == "events":
                    found.append(f"{name}:{node.lineno} {module}")
                elif module in (".frames", "flowcut.frames") and imported in FRAME_MODEL:
                    found.append(f"{name}:{node.lineno} {module}.{imported}")
                elif module.startswith((".frames.", "flowcut.frames.")) or imported == "frames":
                    found.append(f"{name}:{node.lineno} {module}.{imported}")
    assert found == []


def test_a_child_writes_no_bytecode_when_this_process_writes_none(tmp_path, monkeypatch):
    # Child interpreters compile what they import; with bytecode writes off
    # here, one started with ``child_env`` leaves no ``.pyc`` in the package
    # it imports, here a copy that it imports first.  With them on, the same
    # child writes some, so the copy is the package the child compiled.
    code = "import flowcut.cli, flowcut.purge, sys; print(sys.modules['flowcut'].__file__)"
    for dont_write in (True, False):
        copy = tmp_path / str(dont_write)
        shutil.copytree(Path(flowcut.__file__).parent, copy / "flowcut", ignore=shutil.ignore_patterns("__pycache__"))
        if dont_write:
            monkeypatch.setenv("PYTHONDONTWRITEBYTECODE", "1")
        else:
            monkeypatch.delenv("PYTHONDONTWRITEBYTECODE", raising=False)
            monkeypatch.setattr(sys, "dont_write_bytecode", False)
        child = subprocess.run([sys.executable, "-c", code], capture_output=True, env=child_env(copy), cwd=tmp_path)
        assert child.returncode == 0, child.stderr.decode(errors="replace")
        assert Path(child.stdout.decode().strip()) == copy / "flowcut" / "__init__.py"
        assert bool(list(copy.rglob("*.pyc"))) != dont_write


def test_no_module_imports_dataclasses_or_calls_exec_or_eval():
    # Records are plain ``__slots__`` classes: no module may bring back
    # methods generated from source text at import.
    banned = {"dataclasses", "exec()", "eval()"}
    found = []
    for path in sorted(Path(flowcut.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                names = [f"{node.func.id}()"]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {n}" for n in names if n.split(".")[0] in banned]
    assert found == []


def test_lru_cache_decorates_only_the_enumeration_cache():
    # Analyses keep what they reuse on the object that owns it (an execution
    # set memoizes its local runs); the one process-level cache is the
    # enumeration cache.  Every mention of a functools cache is listed with
    # the definition it decorates.
    caches = {"lru_cache", "cache", "cached_property"}
    found = []
    for path in sorted(Path(flowcut.__file__).parent.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        decorates = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                for decorator in node.decorator_list:
                    decorates.update((id(sub), node.name) for sub in ast.walk(decorator))
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                found += [f"{path.stem}: import {a.name}" for a in node.names if a.name in caches]
            elif isinstance(node, (ast.Name, ast.Attribute)):
                name = node.id if isinstance(node, ast.Name) else node.attr
                if name in caches:
                    found.append(f"{path.stem}: {name} on {decorates.get(id(node), 'no definition')}")
    assert sorted(found) == ["enumeration: import lru_cache", "enumeration: lru_cache on _enumerate_cached"]


def test_only_validation_and_the_writer_tell_the_trace_set_forms_apart():
    # Both trace-set forms step through one move table, so only the code
    # that checks a form's own well-formedness or writes the form out asks
    # which form a behaviour is.  Every ``isinstance`` naming
    # ``ExplicitTraces`` is listed with the function that makes it.
    found = []

    def visit(node, module, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{module}.{node.name}"
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "isinstance"
            and any(
                isinstance(sub, ast.Name) and sub.id == "ExplicitTraces"
                or isinstance(sub, ast.Attribute) and sub.attr == "ExplicitTraces"
                for arg in node.args[1:]
                for sub in ast.walk(arg)
            )
        ):
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, module, where)

    for path in sorted(Path(flowcut.__file__).parent.rglob("*.py")):
        module = path.parent.name if path.stem == "__init__" else path.stem
        visit(ast.parse(path.read_text(), str(path)), module, module)
    assert sorted(found) == ["emitter.emit_frame_document", "frames.validate_frame"]


def test_only_events_and_enumeration_name_event_system():
    # Every analysis takes and returns canonical runs; an ``EventSystem`` is
    # a view that ``events`` defines and ``ExecutionSet.systems`` builds.
    # Every identifier, attribute and imported name is checked.
    found = []
    for path in sorted(Path(flowcut.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            elif isinstance(node, ast.ClassDef):
                name = node.name
            else:
                continue
            if name == "EventSystem":
                found.append(path.stem)
    assert sorted(set(found)) == ["enumeration", "events"]


def test_package_exports_are_unchanged():
    names = [name for group in EXPORTS.values() for name in group]
    assert len(names) == 71
    assert sorted(flowcut.__all__) == sorted(names)
    for home, group in EXPORTS.items():
        module = importlib.import_module(f"flowcut.{home}")
        for name in group:
            assert getattr(flowcut, name) is getattr(module, name), name
    namespace: dict = {}
    exec("from flowcut import *", namespace)
    assert set(names) <= set(namespace)
    assert set(names) <= set(dir(flowcut))


def test_purge_names_the_function_in_either_import_order():
    # ``purge`` is both a submodule and a function the package re-exports;
    # the name must stay the function whichever is imported first.
    function_first = (
        "import sys, types\n"
        "import flowcut\n"
        "assert not [m for m in sys.modules if m.startswith('flowcut.')]\n"
        "from flowcut import purge as before\n"
        "import flowcut.purge\n"
        "from flowcut import purge as after\n"
        "assert isinstance(before, types.FunctionType) and after is before\n"
        "assert flowcut.purge is sys.modules['flowcut.purge'].purge\n"
    )
    module_first = (
        "import sys, types\n"
        "import flowcut.purge\n"
        "from flowcut import purge\n"
        "assert isinstance(purge, types.FunctionType)\n"
        "assert purge is sys.modules['flowcut.purge'].purge\n"
        "assert flowcut.purge is purge\n"
    )
    for child in [_child(function_first), _child(module_first)]:
        _finish(child)
