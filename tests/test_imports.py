"""
What importing flowcut loads: each CLI command imports only the modules it
runs, no command loads ``dataclasses`` or ``inspect``, frame and machine
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
from flowcut.fileformat import emit_frame_document
from flowcut.scenarios import FirewallParams, build_firewall

from support import child_env, downgrader_machine, machine_document

#: The names ``flowcut`` re-exports, by home module.
EXPORTS = {
    "blur": [
        "AllBlur",
        "BlurError",
        "BlurSpec",
        "IdentityBlur",
        "PartitionBlur",
        "PermutationBlur",
        "SelectionBlur",
        "SharedCore",
        "SharedCoreError",
        "TableBlur",
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
    "fileformat": ["FileFormatError", "emit_frame_document", "parse_frame_document", "parse_machine_document"],
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

#: What reading a frame file that declares blurs loads.
FRAME_SET = {"cli", "fileformat", "frames", "blur", "events"}
#: What reading a machine file and deciding ``ni`` on it loads.
PURGE_SET = {"cli", "fileformat", "frames", "events", "purge"}


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
    (tmp_path / "m.yaml").write_text(machine_document(downgrader_machine()))
    code = (
        "import contextlib, io, json, sys\n"
        "import flowcut.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    status = cli.main(sys.argv[1:])\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('flowcut.'))\n"
        "generators = [m for m in ('dataclasses', 'inspect') if m in sys.modules]\n"
        "print(json.dumps([status, loaded, generators, 'yaml' in sys.modules]))\n"
    )
    # Frame and machine files are read without PyYAML; only writing a
    # scenario file loads it.  The purge commands search the machine's
    # words, so they load no enumeration.
    purge_args = ["--target", "d2", "--purge", "hy", "--bound", "5"]
    cases = [
        (["validate", "fw.yaml"], {0}, FRAME_SET, False),
        (["validate", "plain.yaml"], {0}, {"cli", "fileformat", "frames"}, False),
        (["enumerate", "fw.yaml", "--bound", "4"], {0}, FRAME_SET | {"enumeration"}, False),
        (["min-cut", "fw.yaml", "--source", "chans_i", "--observed", "chans_n"], {0}, FRAME_SET | {"cuts"}, False),
        (
            ["nodisclosure", "fw.yaml", "--source", "chans_i", "--observed", "chans_n", "--bound", "4"],
            {0, 1},
            FRAME_SET | {"enumeration", "disclosure"},
            False,
        ),
        (["ni", "m.yaml", *purge_args], {0, 1}, PURGE_SET, False),
        (["nd", "m.yaml", *purge_args], {0, 1}, PURGE_SET | {"disclosure"}, False),
        (["purge-blur", "m.yaml", *purge_args], {0}, PURGE_SET | {"blur"}, False),
        (["scenario", "firewall"], {0}, FRAME_SET | {"scenarios"}, True),
    ]
    children = [_child(code, *argv, cwd=tmp_path) for argv, *_ in cases]
    for (argv, statuses, modules, uses_yaml), child in zip(cases, children):
        status, loaded, generators, yaml_loaded = json.loads(_finish(child))
        assert status in statuses, argv
        assert set(loaded) == {f"flowcut.{m}" for m in modules}, argv
        assert generators == [], argv
        assert yaml_loaded == uses_yaml, argv


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
    for path in sorted(Path(flowcut.__file__).parent.glob("*.py")):
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
    for path in sorted(Path(flowcut.__file__).parent.glob("*.py")):
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


def test_only_events_and_enumeration_name_event_system():
    # Every analysis takes and returns canonical runs; an ``EventSystem`` is
    # a view that ``events`` defines and ``ExecutionSet.systems`` builds.
    # Every identifier, attribute and imported name is checked.
    found = []
    for path in sorted(Path(flowcut.__file__).parent.glob("*.py")):
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
