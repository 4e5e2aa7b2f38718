"""
flowcut: brute-force information-flow analysis of message-passing frames.

Models distributed systems as frames (graphs of locations joined by
unidirectional synchronous channels), exhaustively enumerates bounded
executions as labeled partial orders, and decides disclosure properties
on them: no-disclosure, blur-limited disclosure, cut propagation,
cross-frame composition, and purge-based noninterference and
nondeducibility.

``import flowcut`` loads no submodule: each name below is imported from
its home module on first use (PEP 562), so a caller pays only for the
analyses it runs.
"""

import sys
import types
from importlib import import_module

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "blur": (
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
    ),
    "cuts": ("ChannelSetTriple", "CutSpecError", "find_min_cut", "is_cut"),
    "disclosure": (
        "CompatQuery",
        "MergeError",
        "MergeInvariantError",
        "check_symmetry",
        "cmpt_propagation_check",
        "compatible_runs",
        "merge_across_cut",
        "no_disclosure",
        "obs_equivalent",
    ),
    "enumeration": ("Bound", "EnumerationError", "ExecutionSet", "enumerate_executions", "enumerate_runs"),
    "events": (
        "CanonicalizeError",
        "CanonicalRun",
        "Event",
        "EventSystem",
        "LinearityError",
        "canonicalize",
        "is_execution",
        "is_initial_substructure",
        "project",
    ),
    "fileformat": (
        "FileFormatError",
        "emit_frame_document",
        "parse_frame_document",
        "parse_machine_document",
    ),
    "frames": (
        "Channel",
        "ExplicitTraces",
        "Frame",
        "FrameError",
        "InputError",
        "Location",
        "Lts",
        "UnknownChannelError",
        "location_language",
        "validate_frame",
    ),
    "purge": (
        "MachineError",
        "MachineSpec",
        "PurgeKind",
        "check_nd",
        "check_ni",
        "purge",
        "purge_blur",
        "star_frame",
        "validate_purge",
    ),
    "scenarios": (
        "FirewallParams",
        "FirewallScenario",
        "ScenarioError",
        "VotingParams",
        "VotingScenario",
        "build_firewall",
        "build_voting",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)
__version__ = "0.1.0"


def __getattr__(name: str):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _HOME.keys())


class _Package(types.ModuleType):
    """Keeps a re-exported name over the submodule of the same name (the
    function ``purge`` over ``flowcut.purge``): the import system binds
    every submodule it loads as an attribute of its package."""

    def __setattr__(self, name: str, value) -> None:
        if name in _HOME and isinstance(value, types.ModuleType):
            return
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
