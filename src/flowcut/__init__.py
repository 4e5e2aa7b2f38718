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

Every command loads this package, so it holds the base that every module
builds on: the input error, the record base of the package's record types
(plain ``__slots__`` classes, which no module builds with ``dataclasses``),
the label type and the event budget ``Bound``.  ``frames`` re-exports them,
and ``_EXPORTS`` lists the public ones under ``frames``.  Defined here, they
let the purge commands read a machine and decide on it without loading the
frame model.
"""

import sys
import types
from importlib import import_module
from operator import attrgetter

#: A label is a (channel id, data value) pair.
Label = tuple[str, str]


class InputError(ValueError):
    """Bad input: a file, a frame, a bound, a channel set, a blur or a
    command line the user can fix.  The CLI exits 2 on it; every other
    exception is an internal error."""


class EnumerationError(InputError):
    """Raised for malformed frames or bounds."""


# -- records ---------------------------------------------------------------
#
# Every record type of the package is a plain class whose ``__slots__``
# name its fields in constructor order.  ``_Record`` gives it the ``repr``
# of a dataclass, read-only fields and pickling; the types that are
# compared or used as keys add ``__eq__`` and ``__hash__`` from
# ``_compared_by``.  A slot whose name starts with an underscore is private
# state, not a field: ``repr`` and pickling skip it.  Nothing is generated
# from source text at import.

_set = object.__setattr__


class _Record:
    """Base of the read-only records.  ``__init__`` stores the fields
    through ``_set`` (``_fill`` stores them all, in ``__slots__`` order);
    assigning to a record afterwards raises AttributeError."""

    __slots__ = ()

    def _fill(self, *values) -> None:
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__slots__ if name[0] != "_"
        )
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")


def _compared_by(*names: str):
    """``__eq__`` and ``__hash__`` over the fields ``names``: a record
    equals only a record of its own class with equal fields."""
    key = attrgetter(*names)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    return __eq__, __hash__


class Bound(_Record):
    """Event budget for enumeration.  ``max_total_events`` bounds the
    whole execution; the optional per-location cap counts the events a
    location participates in (a self-loop event counts once)."""

    __slots__ = ("max_total_events", "max_events_per_location")
    __eq__, __hash__ = _compared_by(*__slots__)

    def __init__(self, max_total_events: int, max_events_per_location: int | None = None) -> None:
        if max_total_events < 0:
            raise EnumerationError("max_total_events must be >= 0")
        per = max_events_per_location
        if per is not None and per < 0:
            raise EnumerationError("max_events_per_location must be >= 0")
        if per is not None and per > max_total_events:
            raise EnumerationError("per-location bound must not exceed the total bound")
        self._fill(max_total_events, per)


#: The public names, by the submodule that defines them.
_EXPORTS = {
    "blur": (
        "SharedCore",
        "SharedCoreError",
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
    "emitter": ("emit_frame_document",),
    "enumeration": ("ExecutionSet", "enumerate_executions", "enumerate_runs"),
    "events": (
        "CanonicalRun",
        "Event",
        "EventSystem",
        "LinearityError",
        "is_execution",
        "is_initial_substructure",
        "project",
    ),
    "fileformat": ("FileFormatError", "parse_frame_document", "parse_machine_document"),
    "frames": (
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
    ),
    "frames.blurforms": (
        "AllBlur",
        "BlurError",
        "BlurSpec",
        "IdentityBlur",
        "PartitionBlur",
        "PermutationBlur",
        "SelectionBlur",
        "TableBlur",
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
