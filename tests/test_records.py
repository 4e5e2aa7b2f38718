"""
The value semantics of flowcut's record types: constructor arguments and
defaults, the checks constructors make, ``repr`` text, equality and
hashing, and which records are read-only.
"""

from __future__ import annotations

import copy
import pickle

import pytest

import flowcut.blur
import flowcut.frames.blurforms
from flowcut.blur import BlurValidation, CompositionVerdict, CutBlurVerdict, FlowCheck, SharedCore
from flowcut.frames.blurforms import (
    AllBlur,
    BlurError,
    IdentityBlur,
    PartitionBlur,
    PermutationBlur,
    SelectionBlur,
    TableBlur,
)
from flowcut.cli import Report
from flowcut.cuts import ChannelSetTriple, CutCheck, MinCutResult, PathWitness
from flowcut.disclosure import CompatQuery, DisclosureResult, PropagationResult
from flowcut.enumeration import Bound, EnumerationError, ExecutionSet
from flowcut.events import CanonicalRun, Event, EventSystem, ExecutionCheck
from flowcut.frames import (
    Channel,
    ExplicitTraces,
    Frame,
    Location,
    Lts,
    ValidationReport,
    Violation,
)
from flowcut.purge import MachineError, MachineSpec, PurgeKind, PurgeValidation, PurgeVerdict
from flowcut.scenarios import (
    FirewallParams,
    FirewallScenario,
    ScenarioError,
    VotingParams,
    VotingScenario,
)

RUN = CanonicalRun((("c", ("v",)),), (0,))
OTHER_RUN = CanonicalRun((("d", ("v",)),), (0,))
TRACES = ExplicitTraces(frozenset({(), (("c", "v"),)}))
LOCATION = Location("L", TRACES)
CHANNEL = Channel("c", "L", "L")
FRAME = Frame((LOCATION,), (CHANNEL,), frozenset({"v"}))
LAWS = BlurValidation(True, False)
FLOW = FlowCheck(True, LAWS, None, None)
FIREWALL = FirewallParams("standard", 1)
VOTING = VotingParams((2,), ("0", "1"), ())

MACHINE = (
    ("domains", ("d",)),
    ("influence", frozenset({("d", "d")})),
    ("actions", ("a",)),
    ("action_domain", (("a", "d"),)),
    ("outputs", ("o",)),
    ("states", ("s",)),
    ("initial", "s"),
    ("transitions", frozenset({("s", "a", "s")})),
    ("obs", ((("s", "d"), "o"),)),
)

#: One instance of every record type, built from its fields in
#: constructor order: (type, ((field, value), ...)).
RECORDS = [
    (Channel, (("id", "c"), ("sender", "L"), ("recipient", "L"))),
    (ExplicitTraces, (("traces", TRACES.traces),)),
    (Lts, (("states", frozenset({"s"})), ("initial", "s"), ("transitions", frozenset({("s", ("c", "v"), "s")})))),
    (Location, (("id", "L"), ("behavior", TRACES))),
    (Frame, (("locations", (LOCATION,)), ("channels", (CHANNEL,)), ("data", frozenset({"v"})))),
    (Violation, (("code", "bad-lts"), ("message", "initial state not declared"))),
    (ValidationReport, (("violations", (Violation("x", "y"),)),)),
    (Event, (("chan", "c"), ("msg", "v"))),
    (EventSystem, (("events", (Event("c", "v"),)), ("ancestors", (0,)))),
    (ExecutionCheck, (("ok", False), ("failures", (("L", "linearity"),)))),
    (CanonicalRun, (("channels", RUN.channels), ("ancestors", RUN.ancestors))),
    (IdentityBlur, ()),
    (AllBlur, ()),
    (PartitionBlur, (("blocks", (frozenset({RUN}),)),)),
    (PermutationBlur, (("members", ("a", "b")), ("blocks", None), ("fixed", frozenset({"a"})))),
    (SelectionBlur, (("channels", frozenset({"c"})), ("values", None))),
    (TableBlur, (("table", ((RUN, frozenset({RUN})),)),)),
    (BlurValidation, (("idempotence_ok", True), ("partition_generated", False))),
    (FlowCheck, (("holds", False), ("laws", LAWS), ("failing_observed", RUN), ("unblurred", OTHER_RUN))),
    (CutBlurVerdict, (("antecedent", FLOW), ("consequent", FLOW), ("implication_holds", True))),
    (
        SharedCore,
        (
            ("frame1", FRAME),
            ("frame2", FRAME),
            ("core_locations", frozenset({"L"})),
            ("left0", frozenset({"c"})),
            ("cut0", frozenset()),
            ("right1", frozenset()),
            ("right2", frozenset()),
            ("run_inclusion_ok", True),
            ("run_inclusion_counterexample", None),
            ("bound", Bound(3)),
        ),
    ),
    (
        CompositionVerdict,
        (("antecedent", FLOW), ("consequent", FLOW), ("locality_ok", True), ("implication_holds", True)),
    ),
    (ChannelSetTriple, (("source", frozenset({"a"})), ("cut", frozenset({"b"})), ("sink", frozenset({"c"})))),
    (PathWitness, (("locations", ("a", "b")), ("channels", ("ab",)))),
    (CutCheck, (("is_cut", False), ("witness", PathWitness(("a",), ())))),
    (MinCutResult, (("cut", None), ("impossible", True), ("reason", "no cut"))),
    (CompatQuery, (("observed", frozenset({"c"})), ("source", frozenset({"d"})), ("observed_run", RUN), ("bound", Bound(4)))),
    (DisclosureResult, (("holds", False), ("counterexample", (RUN, OTHER_RUN)))),
    (PropagationResult, (("holds", True), ("counterexample", None), ("strict_somewhere", True))),
    (Bound, (("max_total_events", 13), ("max_events_per_location", 2))),
    (ExecutionSet, (("frame", FRAME), ("bound", Bound(2)))),
    (MachineSpec, MACHINE),
    (PurgeKind, (("kind", "hy"), ("target", "d2"))),
    (PurgeValidation, (("visible_inputs_ok", False), ("witness", (RUN, OTHER_RUN)))),
    (PurgeVerdict, (("holds", True), ("witness", None))),
    (
        FirewallParams,
        (("filtering", "discard_all"), ("region_sends", 2)),
    ),
    (
        FirewallScenario,
        (
            ("frame", FRAME),
            ("params", FIREWALL),
            ("named_sets", {"cut": frozenset({"c"})}),
            ("blurs", {"f_i": SelectionBlur(None, frozenset({"v"}))}),
            ("importable", frozenset({"v"})),
            ("exportable", frozenset()),
        ),
    ),
    (VotingParams, (("precincts", (2, 2)), ("candidates", ("0", "1")), ("commissioners", ((1, 1),)))),
    (
        VotingScenario,
        (
            ("frame", FRAME),
            ("params", VOTING),
            ("named_sets", {"pub": frozenset({"p"})}),
            ("blurs", {"f0": PermutationBlur(("c",))}),
            ("voter_channels", (("c",),)),
        ),
    ),
    (
        Report,
        (
            ("command", "validate"),
            ("params", {"file": "f.yaml"}),
            ("verdict", True),
            ("details", {"violations": []}),
            ("notes", ["a note"]),
            ("bound", {"max_total_events": 6}),
            ("timing_s", 0.5),
        ),
    ),
]
IDS = [cls.__name__ for cls, _ in RECORDS]
FROZEN = [(cls, fields) for cls, fields in RECORDS if cls is not Report]

#: The records that compare and hash by value: cache keys, run keys, and
#: the types the tests and analyses compare.
VALUES = {
    Bound,
    CanonicalRun,
    Channel,
    CutCheck,
    Event,
    ExplicitTraces,
    Frame,
    Location,
    Lts,
    MachineSpec,
    MinCutResult,
    PathWitness,
    SelectionBlur,
}


def _build(cls, fields):
    return cls(*(value for _, value in fields))


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_and_repr(cls, fields):
    by_position = _build(cls, fields)
    by_keyword = cls(**dict(fields))
    expected = f"{cls.__name__}({', '.join(f'{name}={value!r}' for name, value in fields)})"
    assert repr(by_position) == repr(by_keyword) == expected
    for name, value in fields:
        assert getattr(by_position, name) is value
    assert by_position != tuple(value for _, value in fields)
    assert by_position != object()


def test_constructor_defaults():
    assert repr(Bound(13)) == "Bound(max_total_events=13, max_events_per_location=None)"
    assert repr(Bound(13, 2)) == "Bound(max_total_events=13, max_events_per_location=2)"
    assert repr(FirewallParams()) == repr(FIREWALL) == "FirewallParams(filtering='standard', region_sends=1)"
    assert repr(FirewallParams(region_sends=2)) == "FirewallParams(filtering='standard', region_sends=2)"
    assert repr(VotingParams(precincts=(2, 2))) == (
        "VotingParams(precincts=(2, 2), candidates=('0', '1'), commissioners=())"
    )
    assert repr(PurgeKind("hy", "d2")) == "PurgeKind(kind='hy', target='d2')"
    assert repr(PermutationBlur(("a",))) == (
        "PermutationBlur(members=('a',), blocks=None, fixed=frozenset())"
    )
    assert repr(SelectionBlur()) == "SelectionBlur(channels=None, values=None)"
    assert repr(ValidationReport()) == "ValidationReport(violations=())"
    assert ExecutionCheck(True).failures == ()
    assert FlowCheck(True, LAWS).failing_observed is None and FlowCheck(True, LAWS).unblurred is None
    assert CutCheck(True).witness is None
    assert repr(MinCutResult(frozenset())) == "MinCutResult(cut=frozenset(), impossible=False, reason='')"
    assert DisclosureResult(True).counterexample is None
    assert repr(PropagationResult(True)) == (
        "PropagationResult(holds=True, counterexample=None, strict_somewhere=False)"
    )
    assert PurgeValidation(True).witness is None and PurgeVerdict(True).witness is None
    report = Report("validate", {}, True, {})
    assert (report.notes, report.bound, report.timing_s) == ([], None, None)


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Bound(-1), EnumerationError, "max_total_events must be >= 0"),
        (lambda: Bound(3, -1), EnumerationError, "max_events_per_location must be >= 0"),
        (lambda: Bound(3, 4), EnumerationError, "per-location bound must not exceed the total bound"),
        (
            lambda: PermutationBlur(("a", "b"), (frozenset({"a"}),)),
            BlurError,
            "blocks must partition the member channels",
        ),
        (
            lambda: TableBlur(((RUN, frozenset({OTHER_RUN})),)),
            BlurError,
            "table violates Inclusion: a run misses its own image",
        ),
        (lambda: PurgeKind("xx", "d"), MachineError, "unknown purge kind 'xx'"),
        (lambda: FirewallParams(filtering="open"), ScenarioError, "unknown filtering mode 'open'"),
        (lambda: FirewallParams(region_sends=-1), ScenarioError, "region_sends must be >= 0"),
        (
            lambda: VotingParams(precincts=(2, 0)),
            ScenarioError,
            "need at least one precinct with at least one voter",
        ),
        (
            lambda: VotingParams(candidates=("0",)),
            ScenarioError,
            "need at least two candidates for nontrivial blurs",
        ),
    ],
)
def test_constructor_checks(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


VALUE_RECORDS = [(cls, fields) for cls, fields in RECORDS if cls in VALUES]

#: Two records of one value type that differ in one field.
UNEQUAL = [
    (Bound(13), Bound(13, 2)),
    (RUN, OTHER_RUN),
    (CanonicalRun((), ()), CanonicalRun((("c", ()),), ())),
    (Channel("c", "a", "b"), Channel("c", "b", "a")),
    (Event("c", "v"), Event("c", "w")),
    (ExplicitTraces(frozenset({()})), TRACES),
    (Lts(frozenset({"s"}), "s", frozenset()), Lts(frozenset({"s", "t"}), "s", frozenset())),
    (Location("L", TRACES), Location("M", TRACES)),
    (FRAME, Frame((LOCATION,), (CHANNEL,), frozenset({"v", "w"}))),
    (MinCutResult(frozenset()), MinCutResult(None, True, "no cut")),
    (PathWitness(("a",), ()), PathWitness(("b",), ())),
    (CutCheck(False, PathWitness(("a",), ())), CutCheck(False, PathWitness(("b",), ()))),
    (
        MachineSpec(*(value for _, value in MACHINE)),
        MachineSpec(**{**dict(MACHINE), "states": ("s", "t")}),
    ),
    (SelectionBlur(values=frozenset({"v"})), SelectionBlur(values=frozenset({"w"}))),
]


@pytest.mark.parametrize("cls, fields", VALUE_RECORDS, ids=[cls.__name__ for cls, _ in VALUE_RECORDS])
def test_value_records_compare_and_hash_by_fields(cls, fields):
    a, b = _build(cls, fields), _build(cls, fields)
    assert a is not b and a == b and not a != b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != tuple(value for _, value in fields)
    for other_cls, other_fields in RECORDS:
        if other_cls is not cls:
            assert a != _build(other_cls, other_fields)


@pytest.mark.parametrize("a, b", UNEQUAL, ids=[type(a).__name__ for a, _ in UNEQUAL])
def test_value_records_with_one_field_changed_differ(a, b):
    assert a != b and not a == b


def test_every_value_record_has_an_unequal_pair():
    assert {type(a) for a, _ in UNEQUAL} == VALUES


def test_records_of_equal_fields_and_different_types_differ():
    # Two records of different types whose field tuples are equal.
    assert DisclosureResult(True, None) != PurgeVerdict(True, None)
    assert Event("c", "v") != Violation("c", "v")
    assert Event("c", "v") != ("c", "v")


@pytest.mark.parametrize("cls, fields", FROZEN, ids=[cls.__name__ for cls, _ in FROZEN])
def test_records_are_read_only(cls, fields):
    record = _build(cls, fields)
    for name, value in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
        assert getattr(record, name) is value
    with pytest.raises(AttributeError):
        record.not_a_field = 1


@pytest.mark.parametrize("cls, fields", RECORDS, ids=IDS)
def test_records_copy_and_pickle(cls, fields):
    record = _build(cls, fields)
    for twin in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(twin) is cls and repr(twin) == repr(record)
        if cls in VALUES:
            assert twin == record and hash(twin) == hash(record)


def test_report_is_mutable_and_unhashable_with_fresh_notes():
    a = Report("validate", {}, True, {})
    b = Report("validate", {}, True, {})
    a.notes.append("only a")
    assert b.notes == []
    a.timing_s = 1.5
    a.params["seed"] = 7
    assert a.timing_s == 1.5
    with pytest.raises(TypeError):
        hash(a)


#: The blur forms, which ``frames.blurforms`` defines and ``blur`` re-exports.
FORMS = [(cls, fields) for cls, fields in RECORDS if cls.__module__ == "flowcut.frames.blurforms"]


def test_blur_re_exports_the_forms():
    names = {cls.__name__ for cls, _ in FORMS}
    assert names == {
        "AllBlur", "IdentityBlur", "PartitionBlur", "PermutationBlur", "SelectionBlur", "TableBlur"
    }
    for name in names | {"BlurError", "BlurSpec"}:
        assert getattr(flowcut.blur, name) is getattr(flowcut.frames.blurforms, name)


@pytest.mark.parametrize("cls, fields", FORMS, ids=[cls.__name__ for cls, _ in FORMS])
@pytest.mark.parametrize("protocol", [0, 2])
def test_a_pickle_naming_the_blur_module_loads_the_form(cls, fields, protocol):
    # Pickles written before the forms moved name them as ``flowcut.blur``
    # attributes; the re-export loads them as the same class, equal to the
    # record pickled.
    record = _build(cls, fields)
    data = pickle.dumps(record, protocol=protocol)
    assert b"cflowcut.frames.blurforms\n" in data
    old = pickle.loads(data.replace(b"cflowcut.frames.blurforms\n", b"cflowcut.blur\n"))
    assert type(old) is cls and repr(old) == repr(record)
    if cls in VALUES:
        assert old == record and hash(old) == hash(record)


@pytest.mark.parametrize("protocol", [0, 2])
def test_a_pickle_naming_frames_loads_the_bound(protocol):
    # ``Bound`` moved from ``frames`` to the package, which ``frames``
    # re-exports it from: a pickle written before the move names it
    # ``flowcut.frames.Bound`` and loads as the same class.
    bound = Bound(13, 2)
    data = pickle.dumps(bound, protocol=protocol)
    assert b"cflowcut\nBound\n" in data
    old = pickle.loads(data.replace(b"cflowcut\nBound\n", b"cflowcut.frames\nBound\n"))
    assert type(old) is Bound and old == bound and hash(old) == hash(bound)
