"""
Blur operators, limited flow, the cut-blur principle, and frame
composition over a shared core.

A blur operator is a set function satisfying Inclusion, Idempotence, and
commutation with unions; a compatibility set fixed by the blur is what an
observer is allowed to pin down.  Blur universes are always the bounded
local-run sets, and blur application never escapes the universe.

The theorem-shaped operations here (cut-blur, composition) report their
antecedent and consequent separately instead of assuming the implication:
a failed implication flags an implementation bug, not a refuted theorem.

The blur forms themselves are defined in ``frames.blurforms``, which a
frame file's ``blurs`` block is read with, and imported from there; this
module holds what applies them.  The flow checks import ``disclosure``, ``cuts``
and ``enumeration`` when they are called.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Iterable

from .frames.blurforms import AllBlur, BlurError, BlurSpec, PartitionBlur, TableBlur
from .events import CanonicalRun
from .frames import Bound, Frame, InputError, _Record, shortest_language_difference

if TYPE_CHECKING:
    from .cuts import ChannelSetTriple


class SharedCoreError(InputError):
    """The claimed shared core fails endpoint or trace agreement, or its
    side condition is unverified."""


# -- blur application ------------------------------------------------------
#
# Every form commutes with unions (see ``frames.blurforms``), so f(S) is
# the union of the classes of S.  ``_ClassIndex`` numbers the classes of
# one universe once per call.


class _ClassIndex:
    """One blur's classes over one universe, numbered when built: the key
    forms group the universe by key, a partition blur numbers its blocks
    and a table blur its rows.  It lives for one call, which builds it
    once; nothing is cached between calls."""

    def __init__(self, blur: BlurSpec, universe: frozenset[CanonicalRun]) -> None:
        self.universe = universe
        self.of_empty = universe if isinstance(blur, AllBlur) else frozenset()
        self.unclassed = "run outside universe"
        #: Grouped by key, so the classes partition the universe and every
        #: image is fixed: the blur laws hold without a scan.
        self.keyed = False
        if isinstance(blur, PartitionBlur):
            rows: Iterable = ((block, block) for block in blur.blocks)
            self.unclassed = "run outside the partitioned universe"
        elif isinstance(blur, TableBlur):
            rows = (((run,), image) for run, image in blur.table)
            self.unclassed = "run outside the tabled universe"
        else:
            self.keyed = True
            groups: dict[Hashable, list[CanonicalRun]] = {}
            for run in universe:
                groups.setdefault(blur.key(run), []).append(run)
            rows = ((group, frozenset(group)) for group in groups.values())
        self.class_of: dict[CanonicalRun, int] = {}
        self.classes: list[frozenset[CanonicalRun]] = []
        for runs, image in rows:
            for run in runs:
                self.class_of.setdefault(run, len(self.classes))
            self.classes.append(image)

    def apply(self, s: frozenset[CanonicalRun]) -> frozenset[CanonicalRun]:
        if not s <= self.universe:
            raise BlurError("run outside universe")
        try:
            ids = {self.class_of[run] for run in s}
        except KeyError:
            raise BlurError(self.unclassed) from None
        if not ids:
            return self.of_empty
        if len(ids) == 1:
            return self.classes[ids.pop()]
        return frozenset().union(*(self.classes[i] for i in ids))

    def laws(self) -> BlurValidation:
        """The blur laws on the universe; see ``validate_blur``.  Raises
        BlurError when the least run, by serialization, whose image is not
        fixed has an image outside the universe."""
        image = {r: self.apply(frozenset({r})) for r in self.universe}
        drifting = [r for r, c in image.items() if not c <= self.universe or self.apply(c) != c]
        if drifting:
            self.apply(image[min(drifting, key=CanonicalRun.serialize)])
        partition = all(image.get(b) == c for c in set(image.values()) for b in c)
        return BlurValidation(not drifting, partition)


def blur_apply(
    blur: BlurSpec,
    s: Iterable[CanonicalRun],
    universe: Iterable[CanonicalRun],
) -> frozenset[CanonicalRun]:
    """Apply a blur to a set of runs within its universe."""
    return _ClassIndex(blur, frozenset(universe)).apply(frozenset(s))


# -- blur validation -------------------------------------------------------


class BlurValidation(_Record):
    __slots__ = ("idempotence_ok", "partition_generated")
    # Every form's class of a run holds the run, and f(S) is the union of
    # the classes of S's runs, so these two laws hold by construction.
    inclusion_ok = True
    union_ok = True

    def __init__(self, idempotence_ok: bool, partition_generated: bool) -> None:
        self._fill(idempotence_ok, partition_generated)

    @property
    def is_blur(self) -> bool:
        return self.idempotence_ok

    def __bool__(self) -> bool:
        return self.is_blur


def validate_blur(blur: BlurSpec, universe: Iterable[CanonicalRun]) -> BlurValidation:
    """Decide the blur laws on the bounded universe.

    Inclusion and Union hold for every form by construction.  A blur that
    commutes with unions is idempotent iff it is idempotent on singletons,
    so Idempotence is tested exactly, on each run's image.  The report also
    says whether the blur is generated by a partition: a blur can pass all
    three laws while no equivalence relation produces it.
    """
    return _ClassIndex(blur, frozenset(universe)).laws()


# -- limited flow ----------------------------------------------------------


class FlowCheck(_Record):
    __slots__ = ("holds", "laws", "failing_observed", "unblurred")

    def __init__(
        self,
        holds: bool,
        laws: BlurValidation,
        failing_observed: CanonicalRun | None = None,
        unblurred: CanonicalRun | None = None,
    ) -> None:
        self._fill(holds, laws, failing_observed, unblurred)

    def __bool__(self) -> bool:
        return self.holds


def f_limits_flow(
    frame: Frame,
    source: Iterable[str],
    observed: Iterable[str],
    blur: BlurSpec,
    bound: Bound,
) -> FlowCheck:
    """True iff every observation's compatibility set is fixed by the blur.

    On failure, reports the observed run plus a run the blur adds to the
    compatibility set without it being compatible.  The blur's laws on the
    source universe come with the result; a partition or table blur's are
    decided on the flow loop's class index.
    """
    from .disclosure import _cmpt_table, _first_leak

    src = frame.check_channels(source)
    obs = frame.check_channels(observed)
    table = _cmpt_table(frame, obs, src, bound)
    # Every execution's source run is compatible with its observed run, so
    # the table's values cover the source universe.
    index = _ClassIndex(blur, frozenset().union(*table.values()))
    laws = BlurValidation(True, True) if index.keyed else index.laws()
    leak = _first_leak(table, index.apply, CanonicalRun.serialize)
    return FlowCheck(leak is None, laws, *(leak or ()))


class CutBlurVerdict(_Record):
    __slots__ = ("antecedent", "consequent", "implication_holds")

    def __init__(self, antecedent: FlowCheck, consequent: FlowCheck, implication_holds: bool) -> None:
        self._fill(antecedent, consequent, implication_holds)

    def __bool__(self) -> bool:
        return self.implication_holds


def verify_cut_blur(
    frame: Frame,
    triple: ChannelSetTriple,
    blur: BlurSpec,
    bound: Bound,
) -> CutBlurVerdict:
    """Check limited flow into the cut and into the sink, reporting both.

    The implication (flow limited to the cut implies flow limited to the
    sink) should never fail; a failure detects an implementation bug.
    """
    from .cuts import is_cut

    check = is_cut(frame, triple)
    if not check.is_cut:
        raise BlurError("the given triple is not a cut")
    antecedent = f_limits_flow(frame, triple.source, triple.cut, blur, bound)
    consequent = f_limits_flow(frame, triple.source, triple.sink, blur, bound)
    return CutBlurVerdict(antecedent, consequent, (not antecedent.holds) or consequent.holds)


# -- shared cores and composition -------------------------------------------


class SharedCore(_Record):
    """A location set common to two frames with identical endpoints and
    traces; its boundary channels form the cut for composition."""

    __slots__ = (
        "frame1", "frame2", "core_locations", "left0", "cut0", "right1", "right2",
        "run_inclusion_ok", "run_inclusion_counterexample", "bound",
    )

    def __init__(
        self,
        frame1: Frame,
        frame2: Frame,
        core_locations: frozenset[str],
        left0: frozenset[str],
        cut0: frozenset[str],
        right1: frozenset[str],
        right2: frozenset[str],
        run_inclusion_ok: bool,
        run_inclusion_counterexample: CanonicalRun | None,
        bound: Bound,
    ) -> None:
        self._fill(
            frame1, frame2, core_locations, left0, cut0, right1, right2,
            run_inclusion_ok, run_inclusion_counterexample, bound,
        )


def _pends_of(frame: Frame, loc: str) -> frozenset[tuple[str, str]]:
    out: set[tuple[str, str]] = set()
    for c in frame.channels:
        if c.sender == loc:
            out.add(("entry", c.id))
        if c.recipient == loc:
            out.add(("exit", c.id))
    return frozenset(out)


def build_shared_core(frame1: Frame, frame2: Frame, l0: Iterable[str], bound: Bound) -> SharedCore:
    """Validate a shared location set and derive the channel partition.

    Endpoint sets must agree exactly on the core, and so must trace sets:
    one walk over pairs of behavior states compares each core location's
    two trace sets exactly, whatever their forms and the bound, and a
    mismatch names the shortest trace in only one of them.  The side
    condition (the second frame has no new cut runs) is checked by
    enumeration and recorded, not assumed.
    """
    from .enumeration import enumerate_runs

    core = frozenset(l0)
    for frame, tag in ((frame1, "first"), (frame2, "second")):
        missing = core - set(frame.location_ids)
        if missing:
            raise SharedCoreError(f"core location {min(missing)!r} missing from the {tag} frame")

    for loc in sorted(core):
        p1, p2 = _pends_of(frame1, loc), _pends_of(frame2, loc)
        if p1 != p2:
            diff = min(p1 ^ p2)
            raise SharedCoreError(f"endpoint mismatch at {loc!r}: {diff} held in one frame only")
        b1 = frame1.location(loc).behavior
        b2 = frame2.location(loc).behavior
        witness = shortest_language_difference(b1, b2)
        if witness is not None:
            raise SharedCoreError(f"trace mismatch at {loc!r}: first differing trace {witness}")

    left0: set[str] = set()
    cut0: set[str] = set()
    right1: set[str] = set()
    for c in frame1.channels:
        inside = (c.sender in core) + (c.recipient in core)
        if inside == 2:
            left0.add(c.id)
        elif inside == 1:
            cut0.add(c.id)
        else:
            right1.add(c.id)
    right2 = {
        c.id
        for c in frame2.channels
        if c.sender not in core and c.recipient not in core
    }

    runs2 = enumerate_runs(frame2, cut0, bound)
    runs1 = enumerate_runs(frame1, cut0, bound)
    extra = runs2 - runs1
    counterexample = min(extra, key=CanonicalRun.serialize) if extra else None
    return SharedCore(
        frame1,
        frame2,
        core,
        frozenset(left0),
        frozenset(cut0),
        frozenset(right1),
        frozenset(right2),
        not extra,
        counterexample,
        bound,
    )


class CompositionVerdict(_Record):
    __slots__ = ("antecedent", "consequent", "locality_ok", "implication_holds")

    def __init__(
        self, antecedent: FlowCheck, consequent: FlowCheck, locality_ok: bool, implication_holds: bool
    ) -> None:
        self._fill(antecedent, consequent, locality_ok, implication_holds)

    def __bool__(self) -> bool:
        return self.implication_holds and self.locality_ok


def verify_composition(
    core: SharedCore,
    source: Iterable[str],
    observed: Iterable[str],
    blur: BlurSpec,
) -> CompositionVerdict:
    """Transport a flow limit across the shared core, at the core's bound,
    where its side condition was checked.

    Checks the blur limit from the source to the core boundary in the
    first frame, then asserts the same limit from the source to the
    observed channels of the second frame.  Also checks boundary locality:
    for every cut run both frames can produce, their compatibility sets
    back into the core coincide.
    """
    from .disclosure import _cmpt_table

    src = frozenset(source)
    obs = frozenset(observed)
    if not src <= core.left0:
        raise SharedCoreError("source channels must lie inside the shared core")
    if not obs <= core.right2:
        raise SharedCoreError("observed channels must lie beyond the core in the second frame")
    if not core.run_inclusion_ok:
        raise SharedCoreError(
            "side condition unverified: the second frame has cut runs the first lacks"
        )

    bound = core.bound
    antecedent = f_limits_flow(core.frame1, src, core.cut0, blur, bound)
    consequent = f_limits_flow(core.frame2, src, obs, blur, bound)

    t1 = _cmpt_table(core.frame1, core.cut0, src, bound)
    t2 = _cmpt_table(core.frame2, core.cut0, src, bound)
    shared_runs = set(t1) & set(t2)
    locality = all(t1[bc] == t2[bc] for bc in shared_runs)

    return CompositionVerdict(
        antecedent,
        consequent,
        locality,
        (not antecedent.holds) or consequent.holds,
    )
