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

The flow checks import ``disclosure``, ``cuts`` and ``enumeration`` when
they are called, so a frame file that declares blurs parses with only
this module, ``events`` and ``frames`` loaded.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable, Iterable

from .events import CanonicalRun
from .frames import (
    Frame,
    InputError,
    _compared_by,
    _Record,
    shortest_language_difference,
)

if TYPE_CHECKING:
    from .cuts import ChannelSetTriple
    from .enumeration import Bound


class BlurError(InputError):
    """Raised for runs outside the universe or malformed blur specs."""


class SharedCoreError(InputError):
    """The claimed shared core fails endpoint or trace agreement, or its
    side condition is unverified."""


# -- blur specifications ---------------------------------------------------
#
# Every form commutes with unions, so it is fixed by the image of each run,
# its class.  The partition-generated forms name a run's class by a key;
# blocks and tables list their classes.  ``_ClassIndex`` numbers the classes
# of one universe once per call, and f(S) is the union of the classes of S.


class IdentityBlur(_Record):
    """The maximally permissive policy: f(S) = S."""

    __slots__ = ()

    def key(self, run: CanonicalRun) -> Hashable:
        return run


class AllBlur(_Record):
    """The no-disclosure policy: f(S) = the whole (bounded) universe, for
    the empty set too."""

    __slots__ = ()

    def key(self, run: CanonicalRun) -> Hashable:
        return ()


class PartitionBlur(_Record):
    """Union of the equivalence classes meeting S, for an explicitly given
    partition of the run universe.  A run's class is the first block that
    holds it."""

    __slots__ = ("blocks",)

    def __init__(self, blocks: tuple[frozenset[CanonicalRun], ...]) -> None:
        self._fill(blocks)

    @staticmethod
    def from_equivalence(
        universe: Iterable[CanonicalRun],
        rel: Callable[[CanonicalRun, CanonicalRun], bool],
    ) -> "PartitionBlur":
        """Group the universe by the relation, verifying exhaustively that
        it is an equivalence relation there."""
        runs = sorted(universe, key=CanonicalRun.serialize)
        blocks: list[list[CanonicalRun]] = []
        for r in runs:
            if not rel(r, r):
                raise BlurError("relation is not reflexive")
            for block in blocks:
                if rel(block[0], r):
                    block.append(r)
                    break
            else:
                blocks.append([r])
        # Membership chosen by the representative must agree with the
        # relation on every pair, which fails exactly when the relation is
        # not symmetric and transitive over the universe.
        for i, b1 in enumerate(blocks):
            for b2 in blocks[i:]:
                same = b1 is b2
                for x in b1:
                    for y in b2:
                        if rel(x, y) != same or rel(y, x) != same:
                            raise BlurError(
                                "relation is not an equivalence on the universe"
                            )
        return PartitionBlur(tuple(frozenset(b) for b in blocks))


class PermutationBlur(_Record):
    """Closure under value-reallocating permutations of member channels.

    A permutation maps each member channel's message sequence to another
    member channel of the same block, leaving the event skeleton (channel
    event counts and order shape) fixed; permutations are only applicable
    between channels carrying equally many events.  ``fixed`` members may
    only map to themselves.
    """

    __slots__ = ("members", "blocks", "fixed")

    def __init__(
        self,
        members: tuple[str, ...],
        blocks: tuple[frozenset[str], ...] | None = None,
        fixed: frozenset[str] = frozenset(),
    ) -> None:
        if blocks is not None:
            flat = [m for b in blocks for m in b]
            if sorted(flat) != sorted(members):
                raise BlurError("blocks must partition the member channels")
        self._fill(members, blocks, fixed)

    def key(self, run: CanonicalRun) -> Hashable:
        """Two runs share a key exactly when a permutation maps one onto the
        other: the same order, the same sequence on every channel that
        cannot move, the same length on every channel that can, and in each
        block the same multiset of movable sequences."""
        groups = self.blocks if self.blocks is not None else (frozenset(self.members),)
        movable = [g - self.fixed for g in groups]
        moves = frozenset().union(*movable)
        seqs = dict(run.channels)
        shape = tuple((c, len(seq)) if c in moves else (c, seq) for c, seq in run.channels)
        pools = tuple(tuple(sorted(seqs[m] for m in g if m in seqs)) for g in movable)
        return run.ancestors, shape, pools


class SelectionBlur(_Record):
    """Two runs are equivalent when their restrictions to the selected
    events are isomorphic; selection is declarative over (channel, value)
    so blur specs can live in frame files.  The name is reporting
    metadata and does not affect equality."""

    __slots__ = ("name", "channels", "values")
    __eq__, __hash__ = _compared_by("channels", "values")

    def __init__(
        self,
        name: str = "selection",
        channels: frozenset[str] | None = None,
        values: frozenset[str] | None = None,
    ) -> None:
        self._fill(name, channels, values)

    def selects(self, chan: str, msg: str) -> bool:
        if self.channels is not None and chan not in self.channels:
            return False
        if self.values is not None and msg not in self.values:
            return False
        return True

    def key(self, run: CanonicalRun) -> Hashable:
        picked = (self.selects(chan, m) for chan, msgs in run.channels for m in msgs)
        return run.induced(i for i, keep in enumerate(picked) if keep)


class TableBlur(_Record):
    """Explicit action on singletons, extended by union.  Inclusion on
    singletons is enforced at construction, so Inclusion and Union hold
    by construction; Idempotence is decided by ``validate_blur``, not
    assumed, which admits blurs no partition generates.  A run's image is
    its first row."""

    __slots__ = ("table",)

    def __init__(self, table: tuple[tuple[CanonicalRun, frozenset[CanonicalRun]], ...]) -> None:
        for run, image in table:
            if run not in image:
                raise BlurError("table violates Inclusion: a run misses its own image")
        self._fill(table)


BlurSpec = IdentityBlur | AllBlur | PartitionBlur | PermutationBlur | SelectionBlur | TableBlur


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
    leak = _first_leak(table, index.apply)
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
    bound: Bound,
) -> CompositionVerdict:
    """Transport a flow limit across the shared core.

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
