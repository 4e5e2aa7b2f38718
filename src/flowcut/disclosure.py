"""
Compatibility sets, no-disclosure, observational equivalence, and the
cross-cut merge of local runs.

An observer at channel set C sees a C-run and asks which C'-runs could
have occurred alongside it: those jointly realizable with the observation
in a single execution.  No disclosure from C to C' means every C-run is
compatible with every C'-run.  All verdicts here are relative to the
enumeration bound and reports must say so.
"""

from __future__ import annotations

from typing import Callable, Iterable, TYPE_CHECKING

from .enumeration import Bound, enumerate_executions, enumerate_runs
from .events import (
    CanonicalRun,
    EventSystem,
    EventSystemError,
    is_execution,
)
from .frames import Frame, _Record

if TYPE_CHECKING:
    from .blur import SharedCore


class MergeError(ValueError):
    """Inputs to the merge disagree on the cut."""


class MergeInvariantError(RuntimeError):
    """The merged order had a cycle or failed to be an execution; this
    indicates a violated precondition or an internal bug."""


class CompatQuery(_Record):
    __slots__ = ("observed", "source", "observed_run", "bound")

    def __init__(
        self, observed: frozenset[str], source: frozenset[str], observed_run: CanonicalRun, bound: Bound
    ) -> None:
        self._fill(observed, source, observed_run, bound)

    @staticmethod
    def of(
        observed: Iterable[str],
        source: Iterable[str],
        observed_run: CanonicalRun,
        bound: Bound,
    ) -> "CompatQuery":
        return CompatQuery(frozenset(observed), frozenset(source), observed_run, bound)


def _cmpt_table(
    frame: Frame, observed: frozenset[str], source: frozenset[str], bound: Bound
) -> dict[CanonicalRun, frozenset[CanonicalRun]]:
    """Map each observed run to the set of source runs co-realized with it.
    Built on each call from the execution set's memoized local runs."""
    frame.check_channels(observed)
    frame.check_channels(source)
    exset = enumerate_executions(frame, bound)
    table: dict[CanonicalRun, set[CanonicalRun]] = {}
    for obs, src in zip(exset.runs_at(observed), exset.runs_at(source)):
        table.setdefault(obs, set()).add(src)
    return {k: frozenset(v) for k, v in table.items()}


def _first_leak(
    table: dict[CanonicalRun, frozenset[CanonicalRun]],
    f: Callable[[frozenset[CanonicalRun]], frozenset[CanonicalRun]],
) -> tuple[CanonicalRun, CanonicalRun] | None:
    """The least observed run (by serialization) whose compatibility set
    ``f`` enlarges, and the least run ``f`` adds to it; None when ``f``
    fixes every compatibility set of the table."""
    for b in sorted(table, key=CanonicalRun.serialize):
        extra = f(table[b]) - table[b]
        if extra:
            return b, min(extra, key=CanonicalRun.serialize)
    return None


def compatible_runs(frame: Frame, query: CompatQuery) -> frozenset[CanonicalRun]:
    """The source-runs compatible with the observed run.

    Empty when the observed run is not realizable at the bound; observed
    and source sets may overlap.
    """
    table = _cmpt_table(frame, query.observed, query.source, query.bound)
    return table.get(query.observed_run, frozenset())


class DisclosureResult(_Record):
    __slots__ = ("holds", "counterexample")

    def __init__(
        self, holds: bool, counterexample: tuple[CanonicalRun, CanonicalRun] | None = None
    ) -> None:
        self._fill(holds, counterexample)

    def __bool__(self) -> bool:
        return self.holds


def no_disclosure(
    frame: Frame, observed: Iterable[str], source: Iterable[str], bound: Bound
) -> DisclosureResult:
    """True iff every observed run is compatible with every source run.

    The counterexample, when present, is an observed run B and a source
    run B' that never occur together in one bounded execution: the
    witness of flow limited by the all-blur.
    """
    obs = frame.check_channels(observed)
    src = frame.check_channels(source)
    table = _cmpt_table(frame, obs, src, bound)
    # Every execution's source run is compatible with its observed run, so
    # the table's values cover the source universe.
    all_src = frozenset().union(*table.values())
    leak = _first_leak(table, lambda compat: all_src)
    return DisclosureResult(leak is None, leak)


def check_symmetry(
    frame: Frame, c1: Iterable[str], c2: Iterable[str], bound: Bound
) -> tuple[DisclosureResult, DisclosureResult]:
    """Both directions of the no-disclosure verdict; the two must agree."""
    return (
        no_disclosure(frame, c1, c2, bound),
        no_disclosure(frame, c2, c1, bound),
    )


def obs_equivalent(
    frame: Frame,
    source: Iterable[str],
    observed: Iterable[str],
    b1: CanonicalRun,
    b2: CanonicalRun,
    bound: Bound,
) -> bool:
    """True iff no observation at ``observed`` distinguishes the two
    source runs: they belong to exactly the same compatibility sets."""
    src = frame.check_channels(source)
    obs = frame.check_channels(observed)
    table = _cmpt_table(frame, obs, src, bound)
    universe = frozenset().union(*table.values())
    if b1 not in universe or b2 not in universe:
        raise ValueError("obs_equivalent requires source runs realizable at the bound")
    return all((b1 in compat) == (b2 in compat) for compat in table.values())


class PropagationResult(_Record):
    __slots__ = ("holds", "counterexample", "strict_somewhere")

    def __init__(
        self,
        holds: bool,
        counterexample: tuple[CanonicalRun, CanonicalRun] | None = None,
        strict_somewhere: bool = False,
    ) -> None:
        self._fill(holds, counterexample, strict_somewhere)

    def __bool__(self) -> bool:
        return self.holds


def cmpt_propagation_check(
    frame: Frame,
    c1: Iterable[str],
    c2: Iterable[str],
    c3: Iterable[str],
    bound: Bound,
) -> PropagationResult:
    """Check that compatibility propagates through an intermediate channel
    set: everything compatible with a C1-run at C3 is reachable through
    some compatible C2-run.

    The inclusion can be strict; strictness is reported, not classified.
    """
    s1 = frame.check_channels(c1)
    s2 = frame.check_channels(c2)
    s3 = frame.check_channels(c3)
    t13 = _cmpt_table(frame, s1, s3, bound)
    t12 = _cmpt_table(frame, s1, s2, bound)
    t23 = _cmpt_table(frame, s2, s3, bound)
    strict = False
    for b1 in sorted(t13, key=CanonicalRun.serialize):
        lhs = t13[b1]
        rhs: set[CanonicalRun] = set()
        for b2 in t12.get(b1, frozenset()):
            rhs |= t23.get(b2, frozenset())
        extra = lhs - rhs
        if extra:
            return PropagationResult(False, (b1, min(extra, key=CanonicalRun.serialize)), strict)
        if rhs - lhs:
            strict = True
    return PropagationResult(True, None, strict)


def merge_across_cut(
    frame_left: Frame,
    frame_right: Frame,
    shared: "SharedCore",
    b_lc: CanonicalRun,
    b_rc: CanonicalRun,
    bound: Bound | None = None,
) -> EventSystem:
    """Combine a left-plus-cut run of one frame with a right-plus-cut run
    of another into a single execution of the right frame.

    The two runs must agree on the cut channels of the shared core; the
    result carries their event union (cut events identified by canonical
    id) under the least partial order extending both.  When ``bound`` is
    given, the run preconditions are verified by enumeration first.
    """
    cut = shared.cut0
    left_chans = shared.left0 | cut
    right_chans = frozenset(frame_right.channel_ids) - shared.left0

    if b_lc.restrict(cut) != b_rc.restrict(cut):
        raise MergeError("input runs disagree on the cut channels")
    if not b_lc.channel_ids <= left_chans:
        raise MergeError("left run uses channels outside LEFT0 and the cut")
    if not b_rc.channel_ids <= right_chans:
        raise MergeError("right run uses channels outside RIGHT2 and the cut")
    if bound is not None:
        if b_lc not in enumerate_runs(frame_left, left_chans, bound):
            raise MergeError("left input is not a local run of its frame at the bound")
        if b_rc not in enumerate_runs(frame_right, right_chans, bound):
            raise MergeError("right input is not a local run of its frame at the bound")

    per_chan: dict[str, tuple[str, ...]] = {}
    for run in (b_lc, b_rc):
        for chan, msgs in run.channels:
            if chan in per_chan and per_chan[chan] != msgs:
                raise MergeError(f"runs disagree on channel {chan!r}")
            per_chan[chan] = msgs

    try:
        union = CanonicalRun.build(per_chan.items(), b_lc.order + b_rc.order)
    except EventSystemError as exc:
        raise MergeInvariantError(
            "least order extending the two runs is cyclic; inputs were not "
            "restrictions of executions agreeing on the cut"
        ) from exc
    merged = union.to_event_system()
    check = is_execution(merged, frame_right)
    if not check.ok:
        raise MergeInvariantError(f"merged system is not an execution: {check.failures}")
    if union.restrict(left_chans) != b_lc or union.restrict(right_chans) != b_rc:
        raise MergeInvariantError("merged execution does not restrict back to its inputs")
    return merged
