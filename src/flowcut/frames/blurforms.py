"""
The blur forms: the declarative partial-disclosure policies a frame file
names, and the explicit partitions and tables the library builds.

A form only describes its blur: each names a run's class, by a key or by
listing its classes, and ``blur`` applies it to a universe of runs and
decides its laws and flows.  This module imports neither ``blur`` nor
``events``, so reading a frame file that declares blurs loads it and
``frames`` alone.  ``blur`` re-exports every name defined here.

It is a submodule of ``frames``, whose records it builds on, rather than a
module of its own: the benchmark's traced pass attributes each flowcut
module's import time to the layer its top-level name gives.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Hashable, Iterable

from . import InputError, _compared_by, _Record

if TYPE_CHECKING:
    from ..events import CanonicalRun


class BlurError(InputError):
    """Raised for runs outside the universe or malformed blur specs."""


# Every form commutes with unions, so it is fixed by the image of each run,
# its class.  The partition-generated forms name a run's class by a key;
# blocks and tables list their classes.


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
        from ..events import CanonicalRun

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
    so blur specs can live in frame files."""

    __slots__ = ("channels", "values")
    __eq__, __hash__ = _compared_by(*__slots__)

    def __init__(self, channels: frozenset[str] | None = None, values: frozenset[str] | None = None) -> None:
        self._fill(channels, values)

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
