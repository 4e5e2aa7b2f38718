"""
Star-shaped state-machine frames, purge functions, and the purge-based
noninterference / nondeducibility checks.

A machine with per-domain observation functions becomes a frame with one
hub location and one spoke location per domain: domain d feeds actions to
the hub on its input channel and receives observations on its output
channel.  After each accepted input the hub broadcasts one observation per
domain in fixed index order; this concrete output protocol is a modelling
choice the definitions are sensitive to, so it is stated here once and
surfaced in reports.

Purges map executions to the subsequence of input events a target domain
is entitled to know about.  The chain-based intransitive purge retains an
input when an increasing subsequence of influences links it to the target
domain; the chain may end at any event whose domain influences the target
directly, which is what makes the purge determine the target's visible
inputs and collapse to the simple purge under transitive policies.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .blur import PartitionBlur, _ClassIndex
from .enumeration import Bound, enumerate_executions, enumerate_runs
from .events import CanonicalRun, EventSystem, canonicalize, chain_order, is_execution
from .frames import Channel, Frame, InputError, Label, Location, Lts, _compared_by, _Record


class MachineError(InputError):
    """Raised for malformed machine specifications."""


HUB = "M"


class MachineSpec(_Record):
    """Finite nondeterministic state machine with security domains.

    ``influence`` must be reflexive; transitivity is not required.  The
    transition relation may be partial.
    """

    __slots__ = (
        "domains", "influence", "actions", "action_domain", "outputs", "states", "initial",
        "transitions", "obs", "_dom", "_obs",
    )
    # ``_dom`` and ``_obs`` are ``action_domain`` and ``obs`` as dicts.
    __eq__, __hash__ = _compared_by(*__slots__[:-2])

    def __init__(
        self,
        domains: tuple[str, ...],
        influence: frozenset[tuple[str, str]],
        actions: tuple[str, ...],
        action_domain: tuple[tuple[str, str], ...],
        outputs: tuple[str, ...],
        states: tuple[str, ...],
        initial: str,
        transitions: frozenset[tuple[str, str, str]],
        obs: tuple[tuple[tuple[str, str], str], ...],
    ) -> None:
        self._fill(
            domains, influence, actions, action_domain, outputs, states, initial, transitions, obs,
            dict(action_domain), dict(obs),
        )

    @staticmethod
    def build(
        domains: Iterable[str],
        influence: Iterable[tuple[str, str]],
        action_domain: dict[str, str],
        outputs: Iterable[str],
        states: Iterable[str],
        initial: str,
        transitions: Iterable[tuple[str, str, str]],
        obs: dict[tuple[str, str], str],
    ) -> "MachineSpec":
        """Build and validate a machine; reflexive influence pairs are
        implicit and added here."""
        doms = tuple(sorted(domains))
        spec = MachineSpec(
            domains=doms,
            influence=frozenset((a, b) for a, b in influence)
            | {(d, d) for d in doms},
            actions=tuple(sorted(action_domain)),
            action_domain=tuple(sorted(action_domain.items())),
            outputs=tuple(sorted(outputs)),
            states=tuple(sorted(states)),
            initial=initial,
            transitions=frozenset(transitions),
            obs=tuple(sorted(obs.items())),
        )
        spec.validate()
        return spec

    def validate(self) -> None:
        doms = set(self.domains)
        if HUB in doms:
            raise MachineError(f"domain name {HUB!r} is reserved for the hub location")
        for d in doms:
            if (d, d) not in self.influence:
                raise MachineError(f"influence relation is not reflexive at {d!r}")
        for a, b in self.influence:
            if a not in doms or b not in doms:
                raise MachineError(f"influence pair ({a!r},{b!r}) names unknown domain")
        dom_map = self._dom
        for a in self.actions:
            if dom_map.get(a) not in doms:
                raise MachineError(f"action {a!r} has no domain")
        state_set = set(self.states)
        if self.initial not in state_set:
            raise MachineError("initial state not declared")
        for s, a, t in self.transitions:
            if s not in state_set or t not in state_set:
                raise MachineError("transition uses unknown state")
            if a not in dom_map:
                raise MachineError(f"transition uses unknown action {a!r}")
        obs_map, outputs = self._obs, set(self.outputs)
        for s in self.states:
            for d in self.domains:
                if (s, d) not in obs_map:
                    raise MachineError(f"obs missing for state {s!r}, domain {d!r}")
            for o in (obs_map[(s, d)] for d in self.domains):
                if o not in outputs:
                    raise MachineError(f"obs uses undeclared output {o!r}")

    def dom(self, action: str) -> str:
        return self._dom[action]

    def observation(self, state: str, domain: str) -> str:
        return self._obs[(state, domain)]

    def influences(self, a: str, b: str) -> bool:
        return (a, b) in self.influence

    # Channel naming for the star frame.
    def in_chan(self, domain: str) -> str:
        return f"in_{domain}"

    def out_chan(self, domain: str) -> str:
        return f"out_{domain}"

    def input_channels(self) -> frozenset[str]:
        return frozenset(self.in_chan(d) for d in self.domains)

    def domain_channels(self, domain: str) -> frozenset[str]:
        """C_i: the target domain's own input and output channels."""
        return frozenset({self.in_chan(domain), self.out_chan(domain)})

    def visible_inputs(self, domain: str) -> frozenset[str]:
        return frozenset(
            self.in_chan(d) for d in self.domains if self.influences(d, domain)
        )


class PurgeKind(_Record):
    """``kind`` is "gm" (retain inputs visible to the target) or "hy"
    (retain inputs chained to the target through the influence order)."""

    __slots__ = ("kind", "target")

    def __init__(self, kind: str, target: str) -> None:
        if kind not in ("gm", "hy"):
            raise MachineError(f"unknown purge kind {kind!r}")
        self._fill(kind, target)


def star_frame(machine: MachineSpec) -> Frame:
    """The frame of a machine: hub plus one location per domain.

    The hub alternates strictly: accept one input on some domain's input
    channel (when the machine has a matching transition), then emit the
    new state's observation for every domain on the output channels, in
    domain order, then accept the next input.  Domain locations send any
    of their own actions and receive any output, in any order.
    """
    machine.validate()
    k = len(machine.domains)
    dom_map = machine._dom

    hub_states: set[str] = set()
    hub_trans: set[tuple[str, Label, str]] = set()

    def hub_state(s: str, j: int) -> str:
        return f"{s}#{j}"

    for s in machine.states:
        for j in range(k + 1):
            hub_states.add(hub_state(s, j))
    for (s, a, t) in machine.transitions:
        d = dom_map[a]
        hub_trans.add((hub_state(s, k), (machine.in_chan(d), a), hub_state(t, 0)))
    for s in machine.states:
        for j, d in enumerate(machine.domains):
            out_val = machine.observation(s, d)
            hub_trans.add(
                (hub_state(s, j), (machine.out_chan(d), out_val), hub_state(s, j + 1))
            )
    hub = Location(HUB, Lts(frozenset(hub_states), hub_state(machine.initial, k), frozenset(hub_trans)))

    locations = [hub]
    channels = []
    sends: dict[str, list[str]] = {d: [] for d in machine.domains}
    for a in machine.actions:
        sends[dom_map[a]].append(a)
    for d in machine.domains:
        trans = {("idle", (machine.in_chan(d), a), "idle") for a in sends[d]}
        for o in machine.outputs:
            trans.add(("idle", (machine.out_chan(d), o), "idle"))
        locations.append(Location(d, Lts(frozenset({"idle"}), "idle", frozenset(trans))))
        channels.append(Channel(machine.in_chan(d), d, HUB))
        channels.append(Channel(machine.out_chan(d), HUB, d))

    data = set(machine.actions) | set(machine.outputs)
    return Frame.build(locations, channels, data)


# -- purges ----------------------------------------------------------------

#: A purged value: the retained input events as a (channel, message) sequence.
PurgedValue = tuple[Label, ...]


def input_sequence(machine: MachineSpec, run: CanonicalRun) -> tuple[Label, ...]:
    """Flatten an input-channel run of the star frame into a sequence.

    Star-frame executions are totally ordered, so their input restrictions
    are chains.
    """
    chain, bad = chain_order(range(run.n_events), run.ancestors)
    if bad is not None:
        raise MachineError("input run of a star frame must be totally ordered")
    labels = [(chan, m) for chan, msgs in run.channels for m in msgs]
    return tuple(labels[i] for i in chain)


PurgeFn = Callable[[Sequence[Label]], PurgedValue]


def _check_target(machine: MachineSpec, kind: PurgeKind) -> None:
    if kind.target not in machine.domains:
        raise MachineError(
            f"unknown purge target {kind.target!r}; declared domains: {list(machine.domains)}"
        )


def _purge_fn(machine: MachineSpec, kind: PurgeKind) -> PurgeFn:
    """The purge of input sequences for the target domain, with the
    channel-to-domain map and the target's visible inputs computed once."""
    _check_target(machine, kind)
    chan_dom = {machine.in_chan(d): d for d in machine.domains}
    vis = machine.visible_inputs(kind.target)

    def purge_inputs(inputs: Sequence[Label]) -> PurgedValue:
        for chan, _ in inputs:
            if chan not in chan_dom:
                raise MachineError(f"non-input channel {chan!r} in purge input")
        if kind.kind == "gm":
            return tuple(ev for ev in inputs if ev[0] in vis)
        # Chain purge: event i is retained when an increasing subsequence of
        # pairwise-influencing events starting at i ends in an event whose
        # domain influences the target.
        n = len(inputs)
        retained = [False] * n
        for i in range(n - 1, -1, -1):
            d_i = chan_dom[inputs[i][0]]
            if machine.influences(d_i, kind.target):
                retained[i] = True
                continue
            retained[i] = any(
                retained[j] and machine.influences(d_i, chan_dom[inputs[j][0]])
                for j in range(i + 1, n)
            )
        return tuple(ev for i, ev in enumerate(inputs) if retained[i])

    return purge_inputs


def purge_sequence(machine: MachineSpec, kind: PurgeKind, inputs: Sequence[Label]) -> PurgedValue:
    """Purge an input sequence for the target domain."""
    return _purge_fn(machine, kind)(inputs)


def purge(machine: MachineSpec, kind: PurgeKind, execution: EventSystem) -> PurgedValue:
    """Purge an execution of the machine's star frame.

    Depends only on the execution's input events.
    """
    frame = star_frame(machine)
    try:
        check = is_execution(execution, frame)
    except Exception as exc:
        raise MachineError(f"not an execution of the star frame: {exc}") from exc
    if not check.ok:
        raise MachineError(f"not an execution of the star frame: {check.failures}")
    in_run = canonicalize(execution.restrict(machine.input_channels()))
    return purge_sequence(machine, kind, input_sequence(machine, in_run))


# -- validation of the purge laws -------------------------------------------


class PurgeValidation(_Record):
    __slots__ = ("visible_inputs_ok", "witness")
    # Every purge value is computed from the execution's input sequence,
    # so equal inputs give equal purges by construction.
    inputs_only_ok = True

    def __init__(
        self, visible_inputs_ok: bool, witness: tuple[CanonicalRun, CanonicalRun] | None = None
    ) -> None:
        self._fill(visible_inputs_ok, witness)

    def __bool__(self) -> bool:
        return self.visible_inputs_ok


def _execution_rows(
    machine: MachineSpec,
    kind: PurgeKind,
    bound: Bound,
    view: Iterable[str] | None = None,
    purge_fn: PurgeFn | None = None,
):
    """The star frame and, per bounded execution, its purge value, its
    input run and its run at ``view`` (default: the target's channels)."""
    frame = star_frame(machine)
    fn = purge_fn if purge_fn is not None else _purge_fn(machine, kind)
    view = machine.domain_channels(kind.target) if view is None else view
    exset = enumerate_executions(frame, bound)
    values: dict[CanonicalRun, PurgedValue] = {}  # each distinct input run purged once
    rows = []
    for in_run, view_run in zip(exset.runs_at(machine.input_channels()), exset.runs_at(view)):
        value = values.get(in_run)
        if value is None:
            value = values[in_run] = fn(input_sequence(machine, in_run))
        rows.append((value, in_run, view_run))
    return frame, rows


def _view_conflict(
    rows, executions: Sequence[CanonicalRun]
) -> tuple[CanonicalRun, CanonicalRun] | None:
    """The input runs of the first two purge-equal rows whose views differ,
    the rows taken in the serialization order of their executions
    (``executions[i]`` is row i's).  Only a group holding two views can
    conflict, and its first row in any order is one of its own, so only
    the rows of such groups are sorted."""
    first_view: dict[PurgedValue, CanonicalRun] = {}
    mixed: set[PurgedValue] = set()
    for value, _, view_run in rows:
        if first_view.setdefault(value, view_run) != view_run:
            mixed.add(value)
    order = [i for i, row in enumerate(rows) if row[0] in mixed]
    order.sort(key=lambda i: executions[i].serialize())
    first: dict[PurgedValue, tuple[CanonicalRun, CanonicalRun]] = {}
    for i in order:
        value, in_run, view_run = rows[i]
        in_run_0, view_run_0 = first.setdefault(value, (in_run, view_run))
        if view_run_0 != view_run:
            return in_run_0, in_run
    return None


def validate_purge(
    machine: MachineSpec,
    kind: PurgeKind,
    bound: Bound,
    purge_fn: PurgeFn | None = None,
) -> PurgeValidation:
    """Check the purge-function laws over all bounded executions.  Equal
    inputs give equal purges by construction; equal purges must give
    equal restrictions to the target's visible input channels, and the
    witness is the input runs of the first two executions, in
    serialization order, that do not.

    ``purge_fn`` substitutes a custom purge of input sequences, which is
    how broken purges are exercised as negative controls.
    """
    _check_target(machine, kind)
    vis = machine.visible_inputs(kind.target)
    frame, rows = _execution_rows(machine, kind, bound, vis, purge_fn)
    witness = _view_conflict(rows, enumerate_executions(frame, bound).canonicals)
    return PurgeValidation(witness is None, witness)


# -- noninterference and nondeducibility -------------------------------------


class PurgeVerdict(_Record):
    __slots__ = ("holds", "witness")

    def __init__(self, holds: bool, witness: tuple[CanonicalRun, CanonicalRun] | None = None) -> None:
        self._fill(holds, witness)

    def __bool__(self) -> bool:
        return self.holds


def check_ni(machine: MachineSpec, kind: PurgeKind, bound: Bound) -> PurgeVerdict:
    """Noninterference: purge-equal executions look identical on the
    target domain's own channels."""
    frame, rows = _execution_rows(machine, kind, bound)
    witness = _view_conflict(rows, enumerate_executions(frame, bound).canonicals)
    return PurgeVerdict(witness is None, witness)


def check_nd(machine: MachineSpec, kind: PurgeKind, bound: Bound) -> PurgeVerdict:
    """Nondeducibility: for purge-equal executions, the second's inputs
    are compatible with the first's view of the target channels; that is,
    the purge blur limits flow from the inputs to the target's channels,
    with the witness ``f_limits_flow`` gives."""
    from .disclosure import _cmpt_table, _first_leak

    fn = _purge_fn(machine, kind)
    table = _cmpt_table(
        star_frame(machine), machine.domain_channels(kind.target), machine.input_channels(), bound
    )
    universe = frozenset().union(*table.values())
    blur = PartitionBlur(_purge_classes(machine, fn, universe))
    leak = _first_leak(table, _ClassIndex(blur, universe).apply)
    return PurgeVerdict(leak is None, leak)


def _purge_classes(
    machine: MachineSpec, fn: PurgeFn, runs: Iterable[CanonicalRun]
) -> tuple[frozenset[CanonicalRun], ...]:
    """Input runs grouped by purged value under ``fn``, in value order."""
    blocks: dict[PurgedValue, set[CanonicalRun]] = {}
    for run in runs:
        blocks.setdefault(fn(input_sequence(machine, run)), set()).add(run)
    return tuple(frozenset(blocks[value]) for value in sorted(blocks))


def purge_blur(machine: MachineSpec, kind: PurgeKind, bound: Bound) -> PartitionBlur:
    """The blur induced by a purge: input runs are equivalent when they
    purge equally.  Its universe is the realized bounded input runs."""
    fn = _purge_fn(machine, kind)
    universe = enumerate_runs(star_frame(machine), machine.input_channels(), bound)
    return PartitionBlur(_purge_classes(machine, fn, universe))
