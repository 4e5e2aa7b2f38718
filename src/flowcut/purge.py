"""
Star-shaped state-machine frames, purge functions, and the purge-based
noninterference / nondeducibility checks.

A machine with per-domain observation functions becomes a frame with one
hub location and one spoke location per domain: domain d feeds actions to
the hub on its input channel and receives observations on its output
channel.  After each accepted input the hub broadcasts one observation per
domain in fixed index order; this concrete output protocol is a modelling
choice the definitions are sensitive to, so it is stated once, in
``_hub_moves``, and surfaced in reports.

The hub takes part in every event and the spokes accept whatever the hub
offers them, so an execution of the star frame is a chain: one word of the
hub's language, and every local run of it is the subword on its channels.
The checks search those words straight from the hub's moves, a subset
construction over machine states and the output phase, and compare input
and view subwords instead of canonical runs.  Words are ordered, and
printed, by their text (``word_texts``), which is the serialization of the
run a word stands for, written from the word.  The word-level functions
``ni_witness``, ``nd_witness`` and ``input_classes`` are what the CLI runs;
``check_ni``, ``check_nd``, ``validate_purge`` and ``purge_blur`` wrap them,
and a run is built from a word (``CanonicalRun.chain``) only there, where
one is returned.  So ``events`` and the frame model are imported only in
the functions that build runs or frames: ``star_frame`` and ``purge`` keep
the frame view for callers that enumerate it.

Purges map executions to the subsequence of input events a target domain
is entitled to know about.  The chain-based intransitive purge retains an
input when an increasing subsequence of influences links it to the target
domain; the chain may end at any event whose domain influences the target
directly, which is what makes the purge determine the target's visible
inputs and collapse to the simple purge under transitive policies.
"""

from __future__ import annotations

from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from . import Bound, InputError, Label, _compared_by, _Record

if TYPE_CHECKING:
    from .events import CanonicalRun
    from .frames import Frame
    from .frames.blurforms import PartitionBlur


class MachineError(InputError):
    """Raised for malformed machine specifications."""


HUB = "M"


class MachineSpec(_Record):
    """Finite nondeterministic state machine with security domains,
    checked when it is made: the constructor (and so unpickling) raises
    ``MachineError`` for an invalid machine.

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
        self.validate()

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
        """Build a machine from unsorted fields; reflexive influence pairs
        are implicit and added here."""
        doms = tuple(sorted(domains))
        return MachineSpec(
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

    def validate(self) -> None:
        doms = set(self.domains)
        if HUB in doms:
            raise MachineError(f"domain name {HUB!r} is reserved for the hub location")
        for what, names in (("domain", self.domains), ("state", self.states), ("output", self.outputs)):
            if len(set(names)) < len(names):
                repeated = next(n for i, n in enumerate(names) if n in names[:i])
                raise MachineError(f"{what} {repeated!r} declared twice")
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
        for s, d in obs_map:
            if s not in state_set:
                raise MachineError(f"obs[{s!r}][{d!r}] names undeclared state {s!r}")
            if d not in doms:
                raise MachineError(f"obs[{s!r}][{d!r}] names undeclared domain {d!r}")

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


def _hub_moves(machine: MachineSpec) -> dict[tuple[str, int], list[tuple[Label, str]]]:
    """The hub's output protocol: each (machine state, phase) to the hub's
    moves there, as a label and the next machine state; every move of
    phase ``j`` goes to phase ``(j + 1) % (k + 1)``.  Phase ``j < k`` owes
    domain ``j`` the state's observation, and phase ``k`` accepts an input
    on some domain's input channel, one move per machine transition, in
    action order."""
    k = len(machine.domains)
    moves: dict[tuple[str, int], list[tuple[Label, str]]] = {}
    for s in machine.states:
        for j, d in enumerate(machine.domains):
            moves[s, j] = [((machine.out_chan(d), machine.observation(s, d)), s)]
        moves[s, k] = []
    for s, a, t in sorted(machine.transitions):
        moves[s, k].append(((machine.in_chan(machine.dom(a)), a), t))
    return moves


def star_frame(machine: MachineSpec) -> Frame:
    """The frame of a machine: hub plus one location per domain.

    The hub alternates strictly: accept one input on some domain's input
    channel (when the machine has a matching transition), then emit the
    new state's observation for every domain on the output channels, in
    domain order, then accept the next input.  Hub state ``s#j`` is
    machine state ``s`` at phase ``j`` of ``_hub_moves``.  Domain
    locations send any of their own actions and receive any output, in any
    order.
    """
    from .frames import Channel, Frame, Location, Lts

    k = len(machine.domains)
    moves = _hub_moves(machine)
    hub_trans = frozenset(
        (f"{s}#{j}", label, f"{t}#{(j + 1) % (k + 1)}")
        for (s, j), row in moves.items()
        for label, t in row
    )
    hub = Location(HUB, Lts(frozenset(f"{s}#{j}" for s, j in moves), f"{machine.initial}#{k}", hub_trans))

    locations = [hub]
    channels = []
    for d in machine.domains:
        trans = {("idle", (machine.in_chan(d), a), "idle") for a in machine.actions if machine.dom(a) == d}
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
    from .events import chain_order

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


def purge(machine: MachineSpec, kind: PurgeKind, execution: CanonicalRun) -> PurgedValue:
    """Purge an execution of the machine's star frame.

    Depends only on the execution's input events.
    """
    from .events import is_execution
    from .frames import UnknownChannelError

    frame = star_frame(machine)
    try:
        check = is_execution(execution, frame)
    except UnknownChannelError as exc:
        raise MachineError(f"not an execution of the star frame: {exc}") from exc
    if not check.ok:
        raise MachineError(f"not an execution of the star frame: {check.failures}")
    in_run = execution.restrict(machine.input_channels())
    return purge_sequence(machine, kind, input_sequence(machine, in_run))


# -- executions as hub words -------------------------------------------------

#: An execution of the star frame, or one of its local runs, as its word.
Word = tuple[Label, ...]


def word_texts() -> Callable[[Word], str]:
    """A writer of word texts.  A word's text is the serialization of the
    run it stands for, ``CanonicalRun.chain(word).serialize()``, written
    from the word: that run's events are the word's labels, in canonical
    order by channel and then ordinal, and its covering pairs join each
    label to the next, listed in the canonical order of the lower one.
    Reports print words as these texts and witness rules order words by
    them.  The writer keeps each channel entry (a channel and its messages)
    and each event id it writes, which the words of one search share."""
    entries: dict[tuple[str, tuple[str, ...]], str] = {}
    events: dict[str, list[str]] = {}  # channel -> its event ids, by ordinal

    def text(word: Word) -> str:
        msgs: dict[str, list[str]] = {}
        pairs: dict[str, list[str]] = {}  # channel -> the pairs its events begin
        below = None
        for chan, msg in word:
            if chan in msgs:
                k = len(msgs[chan])
                msgs[chan].append(msg)
            else:
                k = 0
                msgs[chan] = [msg]
                pairs[chan] = []
            ids = events.setdefault(chan, [])
            if k == len(ids):
                ids.append(f"[{_quote(chan)},{k}]")
            if below is not None:
                pairs[below_chan].append(f"[{below},{ids[k]}]")
            below, below_chan = ids[k], chan
        chans, order = [], []
        for chan in sorted(msgs):
            seq = tuple(msgs[chan])
            entry = entries.get((chan, seq))
            if entry is None:
                entry = entries[chan, seq] = f"[{_quote(chan)},[{','.join(map(_quote, seq))}]]"
            chans.append(entry)
            order += pairs[chan]
        return f'{{"ch":[{",".join(chans)}],"ord":[{",".join(order)}]}}'

    return text


def _runs(words: tuple[Word, Word] | None) -> tuple[CanonicalRun, CanonicalRun] | None:
    """A witness of two words as the runs they stand for."""
    if words is None:
        return None
    from .events import CanonicalRun

    return CanonicalRun.chain(words[0]), CanonicalRun.chain(words[1])


def _execution_rows(
    machine: MachineSpec,
    kind: PurgeKind,
    bound: Bound,
    view: Iterable[str] | None = None,
    purge_fn: PurgeFn | None = None,
) -> tuple[list[Word], list[tuple[PurgedValue, Word, Word]]]:
    """Every bounded execution of the star frame as the hub's word and, per
    execution, its purge value, its input subword and its subword at
    ``view`` (default: the target's channels).  Each distinct input word
    is purged once.

    The search runs on ``_hub_moves``.  A search state is the set of
    machine states the word can reach (the hub is nondeterministic when
    the machine is) and the phase.  Toward the per-location cap, the hub
    counts every event and a domain the events on its two channels, which
    are among the hub's, so the cap bounds the word's length.
    """
    fn = purge_fn if purge_fn is not None else _purge_fn(machine, kind)
    view = machine.domain_channels(kind.target) if view is None else frozenset(view)
    k = len(machine.domains)
    total, per = bound.max_total_events, bound.max_events_per_location
    if per is not None:
        total = min(total, per)
    moves = _hub_moves(machine)
    # (machine states, phase) -> its steps: label, next states, and whether
    # the label is in view.
    steps_at: dict[tuple[frozenset[str], int], list[tuple[Label, frozenset[str], bool]]] = {}

    def steps(states: frozenset[str], j: int) -> list[tuple[Label, frozenset[str], bool]]:
        row = steps_at.get((states, j))
        if row is None:
            targets: dict[Label, set[str]] = {}
            for s in states:
                for label, t in moves[s, j]:
                    targets.setdefault(label, set()).add(t)
            row = steps_at[states, j] = [
                (label, frozenset(targets[label]), label[0] in view)
                for label in sorted(targets, key=lambda label: label[1])
            ]
        return row

    values: dict[Word, PurgedValue] = {(): fn(())}
    words: list[Word] = [()]
    rows = [(values[()], (), ())]
    stack = [(frozenset({machine.initial}), k, (), (), ())] if total else []
    while stack:
        states, j, word, in_word, view_word = stack.pop()
        for label, nxt, in_view in steps(states, j):
            word2 = word + (label,)
            in_word2 = in_word + (label,) if j == k else in_word
            view_word2 = view_word + (label,) if in_view else view_word
            value = values.get(in_word2)
            if value is None:
                value = values[in_word2] = fn(in_word2)
            words.append(word2)
            rows.append((value, in_word2, view_word2))
            if len(word2) < total:
                stack.append((nxt, (j + 1) % (k + 1), word2, in_word2, view_word2))
    return words, rows


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


def _view_conflict(rows, words: Sequence[Word]) -> tuple[Word, Word] | None:
    """The input words of the first two purge-equal rows whose views
    differ, the rows taken in the text order of their executions
    (``words[i]`` is row i's).  Only a group holding two views can
    conflict, and its first row in any order is one of its own, so only
    the rows of such groups are sorted."""
    first_view: dict[PurgedValue, Word] = {}
    mixed: set[PurgedValue] = set()
    for value, _, view_word in rows:
        if first_view.setdefault(value, view_word) != view_word:
            mixed.add(value)
    order = [i for i, row in enumerate(rows) if row[0] in mixed]
    text = word_texts()
    order.sort(key=lambda i: text(words[i]))
    first: dict[PurgedValue, tuple[Word, Word]] = {}
    for i in order:
        value, in_word, view_word = rows[i]
        in_word_0, view_word_0 = first.setdefault(value, (in_word, view_word))
        if view_word_0 != view_word:
            return in_word_0, in_word
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
    words, rows = _execution_rows(machine, kind, bound, vis, purge_fn)
    witness = _view_conflict(rows, words)
    return PurgeValidation(witness is None, _runs(witness))


# -- noninterference and nondeducibility -------------------------------------


class PurgeVerdict(_Record):
    __slots__ = ("holds", "witness")

    def __init__(self, holds: bool, witness: tuple[CanonicalRun, CanonicalRun] | None = None) -> None:
        self._fill(holds, witness)

    def __bool__(self) -> bool:
        return self.holds


def ni_witness(machine: MachineSpec, kind: PurgeKind, bound: Bound) -> tuple[Word, Word] | None:
    """The input words that refute noninterference, or None when it holds:
    those of the first two purge-equal executions, in text order, whose
    words at the target domain's own channels differ."""
    words, rows = _execution_rows(machine, kind, bound)
    return _view_conflict(rows, words)


def check_ni(machine: MachineSpec, kind: PurgeKind, bound: Bound) -> PurgeVerdict:
    """Noninterference: purge-equal executions look identical on the
    target domain's own channels."""
    witness = ni_witness(machine, kind, bound)
    return PurgeVerdict(witness is None, _runs(witness))


def _purge_classes(rows) -> dict[PurgedValue, set[Word]]:
    """The distinct input words of ``rows`` grouped by purged value."""
    classes: dict[PurgedValue, set[Word]] = {}
    for value, in_word, _ in rows:
        classes.setdefault(value, set()).add(in_word)
    return classes


def nd_witness(machine: MachineSpec, kind: PurgeKind, bound: Bound) -> tuple[Word, Word] | None:
    """The view word and the input word that refute nondeducibility, or
    None when it holds: the first leak of the purge blur, by text, in the
    table of target views against the input words co-realized with them.
    The blur's image of a set of input words is the union of its members'
    purge classes."""
    from .disclosure import _first_leak

    _, rows = _execution_rows(machine, kind, bound)
    table: dict[Word, set[Word]] = {}  # view -> the inputs co-realized with it
    for _, in_word, view_word in rows:
        table.setdefault(view_word, set()).add(in_word)
    classes = _purge_classes(rows)
    value_of = {in_word: value for value, ins in classes.items() for in_word in ins}

    def blur(ins: set[Word]) -> set[Word]:
        return set().union(*(classes[value] for value in {value_of[w] for w in ins}))

    return _first_leak(table, blur, word_texts())


def check_nd(machine: MachineSpec, kind: PurgeKind, bound: Bound) -> PurgeVerdict:
    """Nondeducibility: for purge-equal executions, the second's inputs
    are compatible with the first's view of the target channels; that is,
    the purge blur limits flow from the inputs to the target's channels,
    with the witness ``f_limits_flow`` gives."""
    witness = nd_witness(machine, kind, bound)
    return PurgeVerdict(witness is None, _runs(witness))


def input_classes(machine: MachineSpec, kind: PurgeKind, bound: Bound) -> list[set[Word]]:
    """The realized bounded input words grouped by purged value, in value
    order: the classes of the purge blur, as words."""
    _, rows = _execution_rows(machine, kind, bound, ())
    classes = _purge_classes(rows)
    return [classes[value] for value in sorted(classes)]


def purge_blur(machine: MachineSpec, kind: PurgeKind, bound: Bound) -> PartitionBlur:
    """The blur induced by a purge: input runs are equivalent when they
    purge equally.  Its universe is the realized bounded input runs."""
    from .events import CanonicalRun
    from .frames.blurforms import PartitionBlur

    blocks = input_classes(machine, kind, bound)
    return PartitionBlur(tuple(frozenset(map(CanonicalRun.chain, block)) for block in blocks))
