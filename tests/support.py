"""
Shared test machinery: randomized frame/machine generators and a naive
compatibility oracle kept independent of the library's canonicalization
pipeline.

Random frames are *budget-complete*: every execution of the frame fits
within the stated event budget, verified by enumerating one event past
the budget and rejecting the frame if anything reaches it.  On such
frames the bounded universe coincides with the unbounded one, so the
merge-based lemmas are exact rather than bound-approximate.
"""

from __future__ import annotations

import itertools
import random

from flowcut import enumeration
from flowcut.blur import blur_apply
from flowcut.enumeration import Bound, enumerate_executions
from flowcut.events import CanonicalRun, Event, EventSystem, LinearityError, ancestor_masks
from flowcut.frames import Channel, ExplicitTraces, Frame, Location, validate_frame
from flowcut.purge import (
    MachineSpec,
    PurgeKind,
    PurgeVerdict,
    _execution_rows,
    input_sequence,
    star_frame,
)


# -- random budget-complete frames -------------------------------------------


def _candidate_frame(rng: random.Random, max_locations: int, max_channels: int, data_size: int) -> Frame:
    n_locs = rng.randint(2, max_locations)
    loc_ids = [f"L{i}" for i in range(n_locs)]
    n_chans = rng.randint(1, max_channels)
    channels = []
    for i in range(n_chans):
        sender = rng.choice(loc_ids)
        recipient = rng.choice(loc_ids)
        channels.append(Channel(f"c{i}", sender, recipient))
    values = [str(v) for v in range(rng.randint(1, data_size))]

    # Behaviors come from a handful of shared global histories so that the
    # synchronized steps actually fire.
    histories = []
    for _ in range(rng.randint(1, 3)):
        length = rng.randint(1, 4)
        histories.append(
            [(rng.choice(channels).id, rng.choice(values)) for _ in range(length)]
        )
    touching = {
        c.id: {c.sender, c.recipient} for c in channels
    }
    locations = []
    for lid in loc_ids:
        projections = []
        for h in histories:
            projections.append([lab for lab in h if lid in touching[lab[0]]])
        locations.append(Location(lid, ExplicitTraces.of(*projections)))
    return Frame.build(locations, channels, values)


def random_budget_complete_frame(
    rng: random.Random,
    bound: int,
    max_locations: int = 4,
    max_channels: int = 6,
    data_size: int = 2,
) -> Frame:
    """A random well-formed frame whose every execution has <= ``bound``
    events."""
    while True:
        frame = _candidate_frame(rng, max_locations, max_channels, data_size)
        if not validate_frame(frame).ok:
            continue
        probe = enumerate_executions(frame, Bound(bound + 1))
        sizes = [c.n_events for c in probe.canonicals]
        if max(sizes) <= bound and max(sizes) > 0:
            return frame


def random_channel_subset(rng: random.Random, frame: Frame, avoid: frozenset[str] = frozenset()):
    pool = [c for c in frame.channel_ids if c not in avoid]
    if not pool:
        return frozenset()
    k = rng.randint(1, len(pool))
    return frozenset(rng.sample(pool, k))


def disjoint_union(frame_a: Frame, frame_b: Frame) -> Frame:
    """Two frames glued side by side with renamed ids (no connecting
    channels), giving a disconnected frame."""

    def rename(frame: Frame, tag: str) -> tuple[list[Location], list[Channel]]:
        locs = []
        for loc in frame.locations:
            spec = loc.behavior
            assert isinstance(spec, ExplicitTraces)
            traces = frozenset(
                tuple((f"{tag}{c}", v) for c, v in t) for t in spec.traces
            )
            locs.append(Location(f"{tag}{loc.id}", ExplicitTraces(traces)))
        chans = [
            Channel(f"{tag}{c.id}", f"{tag}{c.sender}", f"{tag}{c.recipient}")
            for c in frame.channels
        ]
        return locs, chans

    locs_a, chans_a = rename(frame_a, "a_")
    locs_b, chans_b = rename(frame_b, "b_")
    return Frame.build(locs_a + locs_b, chans_a + chans_b, frame_a.data | frame_b.data)


# -- frame graphs (networkx) ----------------------------------------------------


def frame_graph(frame: Frame):
    """The directed graph of a frame: one vertex per location, one edge
    per channel (keyed by channel id)."""
    import networkx as nx

    g = nx.MultiDiGraph()
    g.add_nodes_from(frame.location_ids)
    for c in frame.channels:
        g.add_edge(c.sender, c.recipient, key=c.id)
    return g


def undirected_frame_graph(frame: Frame):
    """The undirected graph of a frame (channel-keyed multigraph)."""
    import networkx as nx

    g = nx.MultiGraph()
    g.add_nodes_from(frame.location_ids)
    for c in frame.channels:
        g.add_edge(c.sender, c.recipient, key=c.id)
    return g


# -- random machines -----------------------------------------------------------


def random_machine(rng: random.Random, transitive: bool = False) -> MachineSpec:
    k = rng.randint(1, 3)
    domains = [f"d{i}" for i in range(k)]
    influence = {(d, d) for d in domains}
    for a, b in itertools.permutations(domains, 2):
        if rng.random() < 0.4:
            influence.add((a, b))
    if transitive:
        changed = True
        while changed:
            changed = False
            for (a, b) in list(influence):
                for (b2, c) in list(influence):
                    if b == b2 and (a, c) not in influence:
                        influence.add((a, c))
                        changed = True
    n_states = rng.randint(1, 3)
    states = [f"s{i}" for i in range(n_states)]
    n_actions = rng.randint(1, 3)
    action_domain = {f"a{i}": rng.choice(domains) for i in range(n_actions)}
    outputs = [f"o{i}" for i in range(rng.randint(1, 2))]
    transitions = set()
    for s in states:
        for a in action_domain:
            for _ in range(rng.randint(0, 2)):
                transitions.add((s, a, rng.choice(states)))
    obs = {(s, d): rng.choice(outputs) for s in states for d in domains}
    return MachineSpec.build(
        domains=domains,
        influence=influence,
        action_domain=action_domain,
        outputs=outputs,
        states=states,
        initial=states[0],
        transitions=transitions,
        obs=obs,
    )


def reference_check_nd(machine: MachineSpec, kind: PurgeKind, bound: Bound) -> PurgeVerdict:
    """Nondeducibility read straight off its definition, without blurs:
    group the executions by purged value, and within each group check that
    every member's view of the target channels is compatible with every
    member's input run.  Its witness is the first failure in execution
    order, so only its verdict is comparable with ``check_nd``."""
    _, rows = _execution_rows(machine, kind, bound)
    # The target's view of each execution and the inputs co-realized with it.
    table: dict[CanonicalRun, set[CanonicalRun]] = {}
    groups: dict[tuple, list[tuple[CanonicalRun, CanonicalRun]]] = {}
    for value, in_run, ci_run in rows:
        table.setdefault(ci_run, set()).add(in_run)
        groups.setdefault(value, []).append((in_run, ci_run))
    for members in groups.values():
        ins = dict.fromkeys(in_run for in_run, _ in members)
        for in_run_a, ci_run_a in members:
            compat = table[ci_run_a]
            for in_run_b in ins:
                if in_run_b not in compat:
                    return PurgeVerdict(False, (ci_run_a, in_run_b))
    return PurgeVerdict(True)


def reference_view_conflict(machine: MachineSpec, bound: Bound, view, purge_fn):
    """The witness rule of ``check_ni`` and ``validate_purge`` read off its
    statement: take every execution in serialization order and return the
    input runs of the first two whose ``purge_fn`` values agree while their
    runs at ``view`` differ; None when there are none."""
    executions = sorted(
        enumerate_executions(star_frame(machine), bound).canonicals, key=CanonicalRun.serialize
    )
    first: dict[tuple, tuple[CanonicalRun, CanonicalRun]] = {}
    for crun in executions:
        in_run = crun.restrict(machine.input_channels())
        view_run = crun.restrict(view)
        in_run_0, view_run_0 = first.setdefault(
            purge_fn(input_sequence(machine, in_run)), (in_run, view_run)
        )
        if view_run_0 != view_run:
            return in_run_0, in_run
    return None


def count_serializations(monkeypatch) -> list[int]:
    """Wrap ``CanonicalRun.serialize`` by a counter; returns its one-cell tally."""
    calls = [0]
    serialize = CanonicalRun.serialize

    def counted(run):
        calls[0] += 1
        return serialize(run)

    monkeypatch.setattr(CanonicalRun, "serialize", counted)
    return calls


def count_restrictions(monkeypatch) -> list[int]:
    """Wrap the per-channel-set pass of ``ExecutionSet.runs_at`` (one
    channel set, every execution) by a counter; returns its one-cell tally."""
    calls = [0]
    local_runs = enumeration._local_runs

    def counted(exset, keep):
        calls[0] += 1
        return local_runs(exset, keep)

    monkeypatch.setattr(enumeration, "_local_runs", counted)
    return calls


# -- naive oracle ---------------------------------------------------------------
#
# An independent route to compatibility sets: enumerate firing histories
# directly, keep raw (labels, order-matrix) posets, restrict by slicing,
# and compare by brute-force bijection search.  No CanonicalRun machinery.


def naive_histories(frame: Frame, bound: int) -> list[list[tuple[str, str]]]:
    from flowcut.frames import behavior_start, behavior_step

    behaviors = {loc.id: loc.behavior for loc in frame.locations}
    out: list[list[tuple[str, str]]] = []

    def walk(history, config):
        out.append(list(history))
        if len(history) >= bound:
            return
        for chan in frame.channels:
            ends = {chan.sender, chan.recipient}
            for value in sorted(frame.data):
                label = (chan.id, value)
                nxt = {}
                for loc in ends:
                    step = behavior_step(behaviors[loc], config[loc], label)
                    if step is None:
                        break
                    nxt[loc] = step
                else:
                    config2 = dict(config)
                    config2.update(nxt)
                    history.append(label)
                    walk(history, config2)
                    history.pop()

    walk([], {lid: behavior_start(spec) for lid, spec in behaviors.items()})
    return out


def naive_poset(frame: Frame, history: list[tuple[str, str]]):
    """(labels, strict order matrix): the least order making each
    location's events a chain, closed with Floyd-Warshall."""
    n = len(history)
    touching = {c.id: {c.sender, c.recipient} for c in frame.channels}
    order = [[False] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if touching[history[i][0]] & touching[history[j][0]]:
                order[i][j] = True
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if order[i][k] and order[k][j]:
                    order[i][j] = True
    return list(history), order


def naive_restrict(poset, chans):
    labels, order = poset
    keep = [i for i, (c, _) in enumerate(labels) if c in chans]
    new_labels = [labels[i] for i in keep]
    new_order = [[order[a][b] for b in keep] for a in keep]
    return new_labels, new_order


def naive_iso(p1, p2) -> bool:
    labels1, order1 = p1
    labels2, order2 = p2
    n = len(labels1)
    if n != len(labels2):
        return False
    if sorted(labels1) != sorted(labels2):
        return False
    for perm in itertools.permutations(range(n)):
        if any(labels1[i] != labels2[perm[i]] for i in range(n)):
            continue
        if all(
            order1[i][j] == order2[perm[i]][perm[j]]
            for i in range(n)
            for j in range(n)
        ):
            return True
    return False


def naive_compatible_runs(frame: Frame, observed, source, bound: int, observed_poset):
    """Representatives (up to isomorphism) of the source restrictions of
    all bounded executions whose observed restriction matches."""
    reps = []
    for history in naive_histories(frame, bound):
        poset = naive_poset(frame, history)
        if not naive_iso(naive_restrict(poset, observed), observed_poset):
            continue
        src = naive_restrict(poset, source)
        if not any(naive_iso(src, rep) for rep in reps):
            reps.append(src)
    return reps


def canonical_to_naive(run) -> tuple[list[tuple[str, str]], list[list[bool]]]:
    """Bridge a pipeline run into the naive poset format for comparison."""
    labels = [(chan, m) for chan, msgs in run.channels for m in msgs]
    n = len(labels)
    order = [[bool(run.ancestors[b] >> a & 1) for b in range(n)] for a in range(n)]
    return labels, order


def reference_closure(n: int, pairs) -> frozenset[tuple[int, int]]:
    """Transitive closure of ``pairs`` on events ``0..n-1`` by repeated
    relational squaring: the closure the library computed before it kept
    orders as ancestor masks."""
    succ: dict[int, set[int]] = {i: set() for i in range(n)}
    for a, b in pairs:
        succ[a].add(b)
    changed = True
    while changed:
        changed = False
        for a in range(n):
            extra = set()
            for b in succ[a]:
                extra |= succ[b] - succ[a]
            if extra:
                succ[a] |= extra
                changed = True
    return frozenset((a, b) for a in range(n) for b in succ[a])


# -- reference enumerator ---------------------------------------------------------


def reference_enumerate(frame: Frame, bound: int) -> list[tuple[CanonicalRun, EventSystem]]:
    """Every bounded minimal-order execution, deduplicated by canonicalizing
    each newly generated firing sequence's event system, sorted by canonical
    serialization: the enumerator the library used before it deduplicated
    on location traces."""
    from flowcut.frames import behavior_start, behavior_step

    behaviors = {loc.id: loc.behavior for loc in frame.locations}
    empty = build_system([])
    found = {reference_canonicalize(empty): empty}
    queue = [([], [], {}, {lid: behavior_start(b) for lid, b in behaviors.items()})]
    while queue:
        events, anc, last, config = queue.pop()
        if len(events) >= bound:
            continue
        for chan in frame.channels:
            locs = (chan.sender,) if chan.is_self_loop else (chan.sender, chan.recipient)
            for value in sorted(frame.data):
                steps = {l: behavior_step(behaviors[l], config[l], (chan.id, value)) for l in locs}
                if None in steps.values():
                    continue
                pred = set()
                for l in locs:
                    if l in last:
                        pred |= {last[l]} | anc[last[l]]
                events2 = events + [Event(chan.id, value)]
                anc2 = anc + [frozenset(pred)]
                sys = build_system(events2, ((a, b) for b, ps in enumerate(anc2) for a in ps))
                crun = reference_canonicalize(sys)
                if crun in found:
                    continue
                found[crun] = sys
                queue.append(
                    (events2, anc2, {**last, **{l: len(events) for l in locs}}, {**config, **steps})
                )
    return sorted(found.items(), key=lambda kv: kv[0].serialize())


# -- brute-force blur oracles ----------------------------------------------------
#
# The blur forms as they were first written: a permutation blur tries every
# permutation of its blocks on every run, and a selection blur compares
# selected restrictions across the whole universe on every application.


def oracle_permutations(blur) -> list[dict[str, str]]:
    """Every channel map a ``PermutationBlur`` allows: a permutation of
    each block's movable members, with fixed members mapped to themselves."""
    groups = blur.blocks if blur.blocks is not None else (frozenset(blur.members),)
    per_group: list[list[dict[str, str]]] = []
    for g in groups:
        movable = sorted(g - blur.fixed)
        maps = []
        for img in itertools.permutations(movable):
            m = dict(zip(movable, img))
            m.update({x: x for x in g & blur.fixed})
            maps.append(m)
        per_group.append(maps)
    out = []
    for combo in itertools.product(*per_group):
        merged: dict[str, str] = {}
        for m in combo:
            merged.update(m)
        out.append(merged)
    return out


def oracle_act(pi: dict[str, str], run: CanonicalRun) -> CanonicalRun | None:
    """Apply one channel map; None when event counts are incompatible."""
    msgs = dict(run.channels)
    new_channels = []
    for chan, seq in run.channels:
        if chan in pi:
            src = msgs.get(pi[chan], ())
            if len(src) != len(seq):
                return None
            new_channels.append((chan, src))
        else:
            new_channels.append((chan, seq))
    for chan in pi:
        if chan not in msgs and msgs.get(pi[chan], ()):
            return None
    return CanonicalRun(tuple(new_channels), run.ancestors)


def oracle_orbit(blur, run: CanonicalRun) -> frozenset[CanonicalRun]:
    out = {run}
    for pi in oracle_permutations(blur):
        img = oracle_act(pi, run)
        if img is not None:
            out.add(img)
    return frozenset(out)


def oracle_selection_apply(blur, s, universe) -> frozenset[CanonicalRun]:
    """A selection blur's image of ``s``: every run of the universe whose
    selected restriction matches that of a run of ``s``."""

    def selected(run: CanonicalRun) -> str:
        sys = run.to_event_system()
        keep = [i for i, e in enumerate(sys.events) if blur.selects(e.chan, e.msg)]
        return reference_canonicalize(induced_system(sys, keep)).serialize()

    wanted = {selected(r) for r in s}
    return frozenset(r for r in universe if selected(r) in wanted)


def reference_validate_blur(blur, universe) -> tuple[bool, bool, bool, bool]:
    """The blur laws checked by sampling, as ``validate_blur`` first did:
    Inclusion on singletons, Idempotence and Union on the singletons, the
    universe and a split of it.  Returns (inclusion, idempotence, union,
    partition_generated); raises what ``blur_apply`` raises."""
    uni = frozenset(universe)
    runs = sorted(uni, key=CanonicalRun.serialize)

    def f(s):
        return blur_apply(blur, s, uni)

    singleton_image = {r: f(frozenset({r})) for r in runs}
    inclusion = all(r in singleton_image[r] for r in runs)
    samples = [frozenset({r}) for r in runs]
    half = frozenset(runs[: len(runs) // 2])
    samples.extend([uni, half, uni - half])
    # Blurs act on non-empty sets: the all-blur maps the empty set to the
    # universe.
    samples = [s for s in samples if s]
    idempotence = True
    for s in samples:
        once = f(s)
        if f(once) != once:
            idempotence = False
            break
    union = all(
        f(s) == frozenset().union(*{singleton_image[r] for r in s}) for s in samples
    )
    partition = all(
        singleton_image.get(b) == image
        for image in set(singleton_image.values())
        for b in image
    )
    return inclusion, idempotence, union, partition

# -- a fixed three-domain machine ------------------------------------------------


def downgrader_machine() -> MachineSpec:
    """A bit b set by d0 and a published copy p released or hidden by d1;
    d2 looks.  Influence: d0 -> d1 <-> d2, so d0 reaches d2 only through d1
    and the chain purge is intransitive.  Every action is enabled in every
    state, so inputs never run out."""
    states = [f"b{b}p{p}" for b in "01" for p in "01"]
    effect = {
        "set0": lambda b, p: ("0", p),
        "set1": lambda b, p: ("1", p),
        "rel": lambda b, p: (b, b),
        "hide": lambda b, p: (b, "0"),
        "look": lambda b, p: (b, p),
    }
    transitions = set()
    for s in states:
        for action, step in effect.items():
            b, p = step(s[1], s[3])
            transitions.add((s, action, f"b{b}p{p}"))
    obs = {}
    for s in states:
        obs[(s, "d0")] = obs[(s, "d1")] = s[1]
        obs[(s, "d2")] = s[3]
    return MachineSpec.build(
        domains=["d0", "d1", "d2"],
        influence=[("d0", "d1"), ("d1", "d2"), ("d2", "d1")],
        action_domain={"set0": "d0", "set1": "d0", "rel": "d1", "hide": "d1", "look": "d2"},
        outputs=["0", "1"],
        states=states,
        initial="b0p0",
        transitions=transitions,
        obs=obs,
    )


def machine_document(machine: MachineSpec) -> str:
    """The machine file text of a machine (reflexive influence left
    implicit)."""
    import yaml

    obs: dict[str, dict[str, str]] = {}
    for (s, d), o in machine.obs:
        obs.setdefault(s, {})[d] = o
    body = {
        "domains": list(machine.domains),
        "influence": sorted([a, b] for a, b in machine.influence if a != b),
        "actions": dict(machine.action_domain),
        "outputs": list(machine.outputs),
        "states": list(machine.states),
        "initial": machine.initial,
        "transitions": sorted(list(t) for t in machine.transitions),
        "obs": obs,
    }
    return yaml.safe_dump({"machine": body}, sort_keys=True)


# -- documents PyYAML rejects -------------------------------------------------

#: broken documents and the message the pure-Python ``yaml.safe_load``
#: path has always given for them
BROKEN_DOCUMENTS = {
    "unclosed-brace": (
        "frame: {a: b",
        "parse error at line 1, column 13: expected ',' or '}', but got '<stream end>'",
    ),
    "unclosed-bracket": (
        "frame: [a, b",
        "parse error at line 1, column 13: expected ',' or ']', but got '<stream end>'",
    ),
    "tab-indent": (
        "frame:\n\tdata: [a]\n",
        "parse error at line 2, column 1: found character '\\t' that cannot start any token",
    ),
    "over-indented-key": (
        "a: b\n c: d\n",
        "parse error at line 2, column 3: mapping values are not allowed here",
    ),
    "undefined-alias": (
        "frame: *nope\n",
        "parse error at line 1, column 8: found undefined alias 'nope'",
    ),
    "nul": (
        "frame: {a: \x00}\n",
        'parse error: unacceptable character #x0000: special characters are not allowed\n'
        '  in "<unicode string>", position 11',
    ),
    "lone-surrogate": (
        "frame: \ud800\n",
        'parse error: unacceptable character #xd800: special characters are not allowed\n'
        '  in "<unicode string>", position 7',
    ),
}


# -- event systems in any index order -------------------------------------------
#
# The library keeps every order as a canonical run; an ``EventSystem`` is
# only its view with events in canonical order.  The oracles below build
# systems with events in any order and reach the order through mask bits.


class CanonicalizeError(ValueError):
    """Same-channel events are incomparable, so no canonical form exists."""


def build_system(events, pairs=()) -> EventSystem:
    """The system on ``events`` (``Event``s or (channel, message) pairs)
    ordered by the closure of ``pairs``; raises EventSystemError on a cycle."""
    evs = tuple(e if isinstance(e, Event) else Event(*e) for e in events)
    return EventSystem(evs, ancestor_masks(len(evs), pairs))


def precedes(sys: EventSystem, a: int, b: int) -> bool:
    return bool(sys.ancestors[b] >> a & 1)


def comparable(sys: EventSystem, a: int, b: int) -> bool:
    return a == b or precedes(sys, a, b) or precedes(sys, b, a)


def strict_pairs(sys: EventSystem) -> frozenset[tuple[int, int]]:
    """The strict order as the set of its pairs."""
    n = sys.n_events
    return frozenset((a, b) for b in range(n) for a in range(n) if precedes(sys, a, b))


def induced_system(sys: EventSystem, keep) -> EventSystem:
    """The substructure on the event indices ``keep``, renumbered in index
    order, with the induced order read pair by pair."""
    idx = sorted(set(keep))
    anc = tuple(sum(1 << i for i, a in enumerate(idx) if precedes(sys, a, b)) for b in idx)
    return EventSystem(tuple(sys.events[i] for i in idx), anc)


def reference_canonicalize(sys: EventSystem) -> CanonicalRun:
    """The canonical form computed the direct way: each channel's chain
    sorted by its members' predecessor counts within the chain, after a
    pairwise comparability check, and each pair of the strict order set as
    one bit of the masks in canonical order."""
    by_chan: dict[str, list[int]] = {}
    for i, e in enumerate(sys.events):
        by_chan.setdefault(e.chan, []).append(i)
    pos: dict[int, int] = {}  # event index -> canonical index
    channels = []
    for chan in sorted(by_chan):
        idx = by_chan[chan]
        for i, a in enumerate(idx):
            for b in idx[i + 1 :]:
                if not comparable(sys, a, b):
                    raise CanonicalizeError(f"events on channel {chan!r} are not totally ordered")
        members = tuple(idx)
        idx.sort(key=lambda a: sum(1 for b in members if precedes(sys, b, a)))
        for ev_index in idx:
            pos[ev_index] = len(pos)
        channels.append((chan, tuple(sys.events[i].msg for i in idx)))
    anc = [0] * sys.n_events
    for a, b in strict_pairs(sys):
        anc[pos[b]] |= 1 << pos[a]
    return CanonicalRun(tuple(channels), tuple(anc))


def reference_project(sys: EventSystem, frame: Frame, loc_id: str) -> tuple:
    """The label sequence of ``loc_id``'s events, in order, as the library
    computed it on event systems; raises LinearityError on an
    incomparable pair."""
    own = frame.chans(loc_id)
    members = [i for i, e in enumerate(sys.events) if e.chan in own]
    for i, a in enumerate(members):
        for b in members[i + 1 :]:
            if not comparable(sys, a, b):
                raise LinearityError(f"projection onto {loc_id!r} is not linearly ordered", (a, b))
    chain = sorted(members, key=lambda a: sum(1 for b in members if precedes(sys, b, a)))
    return tuple((sys.events[i].chan, sys.events[i].msg) for i in chain)


def reference_is_execution(sys: EventSystem, frame: Frame) -> tuple[tuple[str, str], ...]:
    """The failures of the execution conditions, per location, as
    ``is_execution`` reported them on event systems; raises
    UnknownChannelError for an event on no channel of the frame."""
    from flowcut.frames import accepts_trace

    for e in sys.events:
        frame.channel(e.chan)
    failures = []
    for loc in frame.locations:
        try:
            seq = reference_project(sys, frame, loc.id)
        except LinearityError:
            failures.append((loc.id, "linearity"))
            continue
        if not accepts_trace(loc.behavior, seq):
            failures.append((loc.id, "trace membership"))
    return tuple(failures)


def reference_is_initial_substructure(sub: EventSystem, sup: EventSystem) -> bool:
    """True iff ``sub`` is isomorphic to a downward-closed, order-induced
    part of ``sup`` holding the first events of each of ``sup``'s channel
    chains, as the library decided it on event systems."""
    try:
        crun_sub = reference_canonicalize(sub)
        crun_sup = reference_canonicalize(sup)
    except CanonicalizeError:
        return False
    counts = {chan: len(msgs) for chan, msgs in crun_sub.channels}
    kept = [k for k, (chan, i) in enumerate(crun_sup.ids) if i < counts.get(chan, 0)]
    full = crun_sup.to_event_system()
    if any(precedes(full, a, b) and a not in kept for b in kept for a in range(full.n_events)):
        return False
    return reference_canonicalize(induced_system(full, kept)) == crun_sub


def reference_reduction(closed, n: int) -> set[tuple[int, int]]:
    """The transitive reduction of the closed order ``closed`` on events
    ``0..n-1``, testing every pair against every possible middle event."""
    return {
        (a, b)
        for (a, b) in closed
        if not any((a, c) in closed and (c, b) in closed for c in range(n))
    }
