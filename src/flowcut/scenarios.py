"""
Parameterized builders for the two running examples: a two-router
firewall separating an external region from two internal regions, and a
precinct voting system reporting through ballot boxes to a commission.

Both builders target desk-scale enumeration.  The firewall uses the
expanded topology (regions, routers, and one interface location per
segment direction per router side); datagrams are (src, dst, src-port
class, dst-port class) over three addresses, one per region, and the
external region and n1 each originate one of three datagrams per send,
so the flow checks stay exact at the default event budget.  Each
interface and router buffers one datagram.  Interfaces model filtering
as receive-and-discard: a failing datagram is accepted (the reception
event occurs) and silently dropped, so filters never wedge a buffer.  A
region has one state per send it has left, so ``region_sends`` is capped
at ``MAX_REGION_SENDS``.

The voting system has one-shot voters, ballot boxes that emit a sorted
tally after a full quorum, a commission aggregating per-precinct tallies,
and a public sink.  The commission's states are every choice, per
precinct, of no tally yet or one of its tallies: a product over the
precincts, capped at ``MAX_COMMISSION_STATES``.  A ballot box moves on
each vote of each voter from each partial count, so its moves are capped
at ``MAX_BALLOT_BOX_MOVES``.
"""

from __future__ import annotations

import itertools
import math

from .frames import Channel, Frame, InputError, Label, Location, Lts, _Record
from .frames.blurforms import BlurSpec, PermutationBlur, SelectionBlur


class ScenarioError(InputError):
    """Raised for inconsistent scenario parameters."""


# -- firewall ----------------------------------------------------------------


def datagram(src: str, dst: str, sport: str, dport: str) -> str:
    return f"{src}>{dst}:{sport}>{dport}"


def datagram_fields(d: str) -> tuple[str, str, str, str]:
    addrs, ports = d.split(":")
    src, dst = addrs.split(">")
    sport, dport = ports.split(">")
    return src, dst, sport, dport


#: The external region's address, the web server's (in region n1) and
#: region n2's.
EXT, WWW, H2 = "ext", "www", "h2"
INTERNAL = (WWW, H2)
ADDRESSES = (EXT, *INTERNAL)

#: The datagrams regions i and n1 originate; region n2 originates none.
I_EMISSIONS = (
    datagram(EXT, WWW, "oth", "web"),  # importable (web request)
    datagram(EXT, H2, "web", "hi"),  # importable (response)
    datagram(EXT, WWW, "oth", "oth"),  # junk: right addresses, bad ports
)
N1_EMISSIONS = (
    datagram(WWW, EXT, "web", "oth"),  # exportable (server reply)
    datagram(WWW, EXT, "hi", "web"),  # exportable (client request)
    datagram(WWW, EXT, "oth", "oth"),  # junk: not exportable
)
DOMAIN = frozenset(I_EMISSIONS + N1_EMISSIONS)


def importable(d: str) -> bool:
    src, dst, sport, dport = datagram_fields(d)
    if src != EXT:
        return False
    if dst == WWW and dport == "web":
        return True
    return dst in INTERNAL and sport == "web" and dport == "hi"


def exportable(d: str) -> bool:
    src, dst, sport, dport = datagram_fields(d)
    if dst != EXT:
        return False
    if src == WWW and sport == "web":
        return True
    return src in INTERNAL and dport == "web" and sport == "hi"


#: The most originations per region a firewall is built with: each send
#: adds a state to every region, and memory grows with them.
MAX_REGION_SENDS = 1000
#: The most states a voting frame's commission is built with: each
#: precinct multiplies them by one more than its number of tallies.
MAX_COMMISSION_STATES = 2500
#: The most vote moves a ballot box is built with: one per voter and
#: candidate from each count of fewer votes than voters.
MAX_BALLOT_BOX_MOVES = 10000


class FirewallParams(_Record):
    """``filtering`` is "standard" or "discard_all"; ``region_sends`` is
    the originations allowed per region before it goes quiet, at most
    ``MAX_REGION_SENDS``."""

    __slots__ = ("filtering", "region_sends")

    def __init__(self, filtering: str = "standard", region_sends: int = 1) -> None:
        if filtering not in ("standard", "discard_all"):
            raise ScenarioError(f"unknown filtering mode {filtering!r}")
        if region_sends < 0:
            raise ScenarioError("region_sends must be >= 0")
        if region_sends > MAX_REGION_SENDS:
            raise ScenarioError(f"region_sends must be <= {MAX_REGION_SENDS}")
        self._fill(filtering, region_sends)


class FirewallScenario(_Record):
    __slots__ = ("frame", "params", "named_sets", "blurs", "importable", "exportable")

    def __init__(
        self,
        frame: Frame,
        params: FirewallParams,
        named_sets: dict[str, frozenset[str]],
        blurs: dict[str, BlurSpec],
        importable: frozenset[str],
        exportable: frozenset[str],
    ) -> None:
        self._fill(frame, params, named_sets, blurs, importable, exportable)


def _buffered_hop(loc_id: str, intake: tuple[str, ...], route: dict[str, str], accepts) -> Location:
    """An interface or router as a one-datagram buffer LTS.

    Any datagram may arrive on each ``intake`` channel.  An empty buffer
    stores an accepted datagram; a rejected one, or any arrival at a full
    buffer, is received and discarded.  The stored datagram leaves on
    ``route[dst]`` and empties the buffer.
    """
    stored = frozenset(d for d in DOMAIN if accepts(d))
    trans: set[tuple[str, Label, str]] = set()
    for chan in intake:
        for d in DOMAIN:
            trans.add(("empty", (chan, d), d if d in stored else "empty"))
            trans.update((s, (chan, d), s) for s in stored)
    trans.update((d, (route[datagram_fields(d)[1]], d), "empty") for d in stored)
    return Location(loc_id, Lts(stored | {"empty"}, "empty", frozenset(trans)))


def _region(loc_id: str, out_chan: str, in_chan: str, emissions: tuple[str, ...], max_sends: int) -> Location:
    """Regions originate a bounded number of datagrams and absorb anything
    delivered to them.  They never re-encode received traffic into fresh
    emissions, matching the independent-generation assumption."""
    states = [f"sent{j}" for j in range(max_sends + 1)]
    trans: set[tuple[str, Label, str]] = set()
    for j, here in enumerate(states):
        if j < max_sends:
            trans.update((here, (out_chan, d), states[j + 1]) for d in emissions)
        trans.update((here, (in_chan, d), here) for d in DOMAIN)
    return Location(loc_id, Lts(frozenset(states), "sent0", frozenset(trans)))


def build_firewall(params: FirewallParams) -> FirewallScenario:
    """Build the expanded two-router firewall frame.

    Returns the frame together with the named channel sets (the external
    region's channels, the internal regions' channels, and the inter-router
    cut) and the importable/exportable selection blurs.
    """
    p = params
    standard = p.filtering == "standard"  # discard_all: every filter drops everything

    def passing(srcs: tuple[str, ...], dsts: tuple[str, ...] = ADDRESSES):
        return lambda d: standard and datagram_fields(d)[0] in srcs and datagram_fields(d)[1] in dsts

    def to(chan: str) -> dict[str, str]:
        return dict.fromkeys(ADDRESSES, chan)

    accept_all = lambda d: True
    locations = [
        _region("i", "i_out", "i_in", I_EMISSIONS, p.region_sends),
        _region("n1", "n1_out", "n1_in", N1_EMISSIONS, p.region_sends),
        _region("n2", "n2_out", "n2_in", (), p.region_sends),
        # i <-> r1 segment
        _buffered_hop("I_ir1_down", ("i_out",), to("r1_from_i"), passing((EXT,), INTERNAL)),
        _buffered_hop("I_ir1_up", ("r1_to_i",), to("i_in"), accept_all),
        # r1 <-> r2 segment (one interface per router per direction)
        _buffered_hop("I_r1r2_down_a", ("r1_down",), to("mid_down"), accept_all),
        _buffered_hop("I_r1r2_down_b", ("mid_down",), to("c2"), lambda d: standard and importable(d)),
        _buffered_hop("I_r1r2_up_a", ("r2_up",), to("mid_up"), passing(INTERNAL, (EXT,))),
        _buffered_hop("I_r1r2_up_b", ("mid_up",), to("c1"), lambda d: standard and exportable(d)),
        # r2 <-> regions segments
        _buffered_hop("I_r2n1_down", ("r2_to_n1",), to("n1_in"), accept_all),
        _buffered_hop("I_n1r2_up", ("n1_out",), to("r2_from_n1"), passing((WWW,))),
        _buffered_hop("I_r2n2_down", ("r2_to_n2",), to("n2_in"), accept_all),
        _buffered_hop("I_n2r2_up", ("n2_out",), to("r2_from_n2"), passing((H2,))),
        # routers
        _buffered_hop("r1", ("r1_from_i", "c1"), {EXT: "r1_to_i", WWW: "r1_down", H2: "r1_down"}, accept_all),
        _buffered_hop(
            "r2",
            ("c2", "r2_from_n1", "r2_from_n2"),
            {EXT: "r2_up", WWW: "r2_to_n1", H2: "r2_to_n2"},
            accept_all,
        ),
    ]
    channels = [
        Channel("self_i", "i", "i"),
        Channel("self_n1", "n1", "n1"),
        Channel("self_n2", "n2", "n2"),
        Channel("i_out", "i", "I_ir1_down"),
        Channel("r1_from_i", "I_ir1_down", "r1"),
        Channel("r1_to_i", "r1", "I_ir1_up"),
        Channel("i_in", "I_ir1_up", "i"),
        Channel("r1_down", "r1", "I_r1r2_down_a"),
        Channel("mid_down", "I_r1r2_down_a", "I_r1r2_down_b"),
        Channel("c2", "I_r1r2_down_b", "r2"),
        Channel("r2_up", "r2", "I_r1r2_up_a"),
        Channel("mid_up", "I_r1r2_up_a", "I_r1r2_up_b"),
        Channel("c1", "I_r1r2_up_b", "r1"),
        Channel("r2_to_n1", "r2", "I_r2n1_down"),
        Channel("n1_in", "I_r2n1_down", "n1"),
        Channel("n1_out", "n1", "I_n1r2_up"),
        Channel("r2_from_n1", "I_n1r2_up", "r2"),
        Channel("r2_to_n2", "r2", "I_r2n2_down"),
        Channel("n2_in", "I_r2n2_down", "n2"),
        Channel("n2_out", "n2", "I_n2r2_up"),
        Channel("r2_from_n2", "I_n2r2_up", "r2"),
    ]
    frame = Frame.build(locations, channels, DOMAIN)

    named = {
        "chans_i": frame.chans("i"),
        "chans_n": frame.chans({"n1", "n2"}),
        "cut": frozenset({"c1", "c2"}),
    }
    imp = frozenset(filter(importable, DOMAIN))
    exp = frozenset(filter(exportable, DOMAIN))
    blurs: dict[str, BlurSpec] = {
        "f_i": SelectionBlur(values=imp),
        "f_e": SelectionBlur(values=exp),
    }
    return FirewallScenario(frame, p, named, blurs, imp, exp)


# -- voting -------------------------------------------------------------------


class VotingParams(_Record):
    """``commissioners`` are the voters whose positions the commissioner
    blur keeps fixed, as (precinct index, voter index) pairs, both
    1-based."""

    __slots__ = ("precincts", "candidates", "commissioners")

    def __init__(
        self,
        precincts: tuple[int, ...] = (2,),
        candidates: tuple[str, ...] = ("0", "1"),
        commissioners: tuple[tuple[int, int], ...] = (),
    ) -> None:
        if not precincts or any(k < 1 for k in precincts):
            raise ScenarioError("need at least one precinct with at least one voter")
        if len(candidates) < 2:
            raise ScenarioError("need at least two candidates for nontrivial blurs")
        if "" in candidates or len(set(candidates)) < len(candidates):
            # an empty name is no vote value, and a repeated one makes a
            # smaller election than the one asked for
            raise ScenarioError(f"candidate names must be distinct and non-empty, got {candidates!r}")
        if any("," in c for c in candidates):
            # a ballot box's state lists its votes joined by commas
            raise ScenarioError(f"candidate names must not contain ',', got {candidates!r}")
        # A tally or a partial count is a multiset of votes.
        states, c = 1, len(candidates)
        for k in precincts:
            states *= 1 + math.comb(k + c - 1, k)
            if states > MAX_COMMISSION_STATES:
                raise ScenarioError(f"the commission must have at most {MAX_COMMISSION_STATES} states")
            if math.comb(k + c - 1, c) * k * c > MAX_BALLOT_BOX_MOVES:
                raise ScenarioError(f"a ballot box must have at most {MAX_BALLOT_BOX_MOVES} vote moves")
        self._fill(precincts, candidates, commissioners)


class VotingScenario(_Record):
    __slots__ = ("frame", "params", "named_sets", "blurs")

    def __init__(
        self,
        frame: Frame,
        params: VotingParams,
        named_sets: dict[str, frozenset[str]],
        blurs: dict[str, BlurSpec],
    ) -> None:
        self._fill(frame, params, named_sets, blurs)


def build_voting(params: VotingParams) -> VotingScenario:
    """Build the precinct voting frame.

    Voters transmit one candidate each; a ballot box emits the sorted
    tally of its precinct after receiving exactly one vote per registered
    voter; the commission forwards the per-precinct tallies to the public
    channel once all precincts report.
    """
    p = params
    cands = tuple(sorted(p.candidates))
    locations: list[Location] = []
    channels: list[Channel] = []
    voter_channels: list[tuple[str, ...]] = []
    data: set[str] = set(cands)

    def tally(votes: tuple[str, ...]) -> str:
        return "+".join(f"{c}x{votes.count(c)}" for c in cands)

    # Each precinct's possible tallies, indexed from 0.
    tallies: list[list[str]] = []
    for pi, k in enumerate(p.precincts, start=1):
        vchans = tuple(f"cv{pi}_{vi}" for vi in range(1, k + 1))
        for vi, chan in enumerate(vchans, start=1):
            loc = f"v{pi}_{vi}"
            trans = frozenset(("ready", (chan, c), "done") for c in cands)
            locations.append(Location(loc, Lts(frozenset({"ready", "done"}), "ready", trans)))
            channels.append(Channel(chan, loc, f"BB{pi}"))
        voter_channels.append(vchans)

        # Ballot box: count votes (a sorted multiset state) and emit the
        # tally on the precinct channel after full quorum.
        bb_states: set[str] = {"done"}
        bb_trans: set[tuple[str, Label, str]] = set()
        tallies.append([])
        for received in range(k + 1):
            for votes in itertools.combinations_with_replacement(cands, received):
                state = "got:" + ",".join(votes)
                bb_states.add(state)
                if received < k:
                    for chan in vchans:
                        for c in cands:
                            nxt = tuple(sorted(votes + (c,)))
                            bb_trans.add((state, (chan, c), "got:" + ",".join(nxt)))
                else:
                    tv = tally(votes)
                    tallies[-1].append(tv)
                    bb_trans.add((state, (f"c{pi}", tv), "done"))
        data.update(tallies[-1])
        locations.append(Location(f"BB{pi}", Lts(frozenset(bb_states), "got:", frozenset(bb_trans))))
        channels.append(Channel(f"c{pi}", f"BB{pi}", "EC"))

    # Election commission: collect one tally per precinct (any arrival
    # order), then publish the per-precinct report.  A state is the tally
    # each precinct has reported so far, or None.
    ec_states: set[str] = {"done"}
    ec_trans: set[tuple[str, Label, str]] = set()
    aggregates: set[str] = set()

    def ec_state(seen: tuple[str | None, ...]) -> str:
        return "ec:" + ";".join(f"{pi}={tv}" for pi, tv in enumerate(seen, start=1) if tv is not None)

    for seen in itertools.product(*([None, *tvs] for tvs in tallies)):
        sname = ec_state(seen)
        ec_states.add(sname)
        if None not in seen:
            agg = "|".join(f"P{pi}={tv}" for pi, tv in enumerate(seen, start=1))
            aggregates.add(agg)
            ec_trans.add((sname, ("p", agg), "done"))
            continue
        for i, tvs in enumerate(tallies):
            if seen[i] is None:
                for tv in tvs:
                    ec_trans.add((sname, (f"c{i + 1}", tv), ec_state(seen[:i] + (tv,) + seen[i + 1 :])))
    locations.append(Location("EC", Lts(frozenset(ec_states), "ec:", frozenset(ec_trans))))
    channels.append(Channel("p", "EC", "Pub"))
    data.update(aggregates)

    pub_trans = frozenset(("ready", ("p", agg), "done") for agg in sorted(aggregates))
    locations.append(Location("Pub", Lts(frozenset({"ready", "done"}), "ready", pub_trans)))

    frame = Frame.build(locations, channels, data)

    all_voter_chans = tuple(c for pc in voter_channels for c in pc)
    named: dict[str, frozenset[str]] = {
        "voters": frozenset(all_voter_chans),
        "tallies": frozenset(f"c{pi}" for pi in range(1, len(p.precincts) + 1)),
        "pub": frozenset({"p"}),
    }
    for pi, vchans in enumerate(voter_channels, start=1):
        named[f"voters{pi}"] = frozenset(vchans)
        named[f"c{pi}"] = frozenset({f"c{pi}"})

    blocks = tuple(frozenset(vc) for vc in voter_channels)
    blurs: dict[str, BlurSpec] = {
        "f0": PermutationBlur(members=all_voter_chans),
        "f0_blocks": PermutationBlur(members=all_voter_chans, blocks=blocks),
    }
    for pi, vchans in enumerate(voter_channels, start=1):
        blurs[f"f0_p{pi}"] = PermutationBlur(members=vchans)
    if p.commissioners:
        fixed = frozenset(f"cv{pi}_{vi}" for pi, vi in p.commissioners)
        unknown = fixed - set(all_voter_chans)
        if unknown:
            raise ScenarioError(f"commissioner voters do not exist: {sorted(unknown)}")
        blurs["f1"] = PermutationBlur(members=all_voter_chans, blocks=blocks, fixed=fixed)

    return VotingScenario(frame, p, named, blurs)
