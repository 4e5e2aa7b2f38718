"""
Parameterized builders for the two running examples: a two-router
firewall separating an external region from two internal regions, and a
precinct voting system reporting through ballot boxes to a commission.

Both builders target desk-scale enumeration.  The firewall uses the
expanded topology (regions, routers, and one interface location per
segment direction per router side); datagrams are (src, dst, src-port
class, dst-port class) drawn from tiny declared address sets, and the
default emission catalogs keep every region to at most one originated
datagram so the flow checks stay exact at the default event budget.
Interfaces model filtering as receive-and-discard: a failing datagram is
accepted (the reception event occurs) and silently dropped, so filters
never wedge a buffer.

The voting system has one-shot voters, ballot boxes that emit a sorted
tally after a full quorum, a commission aggregating per-precinct tallies,
and a public sink.
"""

from __future__ import annotations

import itertools

from .blur import BlurSpec, PermutationBlur, SelectionBlur
from .frames import Channel, Frame, InputError, Label, Location, Lts, _Record


class ScenarioError(InputError):
    """Raised for inconsistent scenario parameters."""


# -- firewall ----------------------------------------------------------------

PORT_CLASSES = ("web", "hi", "oth")  # 80/443, >=1024, everything else


def datagram(src: str, dst: str, sport: str, dport: str) -> str:
    return f"{src}>{dst}:{sport}>{dport}"


def datagram_fields(d: str) -> tuple[str, str, str, str]:
    addrs, ports = d.split(":")
    src, dst = addrs.split(">")
    sport, dport = ports.split(">")
    return src, dst, sport, dport


class FirewallParams(_Record):
    """``filtering`` is "standard" or "discard_all".  The ``*_emissions``
    are the datagrams each region may originate (None picks a small
    default catalog with importable/exportable and junk representatives);
    the ``*_local`` are the internal datagrams deliverable on each region's
    self-loop; ``region_sends`` is the originations allowed per region
    before it goes quiet."""

    __slots__ = (
        "external_addrs", "n1_addrs", "n2_addrs", "web_server", "filtering",
        "i_emissions", "n1_emissions", "n2_emissions", "i_local", "n1_local", "n2_local",
        "region_sends", "buffer_capacity",
    )

    def __init__(
        self,
        external_addrs: tuple[str, ...] = ("ext",),
        n1_addrs: tuple[str, ...] = ("www",),
        n2_addrs: tuple[str, ...] = ("h2",),
        web_server: str = "www",
        filtering: str = "standard",
        i_emissions: tuple[str, ...] | None = None,
        n1_emissions: tuple[str, ...] | None = None,
        n2_emissions: tuple[str, ...] | None = None,
        i_local: tuple[str, ...] = (),
        n1_local: tuple[str, ...] = (),
        n2_local: tuple[str, ...] = (),
        region_sends: int = 1,
        buffer_capacity: int = 1,
    ) -> None:
        if filtering not in ("standard", "discard_all"):
            raise ScenarioError(f"unknown filtering mode {filtering!r}")
        if web_server not in n1_addrs:
            raise ScenarioError("the web server address must belong to region n1")
        pools = [set(external_addrs), set(n1_addrs), set(n2_addrs)]
        for a, b in itertools.combinations(pools, 2):
            if a & b:
                raise ScenarioError("region address sets must be disjoint")
        if region_sends < 0 or buffer_capacity < 1:
            raise ScenarioError("region_sends must be >= 0 and buffer_capacity >= 1")
        self._fill(
            external_addrs, n1_addrs, n2_addrs, web_server, filtering,
            i_emissions, n1_emissions, n2_emissions, i_local, n1_local, n2_local,
            region_sends, buffer_capacity,
        )

    @property
    def internal_addrs(self) -> tuple[str, ...]:
        return self.n1_addrs + self.n2_addrs

    def importable(self, d: str) -> bool:
        src, dst, sport, dport = datagram_fields(d)
        if src not in self.external_addrs:
            return False
        if dst == self.web_server and dport == "web":
            return True
        return dst in self.internal_addrs and sport == "web" and dport == "hi"

    def exportable(self, d: str) -> bool:
        src, dst, sport, dport = datagram_fields(d)
        if dst not in self.external_addrs:
            return False
        if src == self.web_server and sport == "web":
            return True
        return src in self.internal_addrs and dport == "web" and sport == "hi"


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


def _buffered_hop(
    loc_id: str,
    intake: dict[str, frozenset[str]],
    route: dict[str, str] | None,
    out_default: str | None,
    accepts,
    capacity: int,
    domain: frozenset[str],
) -> Location:
    """An interface or router as a bounded-multiset buffer LTS.

    ``intake`` maps inbound channel id to the datagrams arriving there;
    accepted datagrams are stored (if room remains), rejected ones are
    received and discarded.  Stored datagrams leave on ``route[dst]`` or
    on the single default output.
    """
    states: set[str] = set()
    trans: set[tuple[str, Label, str]] = set()
    seen: set[tuple[str, ...]] = set()
    frontier: list[tuple[str, ...]] = [()]

    def name(buf: tuple[str, ...]) -> str:
        return "|".join(buf) if buf else "empty"

    while frontier:
        buf = frontier.pop()
        if buf in seen:
            continue
        seen.add(buf)
        states.add(name(buf))
        for chan, arrivals in intake.items():
            for d in sorted(arrivals & domain):
                if accepts(d) and len(buf) < capacity:
                    nxt = tuple(sorted(buf + (d,)))
                else:
                    nxt = buf  # received and discarded, or no room to store
                trans.add((name(buf), (chan, d), name(nxt)))
                if nxt not in seen:
                    frontier.append(nxt)
        for d in set(buf):
            out = route[datagram_fields(d)[1]] if route else out_default
            rest = list(buf)
            rest.remove(d)
            nxt = tuple(sorted(rest))
            trans.add((name(buf), (out, d), name(nxt)))
            if nxt not in seen:
                frontier.append(nxt)
    return Location(loc_id, Lts(frozenset(states), "empty", frozenset(trans)))


def _region(
    loc_id: str,
    out_chan: str,
    in_chan: str,
    self_chan: str,
    emissions: tuple[str, ...],
    local: tuple[str, ...],
    max_sends: int,
    domain: frozenset[str],
) -> Location:
    """Regions originate a bounded number of datagrams, absorb anything
    delivered to them, and may replay internal traffic on their self-loop.
    They never re-encode received traffic into fresh emissions, matching
    the independent-generation assumption."""
    states = {f"sent{j}" for j in range(max_sends + 1)}
    trans: set[tuple[str, Label, str]] = set()
    for j in range(max_sends + 1):
        here = f"sent{j}"
        if j < max_sends:
            for d in emissions:
                trans.add((here, (out_chan, d), f"sent{j + 1}"))
        for d in sorted(domain):
            trans.add((here, (in_chan, d), here))
        for d in local:
            trans.add((here, (self_chan, d), here))
    return Location(loc_id, Lts(frozenset(states), "sent0", frozenset(trans)))


def build_firewall(params: FirewallParams) -> FirewallScenario:
    """Build the expanded two-router firewall frame.

    Returns the frame together with the named channel sets (the external
    region's channels, the internal regions' channels, and the inter-router
    cut) and the importable/exportable selection blurs.
    """
    p = params
    all_addrs = p.external_addrs + p.internal_addrs

    def default_catalog(region: str) -> tuple[str, ...]:
        ext, www = p.external_addrs[0], p.web_server
        if region == "i":
            other = p.n2_addrs[0] if p.n2_addrs else www
            return (
                datagram(ext, www, "oth", "web"),  # importable (web request)
                datagram(ext, other, "web", "hi"),  # importable (response)
                datagram(ext, www, "oth", "oth"),  # junk: right addresses, bad ports
            )
        if region == "n1":
            return (
                datagram(www, ext, "web", "oth"),  # exportable (server reply)
                datagram(www, ext, "hi", "web"),  # exportable (client request)
                datagram(www, ext, "oth", "oth"),  # junk: not exportable
            )
        return ()

    i_cat = p.i_emissions if p.i_emissions is not None else default_catalog("i")
    n1_cat = p.n1_emissions if p.n1_emissions is not None else default_catalog("n1")
    n2_cat = p.n2_emissions if p.n2_emissions is not None else default_catalog("n2")
    for cat, region, pool in (
        (i_cat, "i", p.external_addrs),
        (n1_cat, "n1", p.n1_addrs),
        (n2_cat, "n2", p.n2_addrs),
    ):
        for d in cat:
            src, dst, _, _ = datagram_fields(d)
            if src not in pool:
                raise ScenarioError(f"region {region} cannot originate {d!r}: foreign source")
            if dst not in all_addrs:
                raise ScenarioError(f"datagram {d!r} has an unroutable destination")

    domain = frozenset(i_cat) | frozenset(n1_cat) | frozenset(n2_cat)
    domain |= frozenset(p.i_local) | frozenset(p.n1_local) | frozenset(p.n2_local)
    if not domain:
        raise ScenarioError("the datagram space is empty")

    imp = frozenset(d for d in domain if p.importable(d))
    exp = frozenset(d for d in domain if p.exportable(d))
    assert not imp & exp, "importable and exportable datagrams must be disjoint"

    if p.filtering == "discard_all":
        entry_down = entry_up1 = entry_up2 = inner_down = inner_up = lambda d: False
    else:
        entry_down = lambda d: (
            datagram_fields(d)[0] in p.external_addrs
            and datagram_fields(d)[1] in p.internal_addrs
        )
        entry_up1 = lambda d: datagram_fields(d)[0] in p.n1_addrs
        entry_up2 = lambda d: datagram_fields(d)[0] in p.n2_addrs
        inner_down = p.importable
        inner_up = p.exportable
    accept_all = lambda d: True
    upward_gate = (
        (lambda d: False)
        if p.filtering == "discard_all"
        else lambda d: (
            datagram_fields(d)[0] in p.internal_addrs
            and datagram_fields(d)[1] in p.external_addrs
        )
    )

    route_r1 = {a: "r1_down" for a in p.internal_addrs}
    route_r1.update({a: "r1_to_i" for a in p.external_addrs})
    route_r2 = {a: "r2_to_n1" for a in p.n1_addrs}
    route_r2.update({a: "r2_to_n2" for a in p.n2_addrs})
    route_r2.update({a: "r2_up" for a in p.external_addrs})

    cap = p.buffer_capacity
    locations = [
        _region("i", "i_out", "i_in", "self_i", i_cat, p.i_local, p.region_sends, domain),
        _region("n1", "n1_out", "n1_in", "self_n1", n1_cat, p.n1_local, p.region_sends, domain),
        _region("n2", "n2_out", "n2_in", "self_n2", n2_cat, p.n2_local, p.region_sends, domain),
        # i <-> r1 segment
        _buffered_hop("I_ir1_down", {"i_out": domain}, None, "r1_from_i", entry_down, cap, domain),
        _buffered_hop("I_ir1_up", {"r1_to_i": domain}, None, "i_in", accept_all, cap, domain),
        # r1 <-> r2 segment (one interface per router per direction)
        _buffered_hop("I_r1r2_down_a", {"r1_down": domain}, None, "mid_down", accept_all, cap, domain),
        _buffered_hop("I_r1r2_down_b", {"mid_down": domain}, None, "c2", inner_down, cap, domain),
        _buffered_hop("I_r1r2_up_a", {"r2_up": domain}, None, "mid_up", upward_gate, cap, domain),
        _buffered_hop("I_r1r2_up_b", {"mid_up": domain}, None, "c1", inner_up, cap, domain),
        # r2 <-> regions segments
        _buffered_hop("I_r2n1_down", {"r2_to_n1": domain}, None, "n1_in", accept_all, cap, domain),
        _buffered_hop("I_n1r2_up", {"n1_out": domain}, None, "r2_from_n1", entry_up1, cap, domain),
        _buffered_hop("I_r2n2_down", {"r2_to_n2": domain}, None, "n2_in", accept_all, cap, domain),
        _buffered_hop("I_n2r2_up", {"n2_out": domain}, None, "r2_from_n2", entry_up2, cap, domain),
        # routers
        _buffered_hop("r1", {"r1_from_i": domain, "c1": domain}, route_r1, None, accept_all, cap, domain),
        _buffered_hop(
            "r2",
            {"c2": domain, "r2_from_n1": domain, "r2_from_n2": domain},
            route_r2,
            None,
            accept_all,
            cap,
            domain,
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
    frame = Frame.build(locations, channels, domain)

    named = {
        "chans_i": frame.chans("i"),
        "chans_n": frame.chans({"n1", "n2"}),
        "cut": frozenset({"c1", "c2"}),
    }
    blurs: dict[str, BlurSpec] = {
        "f_i": SelectionBlur(name="importable", values=imp),
        "f_e": SelectionBlur(name="exportable", values=exp),
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
        self._fill(precincts, candidates, commissioners)


class VotingScenario(_Record):
    """``voter_channels`` lists the voter channels per precinct, in
    1-based index order."""

    __slots__ = ("frame", "params", "named_sets", "blurs", "voter_channels")

    def __init__(
        self,
        frame: Frame,
        params: VotingParams,
        named_sets: dict[str, frozenset[str]],
        blurs: dict[str, BlurSpec],
        voter_channels: tuple[tuple[str, ...], ...],
    ) -> None:
        self._fill(frame, params, named_sets, blurs, voter_channels)


def _tally_value(counts: dict[str, int]) -> str:
    return "+".join(f"{cand}x{counts.get(cand, 0)}" for cand in sorted(counts))


def _all_tallies(candidates: tuple[str, ...], k: int) -> list[str]:
    out = []
    for combo in itertools.combinations_with_replacement(sorted(candidates), k):
        counts = {c: combo.count(c) for c in candidates}
        out.append(_tally_value(counts))
    return sorted(set(out))


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

    tally_values: dict[int, list[str]] = {}
    for pi, k in enumerate(p.precincts, start=1):
        vchans = []
        for vi in range(1, k + 1):
            loc = f"v{pi}_{vi}"
            chan = f"cv{pi}_{vi}"
            vchans.append(chan)
            trans = frozenset(("ready", (chan, c), "done") for c in cands)
            locations.append(Location(loc, Lts(frozenset({"ready", "done"}), "ready", trans)))
            channels.append(Channel(chan, loc, f"BB{pi}"))
        voter_channels.append(tuple(vchans))
        tally_values[pi] = _all_tallies(cands, k)
        data.update(tally_values[pi])

        # Ballot box: count votes (a sorted multiset state) and emit the
        # tally on the precinct channel after full quorum.
        bb_states: set[str] = {"done"}
        bb_trans: set[tuple[str, Label, str]] = set()
        for received in range(k + 1):
            for combo in itertools.combinations_with_replacement(cands, received):
                state = "got:" + ",".join(combo) if combo else "got:"
                bb_states.add(state)
                if received < k:
                    for chan in vchans:
                        for c in cands:
                            nxt = tuple(sorted(combo + (c,)))
                            bb_trans.add((state, (chan, c), "got:" + ",".join(nxt)))
                else:
                    counts = {c: combo.count(c) for c in cands}
                    bb_trans.add((state, (f"c{pi}", _tally_value(counts)), "done"))
        locations.append(Location(f"BB{pi}", Lts(frozenset(bb_states), "got:", frozenset(bb_trans))))
        channels.append(Channel(f"c{pi}", f"BB{pi}", "EC"))

    # Election commission: collect one tally per precinct (any arrival
    # order), then publish the per-precinct report.
    ec_states: set[str] = {"done"}
    ec_trans: set[tuple[str, Label, str]] = set()
    precinct_ids = list(range(1, len(p.precincts) + 1))
    aggregates: set[str] = set()

    def ec_state(seen: dict[int, str]) -> str:
        return "ec:" + ";".join(f"{pi}={seen[pi]}" for pi in sorted(seen))

    frontier: list[dict[int, str]] = [{}]
    visited: set[str] = set()
    while frontier:
        seen = frontier.pop()
        sname = ec_state(seen)
        if sname in visited:
            continue
        visited.add(sname)
        ec_states.add(sname)
        if len(seen) == len(precinct_ids):
            agg = "|".join(f"P{pi}={seen[pi]}" for pi in sorted(seen))
            aggregates.add(agg)
            ec_trans.add((sname, ("p", agg), "done"))
            continue
        for pi in precinct_ids:
            if pi in seen:
                continue
            for tv in tally_values[pi]:
                nxt = dict(seen)
                nxt[pi] = tv
                ec_trans.add((sname, (f"c{pi}", tv), ec_state(nxt)))
                frontier.append(nxt)
    locations.append(Location("EC", Lts(frozenset(ec_states), "ec:", frozenset(ec_trans))))
    channels.append(Channel("p", "EC", "Pub"))
    data.update(aggregates)

    pub_trans = frozenset(("ready", ("p", agg), "done") for agg in sorted(aggregates))
    locations.append(Location("Pub", Lts(frozenset({"ready", "done"}), "ready", pub_trans)))

    frame = Frame.build(locations, channels, data)

    all_voter_chans = tuple(c for pc in voter_channels for c in pc)
    named: dict[str, frozenset[str]] = {
        "voters": frozenset(all_voter_chans),
        "tallies": frozenset(f"c{pi}" for pi in precinct_ids),
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

    return VotingScenario(frame, p, named, blurs, tuple(voter_channels))
