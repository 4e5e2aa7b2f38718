"""
The benchmark's workloads: input files, command lists and the expected
answer of every command, each with the reason a person can check by hand.

A command's answer is its exit status, its verdict, and the gated values
in its ``--json`` report details.  Verdicts the program gets "wrong" by the
paper's unbounded reading are recorded as the program answers them today
and marked as divergences; the benchmark checks that the answers stay put,
it does not judge them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class Command:
    name: str
    argv: tuple[str, ...]
    exit_code: int
    verdict: bool | None
    why: str
    #: report ``details`` keys and the values they must have
    gates: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Exactness:
    """Whether a bound covers every execution of an input, and how many
    executions it holds: computed once per checkout by enumerating one
    event past the bound."""

    file: str
    kind: str  # "frame" or "machine"
    bound: int
    exact: bool
    executions: int
    why: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: file name -> flowcut CLI arguments that write it (``--out`` added)
    scenarios: dict
    #: file names copied from the benchmark directory
    copies: tuple[str, ...]
    #: a command on the workload's input that enumerates nothing
    setup: Command
    commands: tuple[Command, ...]
    exactness: tuple[Exactness, ...]


FIREWALL = Workload(
    name="firewall-enum",
    why=(
        "enumeration and canonicalization dominate: 15 locations with wide "
        "concurrency make dedup heavy, and the enumeration report is the largest"
    ),
    scenarios={
        "fw.yaml": ("scenario", "firewall"),
        "fw_quiet.yaml": ("scenario", "firewall", "--filtering", "discard_all"),
    },
    copies=(),
    setup=Command(
        "validate",
        ("validate", "fw.yaml"),
        0,
        True,
        "the scenario generator emits a well-formed frame: every trace set is an LTS "
        "over declared channels",
    ),
    commands=(
        Command(
            "enumerate",
            ("enumerate", "fw.yaml", "--bound", "14"),
            0,
            None,
            "595 executions: no closed form; the naive oracle confirms the enumerator "
            "on the same frame at bound 6 (162)",
            {"count": 595},
        ),
        Command(
            "nodisclosure",
            ("nodisclosure", "fw_quiet.yaml", "--source", "chans_i", "--observed", "chans_n", "--bound", "14"),
            0,
            True,
            "discard_all: every interface drops every datagram, so nothing crosses the "
            "routers; i's runs and n's runs are independent, hence all pairs co-occur",
        ),
        Command(
            "check-blur-f_e",
            ("check-blur", "fw.yaml", "--blur", "f_e", "--source", "chans_n", "--observed", "cut", "--bound", "14"),
            1,
            False,
            "recorded divergence: f_e does not limit flow into cut from bound 7 on; i "
            "sends once, so the cut run c1 [www>ext:hi>web], c2 [ext>h2:web>hi] rules "
            "out the n-run n1_in ext>www:oth>web, n1_out www>ext:hi>web, yet f_e keeps "
            "only exportable events and equates it with n1_out www>ext:hi>web alone, "
            "which is compatible; the blur laws themselves hold",
            {
                "blur_laws": {
                    "idempotence": True,
                    "inclusion": True,
                    "partition_generated": True,
                    "union": True,
                }
            },
        ),
        Command(
            "verify-cutblur-f_i",
            (
                "verify-cutblur", "fw.yaml", "--blur", "f_i", "--source", "chans_i",
                "--cut", "cut", "--observed", "chans_n", "--bound", "14",
            ),
            1,
            False,
            "recorded divergence: like f_e, f_i does not limit flow into cut from bound 7 "
            "on, so the antecedent fails; the consequent fails too, so the implication "
            "holds",
            {
                "antecedent_source_to_cut": False,
                "consequent_source_to_observed": False,
                "implication": True,
            },
        ),
        Command(
            "min-cut",
            ("min-cut", "fw.yaml", "--source", "chans_i", "--observed", "chans_n"),
            0,
            True,
            "region i reaches the rest only through its interface pair, so removing "
            "r1_from_i and r1_to_i (two channels) separates it; no single channel does",
            {"cut": ["r1_from_i", "r1_to_i"]},
        ),
    ),
    exactness=(
        Exactness(
            "fw.yaml", "frame", 14, True, 595,
            "each region originates one datagram and every hop holds one, so every "
            "execution ends within 14 events",
        ),
    ),
)


VOTING = Workload(
    name="voting-blur",
    why=(
        "blur application and law checks dominate: f0 permutes four independent "
        "voters' values (24 permutations per run), while enumeration is small and exact"
    ),
    scenarios={
        "v1.yaml": ("scenario", "voting", "--precincts", "2"),
        "v22.yaml": ("scenario", "voting", "--precincts", "2,2"),
    },
    copies=(),
    setup=Command(
        "validate",
        ("validate", "v22.yaml"),
        0,
        True,
        "the scenario generator emits a well-formed frame",
    ),
    commands=(
        Command(
            "check-blur-f0",
            ("check-blur", "v22.yaml", "--blur", "f0", "--source", "voters", "--observed", "pub", "--bound", "8"),
            1,
            False,
            "pub reports each precinct's tally, so moving a vote between precincts "
            "changes what is published: compatibility sets are not closed under f0",
            {
                "blur_laws": {
                    "idempotence": True,
                    "inclusion": True,
                    "partition_generated": True,
                    "union": True,
                }
            },
        ),
        Command(
            "check-blur-f0_blocks",
            (
                "check-blur", "v22.yaml", "--blur", "f0_blocks", "--source", "voters",
                "--observed", "pub", "--bound", "8",
            ),
            0,
            True,
            "a ballot box publishes only its sorted tally, so permuting votes within a "
            "precinct keeps every pub run compatible",
        ),
        Command(
            "nodisclosure",
            ("nodisclosure", "v22.yaml", "--source", "voters", "--observed", "pub", "--bound", "8"),
            1,
            False,
            "a published tally rules out every vote assignment with another tally",
        ),
        Command(
            "compose",
            (
                "compose", "v1.yaml", "v22.yaml", "--core", "v1_1,v1_2,BB1", "--blur", "f0_p1",
                "--source", "voters1", "--observed", "p", "--bound", "8",
            ),
            0,
            True,
            "precinct 1 is the same core in both frames; its box hides the order of its "
            "two votes from c1, and the second frame adds no new c1 runs",
            {"run_inclusion": True, "boundary_locality": True, "cut0": ["c1"]},
        ),
    ),
    exactness=(
        Exactness("v1.yaml", "frame", 8, True, 29, "2 votes + 1 tally + 1 publication = 4 events"),
        Exactness(
            "v22.yaml", "frame", 8, True, 633,
            "633 = 13*13 + 2*13*8 + 8*8*4: a precinct of 2 voters has 13 states before "
            "its tally and 8 after; with both tallies in, 2 commission orders times "
            "publish-or-not; at most 4 votes + 2 tallies + 1 publication = 7 events",
        ),
    ),
)


PURGE = Workload(
    name="purge-star",
    why=(
        "the only workload on the purge module and machine parsing; the star hub is "
        "strictly sequential, so no labels commute and dedup prunes nothing"
    ),
    scenarios={},
    copies=("downgrader.yaml",),
    setup=Command(
        "ni-bound0",
        ("ni", "downgrader.yaml", "--target", "d1", "--purge", "gm", "--bound", "0"),
        0,
        True,
        "at bound 0 only the empty execution exists, so noninterference holds trivially",
    ),
    commands=(
        Command(
            "ni-d1-gm",
            ("ni", "downgrader.yaml", "--target", "d1", "--purge", "gm", "--bound", "13"),
            1,
            False,
            "recorded divergence: check_ni compares an execution's d1 view with the view "
            "of its own prefix (same inputs, fewer outputs), so it fails as soon as one "
            "input fits in the bound, although gm keeps every input for d1",
        ),
        Command(
            "nd-d1-gm",
            ("nd", "downgrader.yaml", "--target", "d1", "--purge", "gm", "--bound", "13"),
            0,
            True,
            "d0, d1 and d2 all influence d1, so gm keeps every input: purge-equal "
            "executions have equal inputs, which are compatible with each other's view",
        ),
        Command(
            "nd-d2-hy",
            ("nd", "downgrader.yaml", "--target", "d2", "--purge", "hy", "--bound", "13"),
            1,
            False,
            "hy drops d0 inputs with no later d1 action, but the hub sends d2 one output "
            "per input, so d2 counts the dropped inputs: [set0,set0,set0] purges to the "
            "empty word, like the empty run, which cannot show d2 three outputs",
        ),
        Command(
            "purge-blur-d2-hy",
            ("purge-blur", "downgrader.yaml", "--target", "d2", "--purge", "hy", "--bound", "13"),
            0,
            None,
            "393 classes: the 4th input is event 13, so purged values are the input "
            "words of length <= 4 over "
            "{set0,set1,rel,hide,look} in which no d0 action follows the last d1 action",
            {"class_count": 393},
        ),
    ),
    exactness=(
        Exactness(
            "downgrader.yaml", "machine", 13, False, 1246,
            "every action is enabled in every state, so inputs never run out; a round is "
            "one input and three outputs, so 13 events hold 3 rounds and a 4th input: "
            "1 + 4*(5+25+125) + 625 = 1,246 executions",
        ),
    ),
)


WORKLOADS = {w.name: w for w in (FIREWALL, VOTING, PURGE)}
