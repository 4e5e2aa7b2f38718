"""
The YAML subset reader of ``fileformat``: every document it reads comes
out exactly as ``yaml.safe_load`` gives it, types included, and every
document it cannot read that way is declined and left to PyYAML.  It reads
every file the package writes, so commands that only read frame and
machine files never import PyYAML.
"""

from __future__ import annotations

import itertools
import re
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from flowcut.frames.blurforms import AllBlur, IdentityBlur, PermutationBlur, SelectionBlur
from flowcut.emitter import emit_frame_document
from flowcut.fileformat import (
    FileFormatError,
    _TYPED,
    _Decline,
    _read_subset,
    _tokens,
    _typed,
    parse_frame_document,
)
from flowcut.frames import Channel, ExplicitTraces, Frame, Location, Lts
from flowcut.purge import HUB, MachineSpec
from flowcut.scenarios import FirewallParams, VotingParams, build_firewall, build_voting

from support import BROKEN_DOCUMENTS, downgrader_machine, machine_document

ROOT = Path(__file__).resolve().parents[1]


def _reads(text: str) -> bool:
    """Whether the reader reads ``text``; what it reads must equal, with
    the same types, what ``yaml.safe_load`` returns."""
    try:
        doc = _read_subset(text)
    except _Decline:
        return False
    expected = yaml.safe_load(text)
    assert doc == expected and repr(doc) == repr(expected)
    return True


@pytest.mark.parametrize(
    "path",
    sorted(ROOT.glob("tests/**/*.yaml")) + sorted(ROOT.glob("perfbench/**/*.yaml")),
    ids=lambda p: str(p.relative_to(ROOT)),
)
def test_reads_every_document_file(path):
    assert _reads(path.read_text())


@pytest.mark.parametrize(
    "scenario",
    [
        build_firewall(FirewallParams()),
        build_firewall(FirewallParams(filtering="discard_all")),
        build_firewall(FirewallParams(region_sends=2)),
        build_voting(VotingParams(precincts=(2,))),
        build_voting(VotingParams(precincts=(2, 2))),
        build_voting(VotingParams(precincts=(3, 3))),
    ],
    ids=["firewall", "discard_all", "region_sends=2", "voting-2", "voting-2,2", "voting-3,3"],
)
def test_reads_every_scenario_document(scenario):
    assert _reads(emit_frame_document(scenario.frame, scenario.named_sets, scenario.blurs))


def test_reads_the_machine_document():
    assert _reads(machine_document(downgrader_machine()))


#: documents the reader reads: data values are strings unless YAML 1.1
#: types them, and comments, quotes and empty collections read as PyYAML's
READ = [
    "frame: {data: [0x0+1x2, P1=0x0+1x2|P2=0x0+1x2]}",
    "a: b  # a trailing comment\n# a comment line\nc: [d, e]  # and another\n",
    "a: 'it''s'\nb: \"#not a comment\"\nc: ''\nd: a#b\n",
    "a: []\nb: {}\nc: [[], {}]\n",
    "a:\n- b\n- - c\n  - d\n- e: f\n  g: [h,\n    i]\n",
    "  a: b c\n  d:\n    e\n",
    "a: yesterday\nb: nullable\nc: 0x0G\nd: 1.2.3\ne: ==\nf: <<<\n",
]

#: documents the reader declines: YAML 1.1 types, YAML features outside the
#: subset, and characters it leaves to PyYAML's reader
DECLINED = [
    "a: yes",
    "a: ~",
    "a: 010",
    "a: 0x1F",
    "a: 1_000",
    "a: 1:30",
    "a: .inf",
    "a: 2001-12-14",
    "a: =",
    "<<: {a: b}",
    "a: &x b\nc: *x",
    "a: !!str b",
    "a: |\n  b\n",
    "a: >\n  b\n",
    "---\na: b\n",
    "a: b\n...\n",
    "%YAML 1.1\n---\na: b\n",
    "? a\n: b\n",
    "a: b\na: c\n",
    "a:\nb: c\n",
    "a: [b, c,]",
    "a: b\n  c\n",
    "\ufeffa: b\n",
    "a: b\r\n",
    "a:\tb\n",
    "a: \"line\\nbreak\"",
    "",
    "# only a comment\n",
]


@pytest.mark.parametrize("text", READ)
def test_reads_the_subset(text):
    assert _reads(text)


@pytest.mark.parametrize("text", DECLINED + [text for text, _ in BROKEN_DOCUMENTS.values()])
def test_declines_outside_the_subset(text):
    assert not _reads(text)


def test_nesting_past_the_recursion_limit_falls_back_to_pyyaml():
    # PyYAML's pure-Python parser recurses too, so the fallback rejects the
    # document as bad input instead of raising RecursionError.
    text = "frame: " + "[" * 3000 + "]" * 3000
    with pytest.raises(FileFormatError, match="^parse error: the document nests too deeply$"):
        parse_frame_document(text)


#: flow sequences, which the tokenizer reads whole when they are on one
#: line and every item is a plain scalar or a single-quoted one without
#: ``''`` or ``, ``, and item by item otherwise (flow mappings too); both
#: ways give PyYAML's value
FLOW_READ = [
    "a: [b, 'c', '', 'd]e', '#f', 'g #h', 'i,j', 'k:l', 'm\"n', o#p, q r]\n",
    "a: ['b, c', 'd: e', 'it''s', \"f, g\", \"h\"]\n",
    "a: [b , c]\n",
    "a: [b,c]\n",
    "a: []\n",
    "a: ['']\n",
    "a: [[b, c], [d], []]\n",
    "a: [b,\n  c]\n",
    "a: [b] # c\n",
    "a:\n- [b, 'c']\n- [d]\n- e\n- [f]  # g\n- [h]\n\n- [i]\n",
    "a:\n  - [b]\n  - [c]\nd:\n- [e]\n- - [f]\n  - [g]\n",
    "- [a]\n- [b]\n",
    "a: {b: c, 'd': 'e f', 'g, h': 'i: j'}\n",
    "- {a: b, c: d}\n- {e: f}\n- [g]\n",
    "a: [{b: c}, {d: e}]\n",
    "a: {" + "k" * 1023 + ": b}\n",
]

#: and the ones it declines, whichever way it reads them: trailing commas,
#: items YAML 1.1 types, text after the closing bracket, malformed or
#: duplicate pairs, and a flow mapping's key 1024 characters before its ':'
FLOW_DECLINED = [
    "a: [b, c,]",
    "a: [b, c, ]",
    "a:\n- [b,]\n- [c]\n",
    "a: [b, 1]",
    "a: [b, yes]",
    "a: [b, ~]",
    "a: [b, =]",
    "a: [b, '1', 0x1F]",
    "a:\n- [b]\n- [c, null]\n",
    "a: [b] c",
    "a: [b]]",
    "a: [b][c]",
    "a: [b]: c",
    "- [b] c\n",
    "a: [b: c]",
    "a: [b}",
    "a: {b: 1}",
    "a: {b: c, b: d}",
    "a: {b, c}",
    "a: {b: c: d}",
    "a: {b: c,}",
    "a: {b: c]",
    "a: {" + "k" * 1024 + ": b}\n",
]


@pytest.mark.parametrize("text", FLOW_READ)
def test_reads_one_line_flow_collections(text):
    assert _reads(text)


@pytest.mark.parametrize("text", FLOW_DECLINED)
def test_declines_flow_collections_outside_the_subset(text):
    assert not _reads(text)


def test_a_run_of_flow_sequence_entries_is_one_token():
    # Lines that each hold one entry ``- [...]`` at one indentation read
    # as one line break and one '-' whose value is every entry's list; a
    # line with a comment after it, or at another indentation, ends the run.
    toks = _tokens("\n- [a, 'b c']\n- ['']\n  - [f]\n- [d] # e\n")
    assert toks == [
        ("n", 0, 0),
        ("-", [["a", "b c"], [""]], 0),
        ("n", 2, 0),
        ("-", [["f"]], 2),
        ("n", 0, 0),
        ("-", None, 0),
        ("f", ["d"], None),
        ("n", -1, 0),
    ]


#: The characters of the one-line fuzz: every YAML indicator, quotes, and
#: the characters of typed scalars.
FUZZ_ALPHABET = "ab1 ,[]{}'\"#:-.?!&*|>%@`~=x_"
FUZZ_TEMPLATES = [
    "a: [{0}]", "a: [{0}, {1}]", "- [{0}]\n- [{1}]", "a:\n- [{0}]\n- [{1}]\n", "a: {{{0}: {1}}}", "[{0}]"
]
#: items the tokenizer may read whole, and near misses
FLOW_ITEMS = [
    "a", "b c", "a#b", "'a'", "''", "'a, b'", "'a,b'", "'a: b'", "'a:b'", "'x]'", "' #c'", "'it''s'", '"q"',
    "a'b", "1", "yes", "~", "=", "-a", ".a", "[]", "[a]", "{a: b}", "a #c", "'ab",
]


@settings(max_examples=300, deadline=None)
@given(
    template=st.sampled_from(FUZZ_TEMPLATES),
    pieces=st.lists(st.text(st.sampled_from(FUZZ_ALPHABET), max_size=8), min_size=2, max_size=2),
)
def test_one_line_flow_fuzz_reads_equal_or_declines(template, pieces):
    _reads(template.format(*pieces))


@settings(max_examples=300, deadline=None)
@given(
    template=st.sampled_from(FUZZ_TEMPLATES),
    rows=st.lists(
        st.lists(st.sampled_from(FLOW_ITEMS), max_size=4).flatmap(
            lambda items: st.sampled_from([", ", ", ", ",", " ,", ": "]).map(lambda sep: sep.join(items))
        ),
        min_size=2,
        max_size=2,
    ),
)
def test_flow_items_read_equal_or_decline(template, rows):
    _reads(template.format(*rows))


#: names that need quoting, that YAML 1.1 would type, or that the emitter
#: writes in double quotes with escapes
NAMES = st.one_of(
    st.text(st.sampled_from("ab01 :#'\"-[]{},.!&*?|>%@=<~_+x\\\té"), min_size=1, max_size=5),
    st.sampled_from(
        ["yes", "No", "null", "~", "0", "010", "0x1F", "1_000", "1:30", ".inf", "2001-12-14", "=", "<<",
         "0x0+1x2", "a b", "-a", "...", "---", "? a"]
    ),
)


@st.composite
def frame_documents(draw):
    names = st.lists(NAMES, min_size=1, max_size=3, unique=True)
    data, loc_ids, chan_ids = draw(names), draw(names), draw(names)
    channels = [Channel(c, draw(st.sampled_from(loc_ids)), draw(st.sampled_from(loc_ids))) for c in chan_ids]
    labels = st.tuples(st.sampled_from(chan_ids), st.sampled_from(data))
    locations = []
    for loc_id in loc_ids:
        if draw(st.booleans()):
            behavior = ExplicitTraces.of(*draw(st.lists(st.lists(labels, max_size=3), max_size=3)))
        else:
            states = draw(names)
            steps = st.tuples(st.sampled_from(states), labels, st.sampled_from(states))
            behavior = Lts(frozenset(states), states[0], frozenset(draw(st.lists(steps, max_size=4))))
        locations.append(Location(loc_id, behavior))
    chan_sets = st.frozensets(st.sampled_from(chan_ids))
    blur = st.one_of(
        st.just(IdentityBlur()),
        st.just(AllBlur()),
        st.lists(st.sampled_from(chan_ids), min_size=1, unique=True).map(lambda m: PermutationBlur(tuple(m))),
        st.builds(
            SelectionBlur,
            channels=st.none() | chan_sets,
            values=st.none() | st.frozensets(st.sampled_from(data)),
        ),
    )
    named = draw(st.dictionaries(NAMES, chan_sets, max_size=2))
    blurs = draw(st.dictionaries(NAMES, blur, max_size=2))
    return emit_frame_document(Frame.build(locations, channels, data), named, blurs)


@st.composite
def machine_documents(draw):
    names = st.lists(NAMES.filter(lambda n: n != HUB), min_size=1, max_size=3, unique=True)
    domains, states, outputs = draw(names), draw(names), draw(names)
    actions = draw(st.dictionaries(NAMES, st.sampled_from(domains), min_size=1, max_size=3))
    steps = st.tuples(st.sampled_from(states), st.sampled_from(sorted(actions)), st.sampled_from(states))
    machine = MachineSpec.build(
        domains=domains,
        influence=draw(st.lists(st.tuples(st.sampled_from(domains), st.sampled_from(domains)), max_size=3)),
        action_domain=actions,
        outputs=outputs,
        states=states,
        initial=states[0],
        transitions=draw(st.lists(steps, max_size=4)),
        obs={(s, d): draw(st.sampled_from(outputs)) for s in states for d in domains},
    )
    return machine_document(machine)


@settings(max_examples=150, deadline=None)
@given(text=st.one_of(frame_documents(), machine_documents()))
def test_emitted_documents_read_equal_or_decline(text):
    _reads(text)


#: any data a mutated document may hold: nulls, booleans and numbers are
#: written plain, so the reader must decline them
DATA = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | NAMES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(NAMES, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=150, deadline=None)
@given(data=st.dictionaries(NAMES, DATA, min_size=1), flow=st.sampled_from([None, False, True]))
def test_dumped_data_reads_equal_or_declines(data, flow):
    _reads(yaml.safe_dump(data, default_flow_style=flow))


#: pieces of YAML text, joined at random: most joins are outside the
#: subset or not YAML at all, and the reader must decline every one of them
FRAGMENTS = [
    "a", "b c", "0", "yes", "~", "0x0+1x2", "'q'", "'it''s'", '"d"', "''", ": ", ":", "- ", "-", "\n", "\n",
    "\n  ", "\n    ", "  ", " ", "[", "]", "{", "}", ", ", ",", " #c", "#", "&a ", "*a", "!!str ", "|", ">",
    "? ", "---", "...", "\t", "\r", "=", "<<", "%", "\ufeff", "é",
]


@settings(max_examples=400, deadline=None)
@given(text=st.lists(st.sampled_from(FRAGMENTS), max_size=30).map("".join))
def test_joined_fragments_read_equal_or_decline(text):
    _reads(text)


#: The example scalars of the YAML 1.1 type pages (yaml.org/type) for bool,
#: int, float, null, timestamp, merge and value, and near misses.
YAML_TYPE_EXAMPLES = (
    "y Y yes Yes YES n N no No NO true True TRUE false False FALSE on On ON off Off OFF "
    "685230 +685_230 02472256 0x_0A_74_AE 0b1010_0111_0100_1010_1110 190:20:30 "
    "6.8523015e+5 685.230_15e+03 685_230.15 190:20:30.15 -.inf .NaN .inf .Inf +.INF "
    "~ null Null NULL << = 2002-12-14 2001-12-15T02:59:43.1Z 2001-12-14t21:59:43.10-05:00 "
    "1.2.3 0o17 12e3 yes! Nan nULL -0x1F 0b102 08 1_000 :30 x1 set0 in_d0"
).split() + ["2001-12-14 21:59:43.10 -5", "2001-12-15 2:59:43.10", "2001-12-14\t21:59:43"]


def test_typed_agrees_with_the_resolver_expression():
    """``_typed`` decides a scalar that starts with a letter by the set of
    bool and null words, and compiles the expression only for the others:
    it must agree with the expression on every string of up to three
    characters over the characters the expression reads, and on the
    example scalars."""
    expression = re.compile(_TYPED, re.X)
    alphabet = "0189_+-.:<=~ \teEbxXoOnNyYsStTrRuUfFaAlLiIZq#"
    texts = ["".join(t) for n in range(4) for t in itertools.product(alphabet, repeat=n)]
    for text in texts + YAML_TYPE_EXAMPLES:
        assert _typed(text) == (expression.fullmatch(text) is not None), text
