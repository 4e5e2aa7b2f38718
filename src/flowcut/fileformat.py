"""
The textual format for frames and machines: a restricted YAML document.

One self-describing format serves as the only ingress: a frame file
declares the data domain, locations (with explicit trace sets or LTS
bodies), channels, and optionally named channel sets and declarative
blurs.  A machine file declares domains, the influence relation, the
action table, transitions, and the per-domain observation table.  Unknown
keys are rejected everywhere, a field of the wrong type is reported by
name, and YAML syntax errors surface with line and column.

A document goes first through a small reader for the YAML subset this
package writes (block and flow collections, plain and quoted scalars,
comments), which returns what ``yaml.safe_load`` would or declines.  Its
tokenizer reads a flow sequence written on one line, and a run of
``- [...]`` entries such as an LTS's transitions, as one token, split with
string methods.  PyYAML is imported only when the reader declines.  A
declined document is parsed by PyYAML's pure-Python ``safe_load``, never
by libyaml, so a document reads, and fails with the same message, on every
host whether or not PyYAML was built with libyaml.  The blur forms
(``frames.blurforms``, not the blur analysis in ``blur``) are imported only
to read a ``blurs`` block, so a frame file without blurs reads with
``frames`` alone.  The frame model itself is imported only to build a
frame, so a machine file reads with ``purge`` alone.  Files are written by
``emitter``, which a command that only reads does not compile.
"""

from __future__ import annotations

import re
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, TypeVar

from . import InputError

if TYPE_CHECKING:
    from .frames import Frame, Location
    from .frames.blurforms import BlurSpec
    from .purge import MachineSpec


class FileFormatError(InputError):
    """Raised for unparseable or malformed frame/machine files."""


_KINDS = {dict: "mapping", list: "sequence", type(None): "null"}

_T = TypeVar("_T")


def _reject_unknown(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise FileFormatError(f"unknown key {min(unknown)!r} in {where}")


def _require(mapping: dict, key: str, where: str) -> Any:
    if key not in mapping:
        raise FileFormatError(f"missing key {key!r} in {where}")
    return mapping[key]


def _field(mapping: dict, key: str, where: str, check: Callable[[Any, str], _T]) -> _T:
    """The required ``key`` of ``mapping``, type-checked by ``check``."""
    return check(_require(mapping, key, where), f"{key!r} in {where}")


def _wrong(value: Any, what: str, expected: str) -> FileFormatError:
    kind = _KINDS.get(type(value), type(value).__name__)
    return FileFormatError(f"{what} must be a {expected}, got {kind}")


def _mapping(value: Any, what: str) -> dict:
    if not isinstance(value, dict):
        raise _wrong(value, what, "mapping")
    return value


def _sequence(value: Any, what: str) -> list:
    if not isinstance(value, list):
        raise _wrong(value, what, "sequence")
    return value


def _scalar(value: Any, what: str) -> str:
    """A name or value as a string.  YAML may type it (``1``, ``yes``), but
    a collection or null is never a name."""
    if value is None or isinstance(value, (dict, list)):
        raise _wrong(value, what, "scalar")
    return str(value)


def _scalars(value: Any, what: str) -> list[str]:
    return [_scalar(v, f"each entry of {what}") for v in _sequence(value, what)]


def _rows(values: list, what: str, *fields: str) -> list[tuple[str, ...]]:
    """Sequences of scalars, one per named field: checked in one pass when
    all are lists of strings of the right length, else row by row."""
    if (
        set(map(type, values)) <= {list}
        and set(map(len, values)) <= {len(fields)}
        and set(map(type, chain.from_iterable(values))) <= {str}
    ):
        return list(map(tuple, values))
    out = []
    for value in values:
        if not isinstance(value, list) or len(value) != len(fields):
            raise FileFormatError(f"{what} must be a [{', '.join(fields)}] row")
        out.append(tuple(_scalar(v, f"each field of {what}") for v in value))
    return out


# -- the YAML subset reader --------------------------------------------------


class _Decline(Exception):
    """The document is outside the subset that ``_read_subset`` reads."""


#: A line feed and printable ASCII.  Any other character (a tab, a carriage
#: return, a byte-order mark, NUL, a surrogate, YAML's other line breaks)
#: leaves the document to PyYAML.
_INSIDE = bytes(range(0x20, 0x7F)) + b"\n"

#: Plain scalars that YAML 1.1's implicit resolver types (yaml.org/type):
#: PyYAML's expressions for bool, float, int, merge, null, value and timestamp.
_TYPED = r"""yes|Yes|YES|no|No|NO|true|True|TRUE|false|False|FALSE|on|On|ON|off|Off|OFF
    |[-+]?(?:[0-9][0-9_]*)\.[0-9_]*(?:[eE][-+][0-9]+)?|\.[0-9][0-9_]*(?:[eE][-+][0-9]+)?
    |[-+]?[0-9][0-9_]*(?::[0-5]?[0-9])+\.[0-9_]*|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN)
    |[-+]?0b[0-1_]+|[-+]?0[0-7_]+|[-+]?(?:0|[1-9][0-9_]*)|[-+]?0x[0-9a-fA-F_]+
    |[-+]?[1-9][0-9_]*(?::[0-5]?[0-9])+|<<|~|null|Null|NULL|=
    |[0-9][0-9][0-9][0-9]-[0-9][0-9]-[0-9][0-9]
    |[0-9][0-9][0-9][0-9]-[0-9][0-9]?-[0-9][0-9]?(?:[Tt]|[ \t]+)[0-9][0-9]?:[0-9][0-9]:[0-9][0-9]
     (?:\.[0-9]*)?(?:[ \t]*(?:Z|[-+][0-9][0-9]?(?::[0-9][0-9])?))?"""

#: The scalars ``_TYPED`` matches that start with a letter, and the first
#: characters of all its other matches.
_TYPED_WORDS = frozenset(
    "yes Yes YES no No NO true True TRUE false False FALSE on On ON off Off OFF null Null NULL".split()
)
_TYPED_FIRST = frozenset("0123456789+-.<~=")


def _typed(text: str) -> bool:
    """Whether ``_TYPED`` matches all of ``text``.  Most scalars are names
    that start with a letter, so the expression is compiled, once per
    process by ``re``'s cache, only when a scalar could be a number."""
    if text in _TYPED_WORDS:
        return True
    if not text or text[0] not in _TYPED_FIRST:
        return False
    return re.fullmatch(_TYPED, text, re.X) is not None


#: A plain scalar: it starts with no indicator and no ``.`` (so never
#: ``...``), holds no ``:``, ``?`` or flow indicator, and stops before `` #``.
#: ``{q}`` lists what else it may not hold.
_PLAIN = (
    r"[^ \n\-?:,\[\]{{}}\#&*!|>'\"%@`.{q}][^ \n:?,\[\]{{}}{q}]*"
    r"(?:[ ]+[^ \n\#:?,\[\]{{}}{q}][^ \n:?,\[\]{{}}{q}]*)*"
)

#: A flow sequence on one line that the tokenizer reads whole: one or more
#: items joined by ``, ``, each a plain scalar or a single-quoted one that
#: holds no ``, ``, and no ``'`` but its own two.
_FLOW = r"\[(?:(?:'[^',\n]*(?:,(?! )[^',\n]*)*'|{plain})(?:, (?!\])|(?=\])))+\]".format(
    plain=_PLAIN.format(q="'")
)

#: One token after any spaces: a ``_FLOW`` sequence, or a line break and
#: one or more lines at one indentation that each hold an entry ``- `` of
#: one (f); a scalar, plain or quoted on one line and without escapes (s);
#: an indicator (i); a line break with the blank and comment lines after it
#: and the next line's indentation (n); or anything else (x).  Any other
#: flow collection reads as the scalars and indicators it is written with.
_TOKEN = re.compile(
    rf"[ ]*(?:(?P<f>(?:\n(?P<indent>[ ]*)- (?=\[))?"
    rf"(?:{_FLOW}(?:\n(?P=indent)- (?=\[)|(?!\[)))+(?(indent)(?=\n)))"
    rf"""|(?P<s>'[^'\n]*(?:''[^'\n]*)*'|"[^"\\\n]*"|{_PLAIN.format(q="")})"""
    r"|(?P<i>[-:](?=[ \n])|[\[\]{},])"
    r"|(?P<n>(?:(?<=[ ])\#[^\n]*)?\n(?:[ ]*(?:\#[^\n]*)?\n)*[ ]*)"
    r"|(?P<x>.))"
)


def _tokens(src: str) -> list[tuple[str, Any, Any]]:
    """(kind, value, column) per token: kind ``s`` is a scalar, with its
    string as value; ``f`` a flow sequence, with its list as value; ``n`` a
    line break, whose value is the next line's indentation (-1 at the end);
    any other kind is an indicator.  An f token of entries reads as a line
    break and one ``-`` whose value is the list of their lists; a ``-``
    indicator's value is None."""
    toks = []
    line = 0
    untyped = set()  # scalars that _typed passed

    def items(joined: str, sep: str) -> list[list[str]]:
        # The items of the _FLOW sequences joined by sep: strip the quotes,
        # then split.  A value that _typed types must not be written plain.
        bare = joined.replace("'", "") if "'" in joined else joined
        out = [row.split(", ") for row in bare.split(sep)]
        if not untyped.issuperset(chain.from_iterable(out)):
            plain = set(joined.replace(sep, ", ").split(", "))
            for item in set(chain.from_iterable(out)) - untyped:
                if not _typed(item):
                    untyped.add(item)
                elif item in plain:
                    raise _Decline
        return out

    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        if kind == "x":
            raise _Decline
        text = m.group(kind)
        if kind == "f":
            indent = m.group("indent")
            if indent is not None:
                col = len(indent)
                toks.append(("n", col, 0))
                toks.append(("-", items(text[col + 4 : -1], f"]\n{indent}- ["), col))
            else:
                toks.append(("f", items(text[1:-1], "\n")[0], None))
        elif kind == "s":
            if text[0] == "'":
                text = text[1:-1].replace("''", "'")
            elif text[0] == '"':
                text = text[1:-1]
            elif text not in untyped:
                if _typed(text):
                    raise _Decline
                untyped.add(text)
            toks.append(("s", text, m.start(kind) - line))
        elif kind == "i":
            toks.append((text, None, m.start(kind) - line))
        else:
            line = m.end() - len(text) + text.rfind("\n") + 1
            toks.append(("n", m.end() - line if m.end() < len(src) else -1, 0))
    return toks


def _read_subset(text: str) -> Any:
    """What ``yaml.safe_load(text)`` returns, for a document in the subset
    this package writes: block and flow collections, scalars no implicit
    type resolves, one-line quoted scalars without escapes, and comments.
    Raises _Decline on anything else, null values and duplicate keys too.
    """
    if not text.isascii() or text.encode().translate(None, _INSIDE):
        raise _Decline
    toks = _tokens("\n" + text + "\n")

    def key(i: int, out: dict) -> tuple[str, int]:
        # PyYAML takes a scalar as a key only on its ':''s line and at most
        # 1024 characters before it.
        kind, name, col = toks[i]
        if kind != "s" or toks[i + 1][0] != ":" or toks[i + 1][2] - col >= 1024 or name in out:
            raise _Decline
        return name, i + 2

    def skip(i: int, floor: int) -> int:
        # Line breaks inside a flow collection, whose lines stay indented
        # past its block's.
        while toks[i][0] == "n":
            if toks[i][1] <= floor:
                raise _Decline
            i += 1
        return i

    def flow(i: int, floor: int) -> tuple[Any, int]:
        kind, value, _ = toks[i]
        if kind == "s" or kind == "f":
            return value, i + 1
        if kind not in ("[", "{"):
            raise _Decline
        out: Any = [] if kind == "[" else {}
        close = "]" if kind == "[" else "}"
        i = skip(i + 1, floor)
        while toks[i][0] != close:
            if kind == "[":
                item, i = flow(i, floor)
                out.append(item)
            else:
                name, i = key(i, out)
                out[name], i = flow(skip(i, floor), floor)
            i = skip(i, floor)
            if toks[i][0] == ",":
                i = skip(i + 1, floor)
                if toks[i][0] == close:
                    raise _Decline
            elif toks[i][0] != close:
                raise _Decline
        return out, i + 1

    def value(i: int, col: int, after_key: bool) -> tuple[Any, int]:
        # The node after a key's ':' or an entry's '-' at column col, on
        # the same line or starting the next; `here` is its first column.
        kind, indent, here = toks[i]
        if kind == "n":
            if not (indent > col or (after_key and indent == col and toks[i + 1][0] == "-")):
                raise _Decline
            i, here = i + 1, indent
        elif after_key and (kind == "-" or toks[i + 1][0] == ":"):
            raise _Decline
        if toks[i][0] == "-":
            return sequence(i, here)
        if toks[i][0] == "s" and toks[i + 1][0] == ":":
            return mapping(i, here)
        node, i = flow(i, col)
        if toks[i][0] != "n":
            raise _Decline
        return node, i

    def mapping(i: int, col: int) -> tuple[dict, int]:
        out: dict = {}
        while True:
            name, i = key(i, out)
            out[name], i = value(i, col, True)
            if toks[i][1] != col:
                return out, i
            i += 1

    def sequence(i: int, col: int) -> tuple[list, int]:
        out = []
        while True:
            entries = toks[i][1]
            if entries is None:
                item, i = value(i + 1, col, False)
                out.append(item)
            else:
                out += entries
                i += 1
            if toks[i][1] != col or toks[i + 1][0] != "-":
                return out, i
            i += 1

    doc, i = value(0, -1, False)
    if i != len(toks) - 1:
        raise _Decline
    return doc


def _load_yaml(text: str) -> dict:
    try:
        doc = _read_subset(text)
    except (_Decline, RecursionError):
        doc = _load_yaml_pure(text)
    return _mapping(doc, "document")


def _load_yaml_pure(text: str) -> Any:
    import yaml

    try:
        return yaml.safe_load(text)
    except yaml.MarkedYAMLError as exc:  # pragma: no cover - mark presence varies
        mark = exc.problem_mark or exc.context_mark
        if mark is not None:
            raise FileFormatError(
                f"parse error at line {mark.line + 1}, column {mark.column + 1}: {exc.problem}"
            ) from exc
        raise FileFormatError(f"parse error: {exc}") from exc
    except yaml.YAMLError as exc:
        raise FileFormatError(f"parse error: {exc}") from exc
    except RecursionError:
        raise FileFormatError("parse error: the document nests too deeply") from None


def _parse_location(entry: Any) -> Location:
    from .frames import ExplicitTraces, Location, Lts

    entry = _mapping(entry, "each location")
    _reject_unknown(entry, {"id", "traces", "lts"}, "location")
    loc_id = _field(entry, "id", "location", _scalar)
    if ("traces" in entry) == ("lts" in entry):
        raise FileFormatError(f"location {loc_id!r} needs exactly one of 'traces' or 'lts'")
    if "traces" in entry:
        parsed = []
        for t in _field(entry, "traces", f"location {loc_id!r}", _sequence):
            trace = _sequence(t, f"each trace of {loc_id!r}")
            parsed.append(tuple(_rows(trace, f"a label of {loc_id!r}", "channel", "value")))
        # Stored as given: prefix-closure is a well-formedness condition
        # that validate_frame reports, not something the parser repairs.
        return Location(loc_id, ExplicitTraces(frozenset(parsed)))
    where = f"lts of {loc_id!r}"
    body = _field(entry, "lts", f"location {loc_id!r}", _mapping)
    _reject_unknown(body, {"states", "initial", "transitions"}, where)
    states = frozenset(_field(body, "states", where, _scalars))
    initial = _field(body, "initial", where, _scalar)
    rows = _field(body, "transitions", where, _sequence)
    fields = ("state", "channel", "value", "state")
    transitions = {(s, (c, v), t) for s, c, v, t in _rows(rows, f"each transition in {where}", *fields)}
    return Location(loc_id, Lts(states, initial, frozenset(transitions)))


def _parse_blur(name: str, body: Any, frame: Frame) -> BlurSpec:
    from .frames.blurforms import AllBlur, IdentityBlur, PermutationBlur, SelectionBlur

    where = f"blur {name!r}"
    body = _mapping(body, where)
    kind = _field(body, "kind", where, _scalar)
    chans = frozenset(frame.channel_ids)

    def names(values: list[str], key: str, known: Any, what: str = "a declared channel") -> list[str]:
        for n in values:
            if n not in known:
                raise FileFormatError(f"{key!r} in {where} names {n!r}, which is not {what}")
        return values

    if kind == "identity":
        _reject_unknown(body, {"kind"}, where)
        return IdentityBlur()
    if kind == "all":
        _reject_unknown(body, {"kind"}, where)
        return AllBlur()
    if kind == "permutation":
        _reject_unknown(body, {"kind", "members", "blocks", "fixed"}, where)
        members = names(_field(body, "members", where, _scalars), "members", chans)
        blocks = None
        if body.get("blocks") is not None:
            blocks = tuple(
                frozenset(names(_scalars(blk, f"each block of {where}"), "blocks", chans))
                for blk in _field(body, "blocks", where, _sequence)
            )
        fixed = names(_scalars(body.get("fixed", []), f"'fixed' in {where}"), "fixed", chans)
        names(fixed, "fixed", members, "one of its members")
        return PermutationBlur(members=tuple(members), blocks=blocks, fixed=frozenset(fixed))
    if kind == "selection":
        _reject_unknown(body, {"kind", "channels", "values"}, where)

        def selected(key: str, known: Any, what: str) -> frozenset[str] | None:
            if body.get(key) is None:
                return None
            return frozenset(names(_field(body, key, where, _scalars), key, known, what))

        return SelectionBlur(
            channels=selected("channels", chans, "a declared channel"),
            values=selected("values", frame.data, "in 'data'"),
        )
    raise FileFormatError(f"{where} has unknown kind {kind!r}")


def parse_frame_document(
    text: str,
) -> tuple[Frame, dict[str, frozenset[str]], dict[str, BlurSpec]]:
    """Parse a frame file into (frame, named channel sets, blurs)."""
    from .frames import Channel, Frame

    doc = _load_yaml(text)
    _reject_unknown(doc, {"frame"}, "document")
    body = _field(doc, "frame", "document", _mapping)
    _reject_unknown(
        body, {"data", "locations", "channels", "channel_sets", "blurs"}, "frame"
    )

    data = _field(body, "data", "frame", _scalars)
    locations = [_parse_location(e) for e in _field(body, "locations", "frame", _sequence)]
    channels = []
    for e in _field(body, "channels", "frame", _sequence):
        e = _mapping(e, "each channel")
        _reject_unknown(e, {"id", "sender", "recipient"}, "channel")
        fields = (_field(e, key, "channel", _scalar) for key in ("id", "sender", "recipient"))
        channels.append(Channel(*fields))
    frame = Frame.build(locations, channels, data)

    named: dict[str, frozenset[str]] = {}
    for name, ids in _mapping(body.get("channel_sets") or {}, "'channel_sets' in frame").items():
        named[str(name)] = frozenset(_scalars(ids, f"channel set {name!r}"))

    blurs: dict[str, BlurSpec] = {}
    for name, spec in _mapping(body.get("blurs") or {}, "'blurs' in frame").items():
        blurs[str(name)] = _parse_blur(str(name), spec, frame)
    return frame, named, blurs


def parse_machine_document(text: str) -> MachineSpec:
    """Parse a machine file.  Reflexive influence pairs are implicit."""
    from .purge import MachineSpec

    doc = _load_yaml(text)
    _reject_unknown(doc, {"machine"}, "document")
    body = _field(doc, "machine", "document", _mapping)
    _reject_unknown(
        body,
        {"domains", "influence", "actions", "outputs", "states", "initial", "transitions", "obs"},
        "machine",
    )
    domains = _field(body, "domains", "machine", _scalars)
    pairs = _sequence(body.get("influence", []), "'influence' in machine")
    influence = _rows(pairs, "each influence entry", "from", "to")
    actions = _field(body, "actions", "machine", _mapping)
    rows = _field(body, "transitions", "machine", _sequence)
    transitions = set(_rows(rows, "each transition", "state", "action", "state"))
    obs = {}
    for s, per_domain in _field(body, "obs", "machine", _mapping).items():
        for d, o in _mapping(per_domain, f"obs[{s!r}]").items():
            obs[(str(s), str(d))] = _scalar(o, f"obs[{s!r}][{d!r}]")
    try:
        return MachineSpec.build(
            domains=domains,
            influence=influence,
            action_domain={str(a): _scalar(d, f"actions[{a!r}]") for a, d in actions.items()},
            outputs=_field(body, "outputs", "machine", _scalars),
            states=_field(body, "states", "machine", _scalars),
            initial=_field(body, "initial", "machine", _scalar),
            transitions=transitions,
            obs=obs,
        )
    except ValueError as exc:
        raise FileFormatError(str(exc)) from exc

