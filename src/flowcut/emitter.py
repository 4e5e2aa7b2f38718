"""
Writing a frame file: a frame, its named channel sets and its declarative
blurs as the document ``fileformat`` reads back to an equal frame.

Only the commands that write a file (``scenario``) and the tests import
this module, so a command that reads a file does not compile the writer.
It writes through PyYAML's ``safe_dump``.
"""

from __future__ import annotations

import yaml

from .fileformat import FileFormatError
from .frames import ExplicitTraces, Frame
from .frames.blurforms import AllBlur, BlurSpec, IdentityBlur, PermutationBlur, SelectionBlur


def emit_frame_document(
    frame: Frame,
    named_sets: dict[str, frozenset[str]] | None = None,
    blurs: dict[str, BlurSpec] | None = None,
) -> str:
    """Serialize a frame (with optional named sets and declarative blurs)
    so that reparsing yields an equal frame."""
    locations = []
    for loc in frame.locations:
        spec = loc.behavior
        if isinstance(spec, ExplicitTraces):
            body = {
                "id": loc.id,
                "traces": [[[c, v] for c, v in t] for t in sorted(spec.traces)],
            }
        else:
            body = {
                "id": loc.id,
                "lts": {
                    "states": sorted(spec.states),
                    "initial": spec.initial,
                    "transitions": [
                        [s, lab[0], lab[1], t] for s, lab, t in sorted(spec.transitions)
                    ],
                },
            }
        locations.append(body)
    doc: dict = {
        "frame": {
            "data": sorted(frame.data),
            "locations": locations,
            "channels": [
                {"id": c.id, "sender": c.sender, "recipient": c.recipient}
                for c in frame.channels
            ],
        }
    }
    if named_sets:
        doc["frame"]["channel_sets"] = {k: sorted(v) for k, v in sorted(named_sets.items())}
    if blurs:
        rendered = {}
        for name, blur in sorted(blurs.items()):
            rendered[name] = _emit_blur(name, blur)
        doc["frame"]["blurs"] = rendered
    return yaml.safe_dump(doc, sort_keys=False, default_flow_style=None)


def _emit_blur(name: str, blur: BlurSpec) -> dict:
    if isinstance(blur, IdentityBlur):
        return {"kind": "identity"}
    if isinstance(blur, AllBlur):
        return {"kind": "all"}
    if isinstance(blur, PermutationBlur):
        out: dict = {"kind": "permutation", "members": list(blur.members)}
        if blur.blocks is not None:
            out["blocks"] = [sorted(b) for b in blur.blocks]
        if blur.fixed:
            out["fixed"] = sorted(blur.fixed)
        return out
    if isinstance(blur, SelectionBlur):
        out = {"kind": "selection"}
        if blur.channels is not None:
            out["channels"] = sorted(blur.channels)
        if blur.values is not None:
            out["values"] = sorted(blur.values)
        return out
    raise FileFormatError(
        f"blur {name!r} of kind {type(blur).__name__} has no file representation"
    )
