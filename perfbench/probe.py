"""
Facts about the inputs and the environment, printed as one JSON object.

Usage:
  python3 perfbench/probe.py env
  python3 perfbench/probe.py exact KIND:FILE:BOUND ...   (KIND is frame or machine)

``exact`` enumerates one event past each bound.  A bound is exact when no
execution needs that extra event, which is the same budget-complete test
the test suite's random frames pass; the executions within the bound are
the ones with at most ``BOUND`` events.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from importlib import metadata


def environment() -> dict:
    import yaml

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "networkx": metadata.version("networkx"),
        "pyyaml": yaml.__version__,
        "yaml_with_libyaml": bool(yaml.__with_libyaml__),
        "fileformat_loader": "yaml.safe_load (pure Python)",
        "platform": platform.platform(),
    }


def exactness(kind: str, path: str, bound: int) -> dict:
    from flowcut.enumeration import Bound, enumerate_executions
    from flowcut.fileformat import parse_frame_document, parse_machine_document
    from flowcut.purge import star_frame

    with open(path) as fh:
        text = fh.read()
    if kind == "machine":
        frame = star_frame(parse_machine_document(text))
    else:
        frame = parse_frame_document(text)[0]
    sizes = [s.n_events for s in enumerate_executions(frame, Bound(bound + 1)).systems]
    return {
        "file": path,
        "bound": bound,
        "exact": max(sizes) <= bound,
        "executions": sum(n <= bound for n in sizes),
    }


def main(argv: list[str]) -> int:
    if argv[:1] == ["env"]:
        print(json.dumps(environment(), sort_keys=True))
        return 0
    if argv[:1] == ["exact"] and len(argv) > 1:
        out = []
        for spec in argv[1:]:
            kind, path, bound = spec.split(":")
            out.append(exactness(kind, path, int(bound)))
        print(json.dumps(out, sort_keys=True))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
