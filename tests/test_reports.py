"""
Golden report corpus: the sha256 of the ``--json`` report and of the text
report of a fixed set of small commands, run in-process through
``cli.main``.

The digests in ``tests/data/report_digests.json`` pin the report bytes, so
a change to enumeration, canonical forms or table building that alters any
verdict, count, witness or ordering fails here.  A change that means to
alter report bytes rewrites the file with

    PYTHONPATH=src:tests python tests/test_reports.py --write

and says why; it prints the name of every entry it changed, added or
removed, to check against the stated changes.  ``python
tests/test_reports.py --print DIR`` prints the digests computed in ``DIR``
without writing them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

from flowcut.cli import main as cli_main

from support import child_env, downgrader_machine, machine_document

DIGESTS = Path(__file__).parent / "data" / "report_digests.json"

FW, V1, V22, M = "fw.yaml", "v1.yaml", "v22.yaml", "m.yaml"
T, BAD_T = "t.yaml", "bad-t.yaml"

#: A frame whose every location lists its traces: a relay ``M`` copies the
#: sender's value from ``a`` to ``b``, and ``R`` takes ``b`` and ``c`` in
#: either order for some values only.
TRACES_FRAME = """
frame:
  data: ["0", "1"]
  locations:
    - id: M
      traces:
        - []
        - [[a, "0"]]
        - [[a, "1"]]
        - [[a, "0"], [b, "0"]]
        - [[a, "1"], [b, "1"]]
    - id: R
      traces:
        - []
        - [[b, "0"]]
        - [[b, "1"]]
        - [[c, "0"]]
        - [[b, "1"], [c, "0"]]
        - [[c, "0"], [b, "0"]]
        - [[c, "0"], [b, "1"]]
    - id: S
      traces:
        - []
        - [[s, "0"]]
        - [[a, "0"]]
        - [[a, "1"]]
        - [[a, "1"], [c, "0"]]
        - [[s, "0"], [a, "0"]]
        - [[s, "0"], [c, "0"]]
  channels:
    - {id: a, sender: S, recipient: M}
    - {id: b, sender: M, recipient: R}
    - {id: c, sender: S, recipient: R}
    - {id: s, sender: S, recipient: S}
  channel_sets:
    high: [s]
    low: [b, c]
"""

#: A malformed trace set: a trace whose prefix is missing, a label on a
#: channel not at the location and a value outside ``data``.
BAD_TRACES_FRAME = """
frame:
  data: ["0"]
  locations:
    - id: K
      traces:
        - []
        - [[d, "0"]]
    - id: L
      traces:
        - []
        - [[c, "0"], [c, "0"]]
        - [[d, "0"]]
        - [[c, "9"]]
  channels:
    - {id: c, sender: L, recipient: L}
    - {id: d, sender: K, recipient: K}
"""

#: name -> CLI arguments (``--json`` is appended)
CORPUS = {
    "enumerate-fw": ["enumerate", FW, "--bound", "6"],
    "runs-fw-cut": ["runs", FW, "--channels", "cut", "--bound", "6"],
    "min-cut-fw": ["min-cut", FW, "--source", "chans_i", "--observed", "chans_n"],
    "check-cut-fw": ["check-cut", FW, "--source", "chans_i", "--cut", "c1", "--observed", "chans_n"],
    "cmpt-fw-cut-n": ["cmpt", FW, "--observed", "cut", "--source", "chans_n", "--run-index", "1", "--bound", "6"],
    "check-blur-fw-f_e": ["check-blur", FW, "--blur", "f_e", "--source", "chans_n", "--observed", "cut", "--bound", "6"],
    "nodisclosure-fw-i-n": ["nodisclosure", FW, "--source", "chans_i", "--observed", "chans_n", "--bound", "6"],
    "verify-cutblur-fw-f_i": [
        "verify-cutblur", FW, "--blur", "f_i", "--source", "chans_i", "--cut", "cut",
        "--observed", "chans_n", "--bound", "6",
    ],
    "runs-v22-pub": ["runs", V22, "--channels", "pub", "--bound", "8"],
    "check-blur-v22-f0": ["check-blur", V22, "--blur", "f0", "--source", "voters", "--observed", "pub", "--bound", "8"],
    "check-blur-v22-f0_blocks": [
        "check-blur", V22, "--blur", "f0_blocks", "--source", "voters", "--observed", "pub", "--bound", "8",
    ],
    "compose-v1-v22-f0_p1": [
        "compose", V1, V22, "--core", "v1_1,v1_2,BB1", "--blur", "f0_p1", "--source", "voters1",
        "--observed", "p", "--bound", "8",
    ],
    "ni-m-d1-gm": ["ni", M, "--target", "d1", "--purge", "gm", "--bound", "9"],
    "nd-m-d1-gm": ["nd", M, "--target", "d1", "--purge", "gm", "--bound", "9"],
    "nd-m-d2-hy": ["nd", M, "--target", "d2", "--purge", "hy", "--bound", "9"],
    "purge-blur-m-d2-hy": ["purge-blur", M, "--target", "d2", "--purge", "hy", "--bound", "9"],
    # Explicit trace sets, well-formed and not.
    "validate-t": ["validate", T],
    "enumerate-t": ["enumerate", T, "--bound", "5"],
    "runs-t-low": ["runs", T, "--channels", "low", "--bound", "5"],
    "nodisclosure-t-high-low": ["nodisclosure", T, "--source", "high", "--observed", "low", "--bound", "5"],
    "validate-bad-t": ["validate", BAD_T],
    # The purge-star workload's commands, at its bound.
    "ni-m-d1-gm-13": ["ni", M, "--target", "d1", "--purge", "gm", "--bound", "13"],
    "nd-m-d1-gm-13": ["nd", M, "--target", "d1", "--purge", "gm", "--bound", "13"],
    "nd-m-d2-hy-13": ["nd", M, "--target", "d2", "--purge", "hy", "--bound", "13"],
    "purge-blur-m-d2-hy-13": ["purge-blur", M, "--target", "d2", "--purge", "hy", "--bound", "13"],
    # The scenario documents themselves, which every file above is built from.
    **{
        f"scenario-firewall-{filtering}-{sends}": [
            "scenario", "firewall", "--filtering", filtering, "--region-sends", str(sends),
        ]
        for filtering in ("standard", "discard_all")
        for sends in range(4)
    },
    **{
        f"scenario-voting-{precincts}": ["scenario", "voting", "--precincts", precincts]
        for precincts in ("2", "2,2", "3,3")
    },
}


def _run(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    return code, out.getvalue()


def compute_digests(workdir: Path) -> dict[str, dict]:
    """Write the corpus inputs into ``workdir`` and digest every report.

    Reports name their input file, so the commands run from ``workdir``
    with relative file names.
    """
    old = os.getcwd()
    os.chdir(workdir)
    try:
        for argv in (
            ["scenario", "firewall", "--out", FW],
            ["scenario", "voting", "--precincts", "2", "--out", V1],
            ["scenario", "voting", "--precincts", "2,2", "--out", V22],
        ):
            code, _ = _run(argv)
            assert code == 0, argv
        Path(M).write_text(machine_document(downgrader_machine()))
        Path(T).write_text(TRACES_FRAME)
        Path(BAD_T).write_text(BAD_TRACES_FRAME)
        digests = {}
        for name, argv in CORPUS.items():
            code, out = _run(argv + ["--json"])
            text_code, text = _run(argv)
            assert text_code == code, name
            digests[name] = {
                "argv": argv,
                "exit_code": code,
                "sha256": hashlib.sha256(out.encode()).hexdigest(),
                "text_sha256": hashlib.sha256(text.encode()).hexdigest(),
            }
        return digests
    finally:
        os.chdir(old)


def test_report_digests_match_corpus(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    assert compute_digests(tmp_path) == expected


def test_report_digests_do_not_depend_on_the_hash_seed(tmp_path):
    # Reports are built from sets of runs, whose iteration order follows the
    # runs' hashes and so the string hash seed.  Each child computes the
    # whole corpus with the flowcut this process imported.
    children = []
    for seed in ("0", "1"):
        (tmp_path / seed).mkdir()
        children.append(
            subprocess.Popen(
                [sys.executable, __file__, "--print", str(tmp_path / seed)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=child_env(PYTHONHASHSEED=seed),
            )
        )
    expected = json.loads(DIGESTS.read_text())
    for seed, child in zip(("0", "1"), children):
        out, err = child.communicate(timeout=120)
        assert child.returncode == 0, (seed, err.decode(errors="replace"))
        assert json.loads(out) == expected, seed


if __name__ == "__main__":
    import tempfile

    if len(sys.argv) == 3 and sys.argv[1] == "--print":
        print(json.dumps(compute_digests(Path(sys.argv[2]))))
        sys.exit()
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: test_reports.py --write | --print DIR")
    old = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    with tempfile.TemporaryDirectory() as tmp:
        new = compute_digests(Path(tmp))
    DIGESTS.write_text(json.dumps(new, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    for name in sorted(old.keys() | new.keys()):
        if old.get(name) != new.get(name):
            print(f"changed: {name}")
