"""Byte-identity of ``distcode sweep`` output against checked-in digests.

Each document is one sweep spec run through the CLI in one output format.
Its digest is the SHA-256 of the bytes written, so the digests pin the
seed labels and RNG draw order of both suites, their strict/fast mix, the
converse node lists, the budget path, the column order and the meta block.
Together the specs take about two seconds.

``sweep_digests.json`` was written by the sweep with one cell runner per
suite.  Rewrite it only when outputs change on purpose::

    PYTHONPATH=src python tests/test_sweep_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys
import tempfile

from distcode.cli import main

DIGESTS = pathlib.Path(__file__).with_name("sweep_digests.json")

# None runs the built-in default grid.
SPECS = {
    "default": None,
    "kinds relative": {
        "cells": [[9, 3, 1, 2], [8, 4, 1, 2]],
        "kinds": ["random", "systematic", "reed_solomon"],
        "t_mode": "relative",
        "t_values": [0, -1],
        "trials": 4,
        "seed": 11,
    },
    # t=3 cuts the attack's four encoders; t=7 adds the three others.
    "absolute": {
        "cells": [[7, 3, 1, 2]],
        "t_mode": "absolute",
        "t_values": [3, 5, 7],
        "trials": 5,
        "seed": 12,
    },
    # Every decode here examines more than 1000 scenarios.
    "budget refuses": {"cells": [[10, 4, 2, 2]], "trials": 3, "seed": 13, "budget": 1000},
    "workers": {
        "cells": [[9, 3, 1, 2], [7, 3, 1, 3]],
        "kinds": ["random", "systematic"],
        "trials": 3,
        "seed": 14,
        "workers": 2,
    },
}


def _all_digests() -> dict[str, str]:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        tmp = pathlib.Path(tmp)
        for name, spec in SPECS.items():
            argv = ["-q", "sweep"]
            if spec is not None:
                (tmp / "spec.json").write_text(json.dumps(spec))
                argv += ["--spec", str(tmp / "spec.json")]
            for fmt in ("csv", "json"):
                path = tmp / f"out.{fmt}"
                assert main(argv + ["--format", fmt, "--out", str(path)]) == 0
                out[f"{name} {fmt}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def test_sweep_outputs_match_the_checked_in_digests():
    want = json.loads(DIGESTS.read_text())
    got = _all_digests()
    assert got.keys() == want.keys()
    differ = [name for name in want if got[name] != want[name]]
    assert not differ, f"{len(differ)} of {len(want)} documents changed: {differ}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    digests = _all_digests()
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
