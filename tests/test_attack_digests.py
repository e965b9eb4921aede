"""Byte-identity of the converse attack and the full-rank row partition
against checked-in digests.

Each document is one ``converse_attack`` (its ``to_json()`` and its groups)
or one ``partition_full_rank`` call (its blocks), or the exception type when
the call raises.  Its digest is the SHA-256 of the document's JSON.  The
random partition inputs plant zero rows and rows parallel to one direction,
so they hit every precondition failure and the leftover repair; the
engineered inputs force the repair's row exchange.

``attack_digests.json`` was written by the attack whose plan search raises
``SelectionImpossible`` alone, as on every (6,3,2,2) code.  Rewrite it only
when outputs change on purpose::

    PYTHONPATH=src python tests/test_attack_digests.py --write
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import sys

from distcode import (
    FieldContext,
    FieldMatrix,
    SystemConfig,
    converse_attack,
    partition_full_rank,
)

from test_attacks import DIGEST_CELLS, KINDS, digest_code, engineered_repair_input

DIGESTS = pathlib.Path(__file__).with_name("attack_digests.json")

SHAPES = ((2, 1, 2), (3, 1, 3), (1, 2, 2), (2, 2, 2), (3, 2, 2), (2, 2, 3))
REPAIRS = ((1, 2, 2, 2), (2, 2, 2, 2), (3, 2, 2, 2), (4, 3, 2, 3), (5, 3, 2, 3),
           (6, 3, 2, 3), (7, 2, 2, 3), (8, 1, 2, 2))


def _outcome(fn):
    try:
        return fn()
    except Exception as exc:  # the exception type is part of the output
        return ["raised", type(exc).__name__]


def _attack(cfg, gm, seed):
    atk = converse_attack(gm, cfg, seed)
    return [atk.to_json(), [list(g) for g in atk.groups]]


def _random_input(ctx, rng, h, beta, v):
    """Rows that are zero, parallel to one direction, or random."""
    t = h + 2 * beta * v - beta - 1
    direction = [rng.randrange(1, ctx.p) for _ in range(beta)]
    rows = []
    for _ in range(t):
        u = rng.random()
        if u < 0.1:
            rows.append([0] * beta)
        elif u < 0.4:
            c = rng.randrange(1, ctx.p)
            rows.append([c * x % ctx.p for x in direction])
        else:
            rows.append([rng.randrange(ctx.p) for _ in range(beta)])
    return FieldMatrix(ctx, rows)


def _documents():
    """Yield ``(name, thunk)`` for every document."""
    for N, K, beta, v in DIGEST_CELLS:
        cfg = SystemConfig(N, K, beta, v)
        for kind in KINDS:
            for seed in range(8):
                gm = digest_code(kind, N, K, seed)
                name = f"attack {N},{K},{beta},{v} {kind} seed={seed}"
                yield name, lambda cfg=cfg, gm=gm, seed=seed: _attack(cfg, gm, seed)
    for p in (5, 2**31 - 1):
        ctx = FieldContext(p)
        for h, beta, v in SHAPES:
            for seed in range(30):
                rng = random.Random(f"partition {p} {h},{beta},{v} {seed}")
                E = _random_input(ctx, rng, h, beta, v)
                name = f"partition p={p} {h},{beta},{v} seed={seed}"
                yield name, lambda E=E, h=h, beta=beta, v=v: partition_full_rank(E, h, beta, v)
    for seed, h, beta, v in REPAIRS:
        E = engineered_repair_input(seed, h, beta, v)
        name = f"repair {h},{beta},{v} seed={seed}"
        yield name, lambda E=E, h=h, beta=beta, v=v: partition_full_rank(E, h, beta, v)


def _all_digests() -> dict[str, str]:
    out = {}
    for name, thunk in _documents():
        doc = json.dumps(_outcome(thunk), sort_keys=True)
        out[name] = hashlib.sha256(doc.encode()).hexdigest()
    return out


def test_attack_outputs_match_the_checked_in_digests():
    want = json.loads(DIGESTS.read_text())
    got = _all_digests()
    assert got.keys() == want.keys()
    differ = [name for name in want if got[name] != want[name]]
    assert not differ, f"{len(differ)} of {len(want)} documents changed: {differ[:5]}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    digests = _all_digests()
    DIGESTS.write_text(json.dumps(digests, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS}")
