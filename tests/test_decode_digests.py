"""Byte-identity of fast and strict ``decode`` output against checked-in digests.

Each document is one decode of one transcript, in one mode.  Its digest is the
SHA-256 of the JSON of ``to_json()``, ``feasible_count``,
``scenarios_examined``, ``estimates``, every feasible solution's
``to_json()`` and every witness pair in insertion order, or of the exception
type when ``decode`` raises.  Particular solutions, pinned sets and
nullspace bases are invariants of each scenario's solution set, so a decoder
change that keeps results equal keeps every digest.

``decode_digests.json`` was written by the full-system decoder that rebuilt
every flagged scenario's ``[D | X_q | y]`` from scratch.  Rewrite it only
when outputs change on purpose::

    PYTHONPATH=src python tests/test_decode_digests.py --write
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
    GeneratorMatrix,
    SystemConfig,
    Transcript,
    behavior_honest,
    behavior_random_adversarial,
    converse_attack,
    decode,
    draw_mds,
    encode_transcript,
    field_new,
)

DIGESTS = pathlib.Path(__file__).with_name("decode_digests.json")

KINDS = ("random", "systematic", "reed_solomon")
CELLS = (
    (12, 6, 1, 2), (12, 4, 2, 2), (9, 4, 1, 2), (10, 3, 2, 2), (11, 3, 1, 3), (8, 4, 2, 1)
)
DEGENERATE_CELLS = ((7, 3, 1, 2), (6, 3, 1, 3), (6, 4, 2, 2))


def _transcripts():
    """Yield ``(name, cfg, gm, nodes, transcript)`` for every document."""
    # MDS codes at t*, t*-1, t*-2 and K+1: a random adversary, and all-honest
    # for beta = 1 (beta = 2 honest transcripts leave tens of thousands of
    # feasible scenarios, too slow here).
    for N, K, beta, v in CELLS:
        cfg = SystemConfig(N, K, beta, v)
        ctx = field_new(cfg.p)
        for kind in KINDS:
            gm = draw_mds(ctx, kind, N, K, seed=N * 100 + K * 10 + beta)
            for t in sorted({cfg.t_star, cfg.t_star - 1, cfg.t_star - 2, K + 1}):
                rng = random.Random(f"mds{N},{K},{beta},{v},{kind},{t}")
                msgs = [rng.randrange(cfg.p) for _ in range(K)]
                adv = sorted(rng.sample(range(K), beta))
                nodes = tuple(sorted(rng.sample(range(N), t)))
                seed = rng.randrange(1 << 30)
                behaviors = [("adv", behavior_random_adversarial(cfg, msgs, adv, seed))]
                if beta == 1:
                    behaviors.append(("honest", behavior_honest(cfg, msgs)))
                for label, behavior in behaviors:
                    tr = encode_transcript(gm, behavior, nodes)
                    yield f"mds {N},{K},{beta},{v} {kind} t={t} {label}", cfg, gm, nodes, tr
        # The converse attack's two setups, on its encoders and with 1 or 2 dropped.
        gm = draw_mds(ctx, "random", N, K, seed=N + K)
        atk = converse_attack(gm, cfg, seed=3)
        for drop in (0, 1, 2):
            nodes = atk.node_set[: len(atk.node_set) - drop]
            for label, setup in (("setup1", atk.setup1), ("setup2", atk.setup2)):
                tr = encode_transcript(gm, setup, nodes)
                yield f"attack {N},{K},{beta},{v} {label} drop={drop}", cfg, gm, nodes, tr
    # Random, repeated-column and zero-column codes over small fields at every
    # t from K-1 to N, so some honest blocks are rank-deficient; a random
    # adversary's transcript and a shifted (non-codeword) one.
    for N, K, beta, v in DEGENERATE_CELLS:
        for p in (3, 5, 101):
            cfg = SystemConfig(N, K, beta, v, p=p)
            ctx = FieldContext(p)
            for kind in ("random", "repeated_column", "zero_column"):
                rng = random.Random(f"deg{N},{K},{beta},{v},{p},{kind}")
                rows = [[rng.randrange(1, p) for _ in range(K)] for _ in range(N)]
                if kind != "random":
                    for row in rows:
                        row[1] = row[0] if kind == "repeated_column" else 0
                gm = GeneratorMatrix(FieldMatrix(ctx, rows), "random")
                for t in range(K - 1, N + 1):
                    nodes = tuple(sorted(rng.sample(range(N), t)))
                    msgs = [rng.randrange(p) for _ in range(K)]
                    adv = sorted(rng.sample(range(K), beta))
                    seed = rng.randrange(1 << 30)
                    behavior = behavior_random_adversarial(cfg, msgs, adv, seed)
                    tr = encode_transcript(gm, behavior, nodes)
                    shift = tuple((x + i) % p for i, x in enumerate(tr.values))
                    shifted = Transcript(nodes, shift)
                    name = f"deg {N},{K},{beta},{v} p={p} {kind} t={t}"
                    yield f"{name} adv", cfg, gm, nodes, tr
                    yield f"{name} shifted", cfg, gm, nodes, shifted
    # A modulus above the int64 path: object arrays.
    cfg = SystemConfig(7, 3, 2, 2, p=2**61 - 1)
    gm = draw_mds(field_new(cfg.p), "random", 7, 3, seed=7)
    for t in (cfg.t_star - 1, cfg.t_star):
        rng = random.Random(f"p61 t={t}")
        nodes = tuple(sorted(rng.sample(range(7), t)))
        msgs = [rng.randrange(cfg.p) for _ in range(3)]
        behavior = behavior_random_adversarial(cfg, msgs, [1, 2], rng.randrange(1 << 30))
        yield f"p61 7,3,2,2 t={t}", cfg, gm, nodes, encode_transcript(gm, behavior, nodes)


def _digest(cfg, gm, nodes, tr, mode: str) -> str:
    try:
        res = decode(gm, nodes, tr, cfg, mode=mode)
    except Exception as exc:  # the exception type is part of the output
        doc = ["raised", type(exc).__name__]
    else:
        doc = [
            res.to_json(),
            res.feasible_count,
            res.scenarios_examined,
            list(res.estimates),
            [s.to_json() for s in res.feasible],
            [[k, a.to_json(), b.to_json()] for k, (a, b) in res.witnesses.items()],
        ]
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _all_digests() -> dict[str, str]:
    out = {}
    for name, cfg, gm, nodes, tr in _transcripts():
        for mode in ("fast", "strict"):
            out[f"{name} {mode}"] = _digest(cfg, gm, nodes, tr, mode)
    return out


def test_decode_outputs_match_the_checked_in_digests():
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
