"""The benchmark's workloads.

Each workload builds its state from the benchmark seed in ``setup``, runs one
closed-loop trial per ``trial`` call, and judges the trial's output in
``check`` with code independent of the layers under test.  Trials follow the
recipes in ``distcode.experiments``, and per-trial seeds come from
``experiments.derive_seed``.  Every call into distcode goes through a module
attribute (``decoding.decode``), so the tracer's wrappers see it.

Why these three:

* ``threshold`` decodes at t* on (12,4,2,2).  About 1 scenario in 98,304 is
  feasible, so the batched feasibility kernel on 16,384-system stacks takes
  most of the time.  Projection and pruning of the sweep must show here.
* ``converse`` builds and verifies the two-setup attack on a (12,6,1,2) code
  of each kind, then decodes setup 1 in strict mode at t*-1.  Systems are
  square and almost every scenario is feasible, so the exact re-solve
  dominates; pruning cannot help, and a slower solve or witness path shows
  here.  One trial covers all three kinds, whose costs differ, so trial
  times are not a mixture of three modes.
* ``construct`` draws a fresh MDS (12,4) code of each kind and builds and
  verifies a (12,4,2,2) attack on it.  The kernels run on small stacks where
  per-call overhead dominates, so a kernel tuned only for big stacks shows
  here.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

import numpy as np

from distcode import attacks, codes, decoding, experiments, field, system

KINDS = ("random", "systematic", "reed_solomon")


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], object]  # seed -> state shared by the trials
    trial: Callable[[object, int], object]  # (state, index) -> output
    check: Callable[[object, int, object], str | None]  # failure reason or None
    cycle: int  # trials in one round over the workload's code kinds
    tail_pct: float  # see run.tail_percentile
    trace_rate: float  # traced trials per second of --seconds


# -- independent checks ------------------------------------------------------


def _encode(G, rows, nodes, p) -> list[int]:
    return [sum(G[n][k] * rows[k][n] for k in range(len(rows))) % p for n in nodes]


def _det_mod(stack: np.ndarray, p: int) -> np.ndarray:
    """Determinants mod p of a stack of square matrices, by cofactor expansion.

    Entries and partial results stay below p < 2**31, so products fit int64.
    """
    k = stack.shape[1]
    if k == 1:
        return stack[:, 0, 0] % p
    total = np.zeros(stack.shape[0], dtype=np.int64)
    for j in range(k):
        minor = np.delete(stack[:, 1:, :], j, axis=2)
        term = stack[:, 0, j] * _det_mod(minor, p) % p
        total = (total + term if j % 2 == 0 else total - term) % p
    return total


def _mds_error(gm) -> str | None:
    G = np.array(gm.matrix.to_rows(), dtype=np.int64)
    combos = np.array(list(itertools.combinations(range(gm.N), gm.K)))
    if (_det_mod(G[combos], gm.ctx.p) == 0).any():
        return f"non-MDS {gm.kind} code"
    return None


def _attack_error(gm, cfg, attack) -> str | None:
    """Both setups encode alike on the attacked encoders, shift an honest
    message, and stay within the model (honest rows constant, at most v
    values per adversarial source)."""
    G = gm.matrix.to_rows()
    s1, s2 = attack.setup1, attack.setup2
    if _encode(G, s1.rows, attack.node_set, cfg.p) != _encode(G, s2.rows, attack.node_set, cfg.p):
        return "attack setups encode to different transcripts"
    adversaries = set(s1.adversary_set)
    if adversaries != set(s2.adversary_set) or len(adversaries) > cfg.beta:
        return "attack adversary sets differ or exceed beta"
    for s in (s1, s2):
        for k, row in enumerate(s.rows):
            if len(set(row)) > (cfg.v if k in adversaries else 1):
                return f"source {k} sends too many values"
    if all(s1.rows[k] == s2.rows[k] for k in range(cfg.K) if k not in adversaries):
        return "attack shifts no honest message"
    return None


def _setup_code_error(cache: dict, gm) -> str | None:
    """``_mds_error`` of a code drawn in set-up, computed on first use.

    Computed in the check rather than in set-up, so ``setup_s`` times only
    what the program does; every trial on a non-MDS code fails.
    """
    if id(gm) not in cache:
        cache[id(gm)] = _mds_error(gm)
    return cache[id(gm)]


# -- threshold ---------------------------------------------------------------

THRESHOLD_CELL = (12, 4, 2, 2)
THRESHOLD_KINDS = ("random", "reed_solomon")
# Inputs made in set-up; trials cycle through them.  Enough for a run far
# faster than the seed commit's ~2 trials/s without repeating often.
THRESHOLD_POOL = 200


@dataclass(frozen=True)
class _DecodeInput:
    gm: object
    nodes: tuple[int, ...]
    transcript: object
    honest: dict[int, int]
    mode: str


def _threshold_setup(seed: int):
    N, K, beta, v = THRESHOLD_CELL
    cfg = system.SystemConfig(N, K, beta, v)
    ctx = field.field_new(cfg.p)
    t = cfg.t_star
    cell_seeds = {
        kind: experiments.derive_seed(seed, "ach", N, K, beta, v, kind, t)
        for kind in THRESHOLD_KINDS
    }
    gms = {kind: codes.draw_mds(ctx, kind, N, K, seed=s) for kind, s in cell_seeds.items()}
    inputs = []
    for i in range(THRESHOLD_POOL):
        kind = THRESHOLD_KINDS[i % len(THRESHOLD_KINDS)]
        j = i // len(THRESHOLD_KINDS)
        rng = random.Random(experiments.derive_seed(cell_seeds[kind], "trial", j))
        adversaries = tuple(sorted(rng.sample(range(K), beta)))
        honest = [rng.randrange(cfg.p) for _ in range(K)]
        behavior = system.behavior_random_adversarial(
            cfg, honest, adversaries, seed=rng.randrange(1 << 63)
        )
        nodes = tuple(sorted(rng.sample(range(N), t)))
        transcript = system.encode_transcript(gms[kind], behavior, nodes)
        inputs.append(
            _DecodeInput(
                gms[kind],
                nodes,
                transcript,
                {k: honest[k] for k in range(K) if k not in adversaries},
                "strict" if j % 10 == 0 else "fast",  # the run_achievability mix
            )
        )
    return cfg, inputs, {}


def _threshold_trial(state, i: int):
    cfg, inputs, _ = state
    inp = inputs[i % len(inputs)]
    return decoding.decode(inp.gm, inp.nodes, inp.transcript, cfg, mode=inp.mode)


def _threshold_check(state, i: int, out) -> str | None:
    _, inputs, mds_cache = state
    inp = inputs[i % len(inputs)]
    err = _setup_code_error(mds_cache, inp.gm)
    if err:
        return err
    if inp.mode == "strict" and set(out.ambiguous_coordinates) & set(inp.honest):
        return "honest source ambiguous at t*"
    for k, message in inp.honest.items():
        if out.estimates[k] is None:
            return f"honest source {k} undetermined at t*"
        if out.estimates[k] != message:
            return f"honest source {k} decoded wrongly at t*"
    return None


# -- converse ----------------------------------------------------------------

CONVERSE_CELL = (12, 6, 1, 2)


def _converse_setup(seed: int):
    N, K, beta, v = CONVERSE_CELL
    cfg = system.SystemConfig(N, K, beta, v)
    ctx = field.field_new(cfg.p)
    t = cfg.t_star - 1
    cells = []
    for kind in KINDS:
        cell_seed = experiments.derive_seed(seed, "con", N, K, beta, v, kind, t)
        cells.append((cell_seed, codes.draw_mds(ctx, kind, N, K, seed=cell_seed)))
    return cfg, t, cells, {}


def _converse_trial(state, i: int):
    cfg, t, cells, _ = state
    out = []
    for cell_seed, gm in cells:
        attack = attacks.converse_attack(
            gm, cfg, seed=experiments.derive_seed(cell_seed, "atk", i)
        )
        if not attacks.verify_attack(gm, attack):
            out.append((gm, attack, False, None))
            continue
        base = attack.node_set
        extra = [n for n in range(cfg.N) if n not in base]
        nodes = (base + tuple(extra))[:t]
        transcript = system.encode_transcript(gm, attack.setup1, nodes)
        result = decoding.decode(gm, nodes, transcript, cfg, mode="strict")
        out.append((gm, attack, True, result))
    return out


def _converse_check(state, i: int, out) -> str | None:
    cfg, _, cells, mds_cache = state
    for _, gm in cells:
        err = _setup_code_error(mds_cache, gm)
        if err:
            return err
    for gm, attack, verified, result in out:
        if not verified:
            return "verify_attack rejected the attack"
        err = _attack_error(gm, cfg, attack)
        if err:
            return err
        honest = set(range(cfg.K)) - set(attack.setup1.adversary_set)
        if not honest & set(result.ambiguous_coordinates):
            return "no honest source ambiguous at t*-1"
    return None


# -- construct ---------------------------------------------------------------

CONSTRUCT_CELL = (12, 4, 2, 2)


def _construct_setup(seed: int):
    cfg = system.SystemConfig(*CONSTRUCT_CELL)
    return seed, cfg, field.field_new(cfg.p)


def _construct_trial(state, i: int):
    seed, cfg, ctx = state
    out = []
    for kind in KINDS:
        gm = codes.draw_mds(
            ctx, kind, cfg.N, cfg.K, seed=experiments.derive_seed(seed, "construct", kind, i)
        )
        attack = attacks.converse_attack(
            gm, cfg, seed=experiments.derive_seed(seed, "construct-atk", kind, i)
        )
        out.append((gm, attack, attacks.verify_attack(gm, attack)))
    return out


def _construct_check(state, i: int, out) -> str | None:
    _, cfg, _ = state
    for gm, attack, verified in out:
        if not verified:
            return "verify_attack rejected the attack"
        err = _mds_error(gm) or _attack_error(gm, cfg, attack)
        if err:
            return err
    return None


# tail_pct is the highest of p75, p90, p95 and p99 that stayed steady across
# ten-run sets at the seed commit (run_seconds 35), with ten or more trials
# beyond it.
# Higher steps hang on short bursts of contention from other tenants of the
# host: over three sets, converse's p90 spread up to 0.21 against 0.12 for
# p75, and construct's p95 and p99 up to 0.16 and 0.70 against 0.06 for p90.
# trace_rate sizes the traced run to about three quarters of a measured run's
# wall time at that commit.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("threshold", _threshold_setup, _threshold_trial, _threshold_check, 2, 75.0, 0.6),
        Workload("converse", _converse_setup, _converse_trial, _converse_check, 1, 75.0, 2.0),
        Workload("construct", _construct_setup, _construct_trial, _construct_check, 1, 90.0, 25.0),
    )
}
