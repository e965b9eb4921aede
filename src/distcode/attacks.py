"""Constructive worst-case machinery: difference bases, full-rank row
partitioning, and the two-setup attack that defeats any linear code one
encoder short of the recovery threshold.

The attack manufactures two complete source behaviors that encode to the
same transcript on a chosen set of t*-1 encoders while differing in at least
one honest message.  Sketch: pick beta adversarial source columns and t*-1
encoder rows such that few rows ignore all chosen columns; split the rows
into m <= 2v-1 groups whose restrictions to the chosen columns are full
rank, so that the setups may differ on group g by a single variable w_g per
adversary; the resulting homogeneous system has more variables than
equations and its block structure forces a solution that shifts an honest
message.  Each adversary's values then walk one version path,
P_0 = base, P_{g+1} = P_g + (-1)^g w_g: group g (0-based) gets P_{g+g%2} in
setup 1 and P_{g+1-g%2} in setup 2, and encoders outside the attacked set
get P_0 and P_1.  Setup 1 uses the even-indexed values and setup 2 the odd
ones, at most v of each.

Everything up to the nullspace vector depends on the code alone; only the
base values depend on the seed.  That plan is found on the first attack of
a code with a given (beta, v) and kept in the code's memo, so the trials of
one cell, which attack one code with many seeds, eliminate only once.
"""

from __future__ import annotations

import itertools
import logging
import random
from dataclasses import dataclass

import numpy as np

from .codes import GeneratorMatrix, iter_converse_selections, threshold
from .errors import (
    AttackConstructionFailed,
    BadDimensions,
    BadParameter,
    DimensionMismatch,
    DistcodeError,
    NullspaceDeltaZero,
    PreconditionViolated,
    SelectionImpossible,
)
from .field import FieldMatrix, _batch_eliminate, _is_integer, batch_rank, rank, solve
from .system import SourceBehavior, SystemConfig, encode_transcript

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# Difference basis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DifferenceBasis:
    """Spanning structure for all pairwise differences of two v-sets.

    For values a_0..a_{v-1} and b_0..b_{v-1}, every difference a_i - b_j is
    a {-1, 0, +1} combination of the 2v-1 anchor differences c_{i,i} and
    c_{i,i+1}.  ``pairs`` lists the anchors; :meth:`coefficients` returns the
    combination for an arbitrary (i, j).  Indices are 0-based.
    """

    v: int
    pairs: tuple[tuple[int, int], ...]

    def coefficients(self, i: int, j: int) -> tuple[int, ...]:
        v = self.v
        if not (0 <= i < v and 0 <= j < v):
            raise BadParameter(f"indices must lie in [0, {v})")
        pos = {pair: idx for idx, pair in enumerate(self.pairs)}
        coeffs = [0] * len(self.pairs)
        if j > i:
            # Telescope forward: chain c_{l,l+1} minus the interior c_{l,l}.
            for l in range(i, j):
                coeffs[pos[(l, l + 1)]] += 1
            for l in range(i + 1, j):
                coeffs[pos[(l, l)]] -= 1
        else:
            # Telescope backward: chain c_{l,l} minus the interior c_{l,l+1}.
            for l in range(j, i + 1):
                coeffs[pos[(l, l)]] += 1
            for l in range(j, i):
                coeffs[pos[(l, l + 1)]] -= 1
        return tuple(coeffs)


def diff_basis(v: int) -> DifferenceBasis:
    if not _is_integer(v) or v < 1:
        raise BadDimensions(f"need an integer v >= 1, got v={v!r}")
    pairs = tuple((i, i) for i in range(v)) + tuple((i, i + 1) for i in range(v - 1))
    return DifferenceBasis(v, pairs)


# ---------------------------------------------------------------------------
# Full-rank row partitioning
# ---------------------------------------------------------------------------


def _independent_rows(ctx, E: np.ndarray, rows) -> list[int]:
    """The rows of ``rows``, in order, that raise the rank of the rows before
    them: the pivot rows of one elimination of ``E[rows]``.

    The kernel pivots on the first unpivoted row that is nonzero in the
    column.  After columns ``0..c`` an unpivoted row is a multiple of its
    original plus a combination of pivot rows, and zero over those columns,
    so it is nonzero in column c+1 iff the original's entries ``0..c+1``
    leave the span of the pivot rows' entries ``0..c+1``.  By induction on
    c, the pivot rows after column c are the rows whose entries ``0..c``
    raise the rank of the earlier rows' entries ``0..c``; after the last
    column, that is the rank of whole rows."""
    if not rows:
        return []
    pivots = _batch_eliminate(E[np.array(rows)][None].copy(), ctx.p, E.shape[1])
    return [r for r, piv in zip(rows, pivots[0].tolist()) if piv]


def _greedy_blocks(ctx, E: np.ndarray, h: int, beta: int, m: int):
    """Extract m-1 groups of beta independent rows, always working on the
    first h+beta remaining rows; the leftover becomes group 1.  Returns
    (leftover, groups) with row indices, or None if extraction stalls."""
    remaining = list(range(E.shape[0]))
    groups: list[list[int]] = []
    for _ in range(m - 1):
        picked = _independent_rows(ctx, E, remaining[: h + beta])
        if len(picked) < beta:
            return None
        groups.append(picked)
        chosen = set(picked)
        remaining = [i for i in remaining if i not in chosen]
    return remaining, groups


def _full_rank_blocks(ctx, E: np.ndarray, h: int, beta: int, m: int):
    """Split the rows of E into m blocks of rank beta: greedy extraction of
    m-1 groups, then exchanges that raise the leftover block, which comes
    first, to rank beta.  Returns the blocks as tuples of row indices, or
    None on failure.

    Each exchange raises the leftover's rank by at least one and the rank
    cannot pass beta, so at most beta exchanges run."""
    res = _greedy_blocks(ctx, E, h, beta, m)
    if res is None:
        return None
    leftover, groups = res
    while len(independent := _independent_rows(ctx, E, leftover)) < beta:
        # Exchange a dependent nonzero leftover row r_star with a row r_hat
        # of some group when both blocks gain: the group stays at rank beta
        # and the leftover's rank grows.  Every candidate is ranked, and the
        # first that gains is taken.
        cands = [
            (gi, [r for r in grp if r != r_hat] + [r_star],
             [r for r in leftover if r != r_star] + [r_hat])
            for r_star in leftover
            if r_star not in independent and (E[r_star] != 0).any()
            for gi, grp in enumerate(groups)
            for r_hat in grp
        ]
        if not cands:
            return None
        grp_ok = batch_rank(E[np.array([c[1] for c in cands])], ctx.p) == beta
        left_up = batch_rank(E[np.array([c[2] for c in cands])], ctx.p) > len(independent)
        gains = np.flatnonzero(grp_ok & left_up)
        if not len(gains):
            return None
        gi, new_grp, new_left = cands[gains[0]]
        groups = groups[:gi] + [sorted(new_grp)] + groups[gi + 1 :]
        leftover = sorted(new_left)
    return (tuple(leftover),) + tuple(tuple(g) for g in groups)


def partition_full_rank(E: FieldMatrix, h: int, beta: int, v: int):
    """Split the rows of E into 2v-1 blocks whose restrictions are full rank.

    E must be (h + 2*beta*v - beta - 1) x beta and satisfy: (1) full column
    rank, (2) at most h-1 zero rows, (3) every (h+beta)-row submatrix has
    full column rank.  The first returned block has h+beta-1 rows, the rest
    beta rows each, and every block spans all beta columns.

    Raises:
        DimensionMismatch: E has the wrong shape.
        PreconditionViolated: one of the three properties fails (the
            exception records which).
    """
    t_expect = h + 2 * beta * v - beta - 1
    if E.rows != t_expect or E.cols != beta:
        raise DimensionMismatch(
            f"expected {t_expect}x{beta}, got {E.rows}x{E.cols}"
        )
    ctx = E.ctx
    a = E._a
    if rank(E) != beta:
        raise PreconditionViolated(1, "matrix is not full column rank")
    zero_rows = sum(1 for i in range(E.rows) if not (a[i] != 0).any())
    if zero_rows > h - 1:
        raise PreconditionViolated(2, f"{zero_rows} zero rows exceed h-1={h - 1}")
    if h + beta <= E.rows:
        combos = np.array(list(itertools.combinations(range(E.rows), h + beta)))
        deficient = batch_rank(a[combos], ctx.p) != beta
        if deficient.any():
            combo = tuple(combos[deficient.argmax()].tolist())
            raise PreconditionViolated(
                3, f"rows {combo} restricted to the columns are rank deficient"
            )

    blocks = _full_rank_blocks(ctx, a, h, beta, 2 * v - 1)
    if blocks is None:
        raise RuntimeError("block extraction failed despite valid preconditions")
    for blk in blocks:
        if len(_independent_rows(ctx, a, list(blk))) != beta:
            raise RuntimeError("partition produced a rank-deficient block")
    return blocks


# ---------------------------------------------------------------------------
# The two-setup attack
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttackInstance:
    """Converse witness: two behaviors, one transcript, a shifted honest message."""

    node_set: tuple[int, ...]
    setup1: SourceBehavior
    setup2: SourceBehavior
    delta: tuple[tuple[int, int], ...]  # (honest source, shift), ascending
    w_values: tuple[tuple[int, ...], ...]  # per group, one value per adversary
    groups: tuple[tuple[int, ...], ...]  # encoder ids per group, leftover first

    def __post_init__(self):
        if all(d == 0 for _, d in self.delta):
            raise AttackConstructionFailed("every honest shift is zero")

    @property
    def adversaries(self) -> tuple[int, ...]:
        return tuple(sorted(self.setup1.adversary_set))

    def to_json(self) -> dict:
        return {
            "T": list(self.node_set),
            "setup1": self.setup1.to_json(),
            "setup2": self.setup2.to_json(),
            "delta": {
                "sources": [k for k, _ in self.delta],
                "values": [d for _, d in self.delta],
            },
            "w": [list(row) for row in self.w_values],
        }


def _attack_plan(gm: GeneratorMatrix, beta: int, v: int):
    """The part of the attack that depends on the code alone, as ``(T, A,
    blocks, Hs, vec)``: the t*-1 attacked encoders, the beta adversary
    columns, the groups as positions in T (leftover first), the honest
    columns, and a nullspace vector of the group system that shifts an
    honest message (w_g for group g, then the honest shifts).  Raises as
    :func:`converse_attack` does."""
    ctx = gm.ctx
    K = gm.K
    h = K - beta
    t = threshold(gm.N, K, beta, v) - 1
    # ceil((t-h+1)/beta) groups: t - h + 1 = t* - h lies in [beta, beta(2v-1)],
    # so 1 <= m <= 2v-1.
    m = -(-(t - h + 1) // beta)

    saw_candidate = False
    for T, A in iter_converse_selections(gm, beta, v):
        saw_candidate = True
        E = gm.matrix._a[np.array(T)][:, np.array(A)]
        blocks = _full_rank_blocks(ctx, E, h, beta, m)
        if blocks is None:
            continue

        Hs = tuple(k for k in range(K) if k not in A)
        B = np.zeros((t, m * beta + h), dtype=ctx.dtype)
        for g, blk in enumerate(blocks):
            for i in blk:
                B[i, g * beta : (g + 1) * beta] = E[i]
        B[:, m * beta :] = gm.matrix._a[np.array(T)][:, list(Hs)]
        out = solve(FieldMatrix._wrap(ctx, B), [0] * t)
        vec = next(
            (bv for bv in out.nullspace_basis if any(bv[m * beta :])), None
        )
        if vec is None:
            log.warning("selection T=%s A=%s left honest messages fixed", T, A)
            continue
        return T, A, blocks, Hs, vec

    if not saw_candidate:
        raise SelectionImpossible(
            f"no admissible row/column selection for beta={beta}, v={v}"
        )
    raise NullspaceDeltaZero(
        "no selection produced a nullspace vector shifting an honest message"
    )


def converse_attack(gm: GeneratorMatrix, cfg: SystemConfig, seed: int) -> AttackInstance:
    """Construct a two-setup attack on t*-1 encoders.

    The group count adapts to the evaluation size: with t = t*-1 rows the
    construction uses m = ceil((t-h+1)/beta) groups (always at most 2v-1),
    which reproduces the canonical layout when N is above the threshold and
    shrinks gracefully when t* = N.

    The selection, the groups and the nullspace vector depend on the code
    alone (:func:`_attack_plan`).  They are found on the first attack of a
    code with this (beta, v) and kept in the code's memo, so later attacks
    only draw the seed's base values and re-encode; the "left honest
    messages fixed" warning logs once per code, not once per call.  A code
    without a plan is not memoized and raises again on every call.

    Raises:
        SelectionImpossible: no admissible row/column selection exists.
        NullspaceDeltaZero: every candidate selection yielded a nullspace
            that keeps honest messages fixed (non-generic code).
    """
    if gm.N != cfg.N or gm.K != cfg.K or gm.ctx.p != cfg.p:
        raise BadParameter("generator and system config disagree")
    N, K, beta, v, p = cfg.N, cfg.K, cfg.beta, cfg.v, cfg.p
    key = ("attack", beta, v)
    if key not in gm._memo:
        gm._memo[key] = _attack_plan(gm, beta, v)
    T, A, blocks, Hs, vec = gm._memo[key]
    m = len(blocks)

    rng = random.Random(seed)
    base = [rng.randrange(p) for _ in range(K)]  # source order
    w = [[int(vec[g * beta + a]) for a in range(beta)] for g in range(m)]
    delta = {k: int(vec[m * beta + j]) for j, k in enumerate(Hs)}

    rows1 = [[b] * N for b in base]
    rows2 = [[(b + delta.get(k, 0)) % p] * N for k, b in enumerate(base)]
    for j, k in enumerate(A):
        # The version path P_0 = base, P_{g+1} = P_g + (-1)^g w_g.
        path = [base[k]]
        for g in range(m):
            path.append((path[g] + (-1) ** g * w[g][j]) % p)
        rows2[k] = [path[1]] * N
        for g, blk in enumerate(blocks):
            for i in blk:
                rows1[k][T[i]] = path[g + g % 2]
                rows2[k][T[i]] = path[g + 1 - g % 2]

    adv = frozenset(A)
    setup1 = SourceBehavior(cfg, tuple(map(tuple, rows1)), adv)
    setup2 = SourceBehavior(cfg, tuple(map(tuple, rows2)), adv)
    t1 = encode_transcript(gm, setup1, T)
    t2 = encode_transcript(gm, setup2, T)
    if t1.values != t2.values:
        raise AttackConstructionFailed("setups do not encode to the same transcript")
    return AttackInstance(
        node_set=tuple(T),
        setup1=setup1,
        setup2=setup2,
        delta=tuple(sorted(delta.items())),
        w_values=tuple(map(tuple, w)),
        groups=tuple(tuple(T[i] for i in blk) for blk in blocks),
    )


def verify_attack(
    gm: GeneratorMatrix, attack: AttackInstance, cfg: SystemConfig | None = None
) -> bool:
    """Independent re-check of an attack instance.

    Re-encodes both setups on the attacked encoder set, requires identical
    transcripts, a nonzero honest shift, and model-valid behaviors (at most
    v distinct values per adversarial source).  ``cfg`` overrides the model
    the setups are validated against; it defaults to the one they carry.
    """
    try:
        cfg = cfg if cfg is not None else attack.setup1.cfg
        s1 = SourceBehavior(cfg, attack.setup1.rows, attack.setup1.adversary_set)
        s2 = SourceBehavior(cfg, attack.setup2.rows, attack.setup2.adversary_set)
        t1 = encode_transcript(gm, s1, attack.node_set)
        t2 = encode_transcript(gm, s2, attack.node_set)
    except (DistcodeError, ValueError):
        return False
    if t1.values != t2.values:
        return False
    return any(d != 0 for _, d in attack.delta)
