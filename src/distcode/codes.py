"""Generator matrix construction and structural analysis.

Three code families are supported: fully random linear coefficients,
systematic (identity rows followed by random rows), and Vandermonde rows
built from distinct evaluation points.  :func:`is_mds` verifies the MDS
property exhaustively (every K x K row submatrix nonsingular) from shared
minors, one column per step, which at desk scale is cheap and gives
certainty instead of a probabilistic claim.

:func:`iter_converse_selections` picks the encoder rows and source columns
the worst-case attack operates on: t*-1 rows containing at most K-1
single-support rows, and beta columns such that at most h-1 of the chosen
rows vanish on all of them.  Any correct MDS code admits such a choice.
"""

from __future__ import annotations

import itertools
import logging
import random
from dataclasses import dataclass, field

import numpy as np

from .errors import BadDimensions, BadParameter, DuplicatePoints
from .field import (
    FieldContext,
    FieldMatrix,
    _as_ints,
    all_square_submatrices_nonsingular,
)

log = logging.getLogger(__name__)

KINDS = ("random", "systematic", "reed_solomon")

# Seeds draw_mds tries before giving up; see its docstring for the odds.
_MDS_DRAWS = 16


@dataclass(frozen=True)
class GeneratorMatrix:
    """An N x K linear code: row n holds the coefficients of encoder n.

    Invariants checked at construction: no all-zero row; systematic codes
    start with the K x K identity; Vandermonde codes match their evaluation
    points exactly.

    ``_memo`` holds what depends on the code alone and is costly to find:
    the converse attack's plan per ``(beta, v)``, or the message of a plan
    search that failed, and the decoder's parity check on the last node set
    decoded.  It is left out of ``==``, ``hash``, ``repr`` and
    :meth:`to_json`, and a pickled or copied code starts with an empty one.
    """

    matrix: FieldMatrix
    kind: str
    rs_points: tuple[int, ...] | None = None
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise BadParameter(f"unknown code kind {self.kind!r}")
        m = self.matrix
        if m.rows < m.cols or m.cols < 1:
            raise BadDimensions(f"need N >= K >= 1, got N={m.rows}, K={m.cols}")
        for n in range(m.rows):
            if all(x == 0 for x in m.row(n)):
                raise BadParameter(f"encoder row {n} is identically zero")
        if self.kind == "systematic":
            for n in range(m.cols):
                expect = tuple(1 if j == n else 0 for j in range(m.cols))
                if m.row(n) != expect:
                    raise BadParameter("systematic rows must form the identity pattern")
        if self.kind == "reed_solomon":
            pts = self.rs_points
            if pts is None or len(pts) != m.rows:
                raise BadDimensions("reed_solomon codes need one point per row")
            if len(set(pts)) != len(pts):
                raise DuplicatePoints("evaluation points must be distinct")
            p = m.ctx.p
            for n, lam in enumerate(pts):
                if m.row(n) != tuple(pow(lam, k, p) for k in range(m.cols)):
                    raise BadParameter("rows do not match the evaluation points")
        elif self.rs_points is not None:
            raise BadParameter("rs_points only apply to reed_solomon codes")

    def __getstate__(self):
        return {**self.__dict__, "_memo": {}}

    @property
    def N(self) -> int:
        return self.matrix.rows

    @property
    def K(self) -> int:
        return self.matrix.cols

    @property
    def ctx(self) -> FieldContext:
        return self.matrix.ctx

    def to_json(self) -> dict:
        doc = {
            "p": self.ctx.p,
            "N": self.N,
            "K": self.K,
            "kind": self.kind,
            "rows": self.matrix.to_rows(),
        }
        if self.rs_points is not None:
            doc["rs_points"] = list(self.rs_points)
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "GeneratorMatrix":
        required = ("p", "N", "K", "kind", "rows")
        _json_keys(doc, required + ("rs_points",), "code", required)
        p, N, K = _json_ints([doc["p"], doc["N"], doc["K"]], "p, N and K")
        m = FieldMatrix(FieldContext(p), _json_rows(doc["rows"]))
        if m.rows != N or m.cols != K:
            raise BadDimensions("declared N/K disagree with the row grid")
        pts = doc.get("rs_points")
        return cls(m, doc["kind"], _json_ints(pts, "rs_points") if pts else None)


def _json_ints(entries, what: str) -> tuple[int, ...]:
    """The entries of a JSON list, which must all be integers; anything else
    (a float, a string, null, a list, a boolean) raises :class:`BadParameter`."""
    if not isinstance(entries, list):
        raise BadParameter(f"{what} must be a list of integers, got {entries!r}")
    return _as_ints(entries, what)


def _json_rows(rows) -> list[tuple[int, ...]]:
    """A JSON list of integer lists; anything else raises BadParameter."""
    if not isinstance(rows, list):
        raise BadParameter(f"rows must be a list of integer lists, got {rows!r}")
    return [_json_ints(r, "rows") for r in rows]


def _json_keys(doc: dict, allowed, what: str, required=()) -> None:
    """Refuse a JSON object with a key outside ``allowed``, which would
    otherwise be dropped without a word (a misspelled optional key), or
    without a key of ``required``."""
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise BadParameter(f"unknown {what} keys: {', '.join(map(repr, unknown))}")
    missing = [key for key in required if key not in doc]
    if missing:
        raise BadParameter(f"missing {what} keys: {', '.join(map(repr, missing))}")


def _random_rows(ctx: FieldContext, rng: random.Random, count: int, K: int):
    rows = []
    for _ in range(count):
        row = [rng.randrange(ctx.p) for _ in range(K)]
        while all(x == 0 for x in row):  # zero encoder stores nothing; redraw
            row = [rng.randrange(ctx.p) for _ in range(K)]
        rows.append(row)
    return rows


def gen_random_linear(ctx: FieldContext, N: int, K: int, seed: int) -> GeneratorMatrix:
    """All N*K coefficients drawn independently and uniformly from GF(p).

    Deterministic given ``seed``.  Raises :class:`BadDimensions` unless
    ``N >= K >= 1``.
    """
    if not 1 <= K <= N:
        raise BadDimensions(f"need N >= K >= 1, got N={N}, K={K}")
    rng = random.Random(seed)
    return GeneratorMatrix(FieldMatrix(ctx, _random_rows(ctx, rng, N, K)), "random")


def gen_systematic(ctx: FieldContext, N: int, K: int, seed: int) -> GeneratorMatrix:
    """First K encoders store one source symbol each; the rest are random."""
    if not 1 <= K <= N:
        raise BadDimensions(f"need N >= K >= 1, got N={N}, K={K}")
    rng = random.Random(seed)
    rows = [[1 if j == n else 0 for j in range(K)] for n in range(K)]
    rows += _random_rows(ctx, rng, N - K, K)
    return GeneratorMatrix(FieldMatrix(ctx, rows), "systematic")


def gen_reed_solomon(
    ctx: FieldContext,
    N: int,
    K: int,
    points=None,
    seed: int | None = None,
) -> GeneratorMatrix:
    """Vandermonde generator: row n is (1, l_n, l_n^2, ..., l_n^{K-1}).

    Args:
        points: N distinct field elements; when omitted, N distinct values
            are sampled uniformly without replacement (seeded).

    Raises:
        DuplicatePoints: supplied points collide.
        BadDimensions: ``N >= K >= 1`` fails, N exceeds the field size, or
            the number of points is not N.
        BadParameter: a point is not an integer.
    """
    if not 1 <= K <= N:
        raise BadDimensions(f"need N >= K >= 1, got N={N}, K={K}")
    if N > ctx.p:
        raise BadDimensions(f"cannot pick {N} distinct points in GF({ctx.p})")
    if points is None:
        rng = random.Random(seed)
        points = rng.sample(range(ctx.p), N)
    points = tuple(x % ctx.p for x in _as_ints(points, "points"))
    if len(points) != N:
        raise BadDimensions(f"need one point per encoder, {N} in all, got {len(points)}")
    if len(set(points)) != len(points):
        raise DuplicatePoints(f"points {points} are not distinct")
    rows = [[pow(lam, k, ctx.p) for k in range(K)] for lam in points]
    return GeneratorMatrix(FieldMatrix(ctx, rows), "reed_solomon", points)


def is_mds(gm: GeneratorMatrix) -> bool:
    """True iff every K x K row submatrix of the generator is nonsingular.

    Exhaustive over all C(N, K) row subsets: their determinants come from
    shared minors in Sum_j C(N, j) * j multiply-adds over j = 1..K (2,784
    at N=12, K=4), with no elimination.  Intended for desk-scale N.
    """
    return all_square_submatrices_nonsingular(gm.matrix)


def draw_mds(
    ctx: FieldContext,
    kind: str,
    N: int,
    K: int,
    seed: int,
    points=None,
) -> GeneratorMatrix:
    """Generate a code of the requested kind and re-draw (seed+1, seed+2, ...)
    until it passes :func:`is_mds`.  Failure odds per draw are about
    C(N,K)/p for random and systematic codes; Vandermonde codes with
    distinct points never fail.  After 16 failed draws, as when C(N,K) nears
    p or no MDS code of the shape exists over GF(p), it raises
    :class:`BadParameter`.  ``points`` apply only to ``reed_solomon`` codes;
    with another kind they raise :class:`BadParameter`."""
    if kind not in KINDS:
        raise BadParameter(f"unknown code kind {kind!r}")
    if points is not None and kind != "reed_solomon":
        raise BadParameter(f"points only apply to reed_solomon codes, not {kind!r}")
    for attempt in range(_MDS_DRAWS):
        s = seed + attempt
        if kind == "random":
            gm = gen_random_linear(ctx, N, K, s)
        elif kind == "systematic":
            gm = gen_systematic(ctx, N, K, s)
        else:
            gm = gen_reed_solomon(ctx, N, K, points=points, seed=s)
        if is_mds(gm):
            if attempt:
                log.warning("MDS draw needed %d redraws (kind=%s)", attempt, kind)
            return gm
        log.warning("seed %d produced a non-MDS %s code, redrawing", s, kind)
    raise BadParameter(f"no MDS {kind} code with N={N}, K={K}, p={ctx.p} in {_MDS_DRAWS} draws")


def threshold(N: int, K: int, beta: int, v: int) -> int:
    """Minimum number of encoders that guarantees unique recovery of honest
    inputs under linear encoding: min(N, K + 2*beta*(v-1))."""
    return min(N, K + 2 * beta * (v - 1))


def iter_converse_selections(gm: GeneratorMatrix, beta: int, v: int):
    """Yield candidate (row_set, col_set) pairs for the attack, best first.

    Each candidate consists of t*-1 encoder rows with at most K-1 univariate
    rows, plus beta source columns on which at most h-1 of the chosen rows
    are entirely zero.  One candidate is produced per admissible column set,
    in lexicographic column order.
    """
    N, K = gm.N, gm.K
    if not 1 <= beta < K:
        raise BadDimensions(f"need 1 <= beta < K, got beta={beta}, K={K}")
    h = K - beta
    t = threshold(N, K, beta, v) - 1
    nz = gm.matrix._a != 0
    univ = nz.sum(axis=1) == 1  # encoders that read exactly one source
    col_sets = list(itertools.combinations(range(K), beta))
    # zero[n, i]: encoder n ignores every column of col_sets[i].
    zero = ~nz[:, np.array(col_sets)].any(axis=2)
    # Per column set, rows by scarcity pressure: neither, univariate, zero, both.
    orders = np.argsort(2 * zero + univ[:, None], axis=0, kind="stable").T.tolist()
    univ_l = univ.tolist()
    for cols, order, zero_l in zip(col_sets, orders, zero.T.tolist()):
        chosen: list[int] = []
        zeros_used = univ_used = 0
        for n in order:
            if len(chosen) == t:
                break
            if zero_l[n] and zeros_used >= h - 1:
                continue
            if univ_l[n] and univ_used >= K - 1:
                continue
            chosen.append(n)
            zeros_used += zero_l[n]
            univ_used += univ_l[n]
        if len(chosen) == t:
            yield tuple(sorted(chosen)), cols
