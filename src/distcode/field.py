"""Exact arithmetic and dense linear algebra over a prime field GF(p).

Field elements are canonical Python integers in ``[0, p)``.  A
:class:`FieldContext` fixes the modulus; :class:`FieldMatrix` stores a dense
matrix of reduced entries.  One batched, inverse-free Gauss-Jordan kernel
does all elimination: :func:`rank`, :func:`batch_rank` and
:func:`batch_feasible` count its pivots.  One batched reader reads whole
reduced stacks: consistency, one particular solution, the data for a
nullspace basis and the set of *pinned* coordinates (coordinates that take
the same value in every solution), normalizing every pivot of the stack
with one batched inverse (:func:`_batch_inverse`: a numpy product tree over
a Montgomery loop with one ``pow``).  :func:`solve` reads its stack of one
through it, and the feasibility decoder reads its flagged scenarios through
it, after resuming the kernel on systems already eliminated over their
honest columns.

Matrices are backed by numpy.  For moduli up to ``_INT64_SAFE_P`` the entries
live in ``int64`` (entrywise products of reduced values cannot overflow);
larger moduli fall back to object arrays of Python integers, trading speed
for unbounded precision.
"""

from __future__ import annotations

import itertools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParameter, DimensionMismatch, ModulusTooSmall, NonPrimeModulus

FieldElement = int

DEFAULT_PRIME = 2**31 - 1

# Largest p with (p-1)^2 < 2^63, so a*b of reduced entries fits in int64.
_INT64_SAFE_P = 3_037_000_499

_LARGE_FIELD_FLOOR = 1 << 16

# Deterministic Miller-Rabin witness set, exact for n < _MR_BOUND (the
# least strong pseudoprime to every base up to 41, about 3.3 * 10^24).
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981


def _is_integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer; a bool is not one."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


def _as_ints(values, what: str) -> tuple[int, ...]:
    """``values`` as a tuple of Python integers.  Anything that is not an
    integer (a float, which ``int`` would truncate, a string, a bool) raises
    :class:`BadParameter`.  One value of each distinct type is tested."""
    values = tuple(values)
    samples = dict(zip(map(type, values), values))
    samples.pop(int, None)
    for x in samples.values():
        if not _is_integer(x):
            raise BadParameter(f"{what} must hold only integers, got {x!r}")
    return tuple(map(int, values)) if samples else values


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Raises:
        BadParameter: ``n`` is not an integer, or ``n >= _MR_BOUND``, where
            the test is no longer exact.
    """
    if not _is_integer(n):
        raise BadParameter(f"need an integer, got {n!r}")
    n = int(n)
    if n >= _MR_BOUND:
        raise BadParameter(
            f"{n} is not below {_MR_BOUND}, the bound under which "
            "primality is decided exactly"
        )
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n == q:
            return True
        if n % q == 0:
            return False
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FieldContext:
    """The prime modulus of GF(p) and the dtype its matrices use.

    The constructor only requires ``p`` to be prime (:func:`is_prime` refuses
    to decide at or above ``_MR_BOUND``), so unit tests may build small fields
    directly.  Production code should go through
    :func:`field_new`, which additionally enforces the large-field floor.
    """

    __slots__ = ("p", "dtype")

    def __init__(self, p: int):
        if not is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        self.p = int(p)
        self.dtype = np.int64 if self.p <= _INT64_SAFE_P else object

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldContext) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("FieldContext", self.p))

    def __repr__(self) -> str:
        return f"FieldContext(p={self.p})"


def field_new(p: int) -> FieldContext:
    """Create a production field context.

    Args:
        p: prime modulus, at least ``2**16``.

    Raises:
        NonPrimeModulus: primality test failed.
        BadParameter: p is too large for the primality test to be exact.
        ModulusTooSmall: prime but below the large-field floor.
    """
    ctx = FieldContext(p)
    if ctx.p < _LARGE_FIELD_FLOOR:
        raise ModulusTooSmall(f"p={p} is below the 2**16 large-field floor")
    return ctx


class FieldMatrix:
    """Dense row-major matrix over GF(p); immutable after construction."""

    __slots__ = ("ctx", "_a")

    def __init__(self, ctx: FieldContext, entries):
        a = np.array(entries, dtype=object)
        if a.ndim != 2 or a.size == 0:
            raise DimensionMismatch("entries must form a non-empty 2-D grid")
        _as_ints(a.flat, "matrix entries")
        a = a % ctx.p
        self.ctx = ctx
        self._a = a.astype(ctx.dtype)

    @classmethod
    def _wrap(cls, ctx: FieldContext, reduced: np.ndarray) -> "FieldMatrix":
        # Internal: adopt an already-reduced array without copying.
        m = cls.__new__(cls)
        m.ctx = ctx
        m._a = reduced
        return m

    @property
    def rows(self) -> int:
        return self._a.shape[0]

    @property
    def cols(self) -> int:
        return self._a.shape[1]

    def __getitem__(self, key) -> FieldElement:
        i, j = key
        return int(self._a[i, j])

    def row(self, i: int) -> tuple[FieldElement, ...]:
        return tuple(int(x) for x in self._a[i])

    def submatrix(self, row_idx, col_idx) -> "FieldMatrix":
        rows = list(row_idx)
        cols = list(col_idx)
        return FieldMatrix._wrap(self.ctx, self._a[np.ix_(rows, cols)].copy())

    def to_rows(self) -> list[list[int]]:
        return [[int(x) for x in r] for r in self._a]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and self.ctx == other.ctx
            and self._a.shape == other._a.shape
            and bool((self._a == other._a).all())
        )

    def __hash__(self):
        return hash((self.ctx.p, self._a.shape, tuple(int(x) for x in self._a.flat)))

    def __repr__(self) -> str:
        return f"FieldMatrix({self.rows}x{self.cols}, p={self.ctx.p})"


@dataclass(frozen=True)
class SolveOutcome:
    """Full description of the solution set of ``A x = b`` over GF(p).

    ``pinned_coordinates`` holds the variable indices whose value is identical
    across every solution, i.e. those at which every nullspace basis vector
    vanishes.  When the system is inconsistent ``particular`` is ``None``; the
    nullspace data still describes ``A x = 0``.
    """

    consistent: bool
    particular: tuple[FieldElement, ...] | None
    nullspace_basis: tuple[tuple[FieldElement, ...], ...]
    pinned_coordinates: frozenset[int] = field(default_factory=frozenset)


def _batch_inverse(vals: np.ndarray, p: int) -> np.ndarray:
    """Inverses of a 1-d array of nonzero residues, with one ``pow``.

    While more than 32 values are left, a product tree multiplies them in
    pairs (a 1 pads an odd level).  Montgomery's trick inverts the at most 32
    values on top: a forward pass keeps the running products, and a backward
    pass peels each value off the inverse of their total.  Walking back down,
    each value's inverse is its pair's inverse times its partner.  ``vals``
    is left unchanged.
    """
    levels = []
    x = vals
    while len(x) > 32:
        if len(x) % 2:
            x = np.concatenate([x, np.ones(1, dtype=x.dtype)])
        levels.append(x)
        x = x[0::2] * x[1::2] % p
    xs = x.tolist()
    before = []
    acc = 1
    for val in xs:
        before.append(acc)
        acc = acc * val % p
    inv = pow(acc, -1, p)
    top = [0] * len(xs)
    for i in range(len(xs) - 1, -1, -1):
        top[i] = inv * before[i] % p
        inv = inv * xs[i] % p
    inv = np.array(top, dtype=vals.dtype)
    for x in reversed(levels):
        inv = inv[: len(x) // 2]
        up = np.empty_like(x)
        up[0::2] = inv * x[1::2] % p
        up[1::2] = inv * x[0::2] % p
        inv = up
    return inv[: len(vals)]


@dataclass(frozen=True)
class _Reduced:
    """Solution sets of a stack of reduced systems ``[A | b]``, by system.

    ``particular`` (B, nvars) sets free variables to zero; it is meaningful
    only where ``consistent``.  ``lead`` (B, rows) is each row's pivot
    column, its leading nonzero, or -1 for a row without one.  ``free``
    (B, nvars) marks the columns without a pivot, and ``pinned`` (B, nvars)
    the pivot columns whose row is zero on every free column: coordinates
    that take the same value in every solution.  ``norm`` is the stack with
    every pivot row scaled to a leading 1.
    """

    p: int
    consistent: np.ndarray
    particular: np.ndarray
    lead: np.ndarray
    free: np.ndarray
    pinned: np.ndarray
    norm: np.ndarray

    def nullspace(self, s: int) -> np.ndarray:
        """The nullspace basis of system ``s``, one row per free column in
        column order: 1 at its own column, 0 at every other free column, and
        minus that column's entry of each pivot row at the row's pivot."""
        cols = np.flatnonzero(self.free[s])
        rows = np.flatnonzero(self.lead[s] >= 0)
        vecs = np.zeros((len(cols), self.free.shape[1]), dtype=self.norm.dtype)
        vecs[np.arange(len(cols)), cols] = 1
        vecs[:, self.lead[s, rows]] = (-self.norm[s][np.ix_(rows, cols)] % self.p).T
        return vecs


def _read_reduced(red: np.ndarray, nvars: int, p: int) -> _Reduced:
    """Read the solution sets off a stack ``(B, rows, nvars+1)`` of systems
    ``[A | b]`` that :func:`_batch_eliminate` has reduced over their first
    ``nvars`` columns.  One batched inversion scales every pivot row of the
    stack to a leading 1; each pivot row's right-hand side is then its pivot
    coordinate's value in the particular solution.
    """
    nz = red[:, :, :nvars] != 0
    pivotal = nz.any(axis=2)
    lead = np.where(pivotal, nz.argmax(axis=2), -1)
    s, r = np.nonzero(pivotal)
    c = lead[s, r]
    inv = np.ones(pivotal.shape, dtype=red.dtype)
    inv[s, r] = _batch_inverse(red[s, r, c], p)
    norm = red * inv[:, :, None] % p
    free = np.ones((len(red), nvars), dtype=bool)
    free[s, c] = False
    pinned = np.zeros_like(free)
    pinned[s, c] = ~(nz[s, r] & free[s]).any(axis=1)
    consistent = ~((red[:, :, nvars] != 0) & ~pivotal).any(axis=1)
    particular = np.zeros(free.shape, dtype=red.dtype)
    particular[s, c] = norm[s, r, nvars]
    return _Reduced(p, consistent, particular, lead, free, pinned, norm)


def solve(A: FieldMatrix, b) -> SolveOutcome:
    """Solve ``A x = b`` exactly by Gauss-Jordan elimination.

    Args:
        A: coefficient matrix.
        b: right-hand side of length ``A.rows``.

    Returns:
        A :class:`SolveOutcome` with consistency flag, a particular solution
        (free variables set to zero), a nullspace basis of size
        ``cols - rank``, and the pinned coordinate set.

    Raises:
        DimensionMismatch: if ``len(b) != A.rows``.
        BadParameter: an entry of ``b`` is not an integer.
    """
    if len(b) != A.rows:
        raise DimensionMismatch(f"b has length {len(b)}, expected {A.rows}")
    p = A.ctx.p
    aug = np.empty((1, A.rows, A.cols + 1), dtype=A._a.dtype)
    aug[0, :, : A.cols] = A._a
    aug[0, :, A.cols] = [x % p for x in _as_ints(b, "b")]
    _batch_eliminate(aug, p, A.cols)
    red = _read_reduced(aug, A.cols, p)
    consistent = bool(red.consistent[0])
    return SolveOutcome(
        consistent,
        tuple(red.particular[0].tolist()) if consistent else None,
        tuple(map(tuple, red.nullspace(0).tolist())),
        frozenset(np.flatnonzero(red.pinned[0]).tolist()),
    )


def rank(A: FieldMatrix) -> int:
    """Rank over GF(p) by inverse-free elimination."""
    return int(_batch_eliminate(A._a[None, :, :].copy(), A.ctx.p, A.cols).sum())


# ---------------------------------------------------------------------------
# The elimination kernel.
#
# It operates on a stack of matrices at once (shape (B, m, n)) and is the one
# elimination behind rank, solve, exhaustive MDS checks and the decoder's
# scenario sweep.  Elimination is inverse-free: instead of normalizing
# pivots, every other row is scaled by the pivot value, which preserves rank
# and the solution set; _read_reduced normalizes when a solution is needed.
# An elimination can be resumed at a later column: the update clears each new
# pivot column in the earlier pivot rows as well, which back-substitutes them.
# ---------------------------------------------------------------------------


def _batch_eliminate(batch: np.ndarray, p: int, ncols: int, start: int = 0) -> np.ndarray:
    """Gauss-Jordan eliminate columns ``start .. ncols-1`` of every matrix in
    a stack already eliminated over its first ``start`` columns, in place.
    Returns the (B, rows) mask of pivot rows; its row sums are the ranks
    restricted to the first ``ncols`` columns.

    Rows stay where they are.  A pivot row's leading nonzero sits in its
    pivot column, which is zero in every other row; every other row is zero
    over the eliminated columns.  The rows nonzero over the first ``start``
    columns keep their pivots, and each new pivot column is cleared in them
    too.
    """
    mats = np.arange(len(batch))
    spare = ~(batch[:, :, :start] != 0).any(axis=2)
    for c in range(start, ncols):
        col = batch[:, :, c]
        nz = (col != 0) & spare
        has = nz.any(axis=1)
        if not has.any():
            continue
        # A matrix with no pivot in this column gets factor 0 and scale 1,
        # and writing back its unchanged row 0 leaves it as it was.
        piv = nz.argmax(axis=1)
        pivrow = batch[mats, piv]
        factor = col * has[:, None]
        # row_i <- row_i * pivot - pivot_row * row_i[c] clears column c in
        # every row, the pivot row included, which is then written back;
        # scaling a row by a nonzero constant keeps its solution set.
        batch *= np.where(has, pivrow[:, c], 1)[:, None, None]
        batch -= factor[:, :, None] * pivrow[:, None, :]
        batch %= p
        batch[mats, piv] = pivrow
        spare[mats, piv] &= ~has
    return ~spare


def batch_rank(batch: np.ndarray, p: int) -> np.ndarray:
    """Ranks of a stack of matrices (the stack is reduced in place)."""
    return _batch_eliminate(batch, p, batch.shape[2]).sum(axis=1)


def batch_feasible(aug: np.ndarray, p: int, nvars: int) -> np.ndarray:
    """Consistency flags for a stack of augmented systems ``[A | b]``.

    ``aug`` has shape (B, rows, nvars+1) and is left reduced in place, so
    :func:`_read_reduced` can read the solution set of any system in it.
    """
    pivotal = _batch_eliminate(aug, p, nvars)
    return ~((aug[:, :, nvars] != 0) & ~pivotal).any(axis=1)


def all_square_submatrices_nonsingular(A: FieldMatrix) -> bool:
    """True iff every ``A.cols``-row selection of ``A`` has full rank, checked
    as one batched elimination.  Desk-scale helper behind the MDS verifier."""
    combos = np.array(list(itertools.combinations(range(A.rows), A.cols)))
    return bool((batch_rank(A._a[combos], A.ctx.p) == A.cols).all())
