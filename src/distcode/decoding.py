"""Exhaustive feasibility decoding.

The decoder knows neither which sources are adversarial nor how an
equivocating source distributed its values.  It therefore sweeps every
*presumed scenario*: a choice of beta presumed-adversarial sources together
with, for each of them, a partition of the observed encoder set into at most
v groups (encoders presumed to have received the same value).  Each scenario
induces a linear system; feasible scenarios contribute their presumed-honest
solution values.

Two details depart from the naive sweep without changing its outcome:

* Partitions are enumerated unlabeled (restricted-growth strings with at
  most v blocks) rather than as labeled v-tuples of possibly-empty groups.
  Relabeling and empty groups only permute or add free variables, so the
  feasible solution sets projected to presumed-honest coordinates coincide.
* A presumed-honest value is recorded only when it is *pinned*, i.e. equal
  across every solution of the scenario's system.  Underdetermined feasible
  scenarios never contribute guesses.

Fast mode keeps the first pinned value per coordinate.  Strict mode retains
every feasible scenario and reports an ambiguity witness whenever two
feasible solutions disagree on a coordinate both presume honest: two
scenarios that pin different values, or one scenario's particular solution
and that solution moved along a nullspace vector.

Feasibility is decided on projected systems.  An equivocating source's v
block columns sum to its code column ``g_k``, so a scenario's full system
``[D | X_q | y]`` (honest columns ``D``, all blocks ``X_q``) has the same
column space as ``[G_T | X'_q]``, where ``X'_q`` keeps only the first v-1
blocks of each presumed adversary.  With ``L`` a basis of the left nullspace
of ``G_T`` (the code's parity check on the observed encoders, found by one
elimination per decode), the scenario is feasible iff ``[L X'_q | L y]`` is
consistent.  ``L X'`` is computed once per source and ``L y`` once, so each
projected system has ``t - rank G_T`` rows and beta*(v-1) unknowns.

The projected systems are decided by a nested sweep that fixes one presumed
adversary's partition per level.  Its level-0 stack holds the roots of
consecutive presumed-adversary sets, as many as fit in ``_CHUNK`` columns (at
least one), so one pass sweeps them all.  A level-j stack holds, for every
prefix of j partition choices, the remaining columns
``[L X'_{a_{j+1}} of every partition | ... | L X'_{a_beta} of every partition
| L y]`` with the prefix's columns eliminated.  Gauss-Jordan elimination of
one adversary's v-1 columns leaves every non-pivot row zero over them, and
each pivot row holds a pivot variable that appears in no other row, so that
equation can always be satisfied.  Zeroing the pivot rows and dropping the
eliminated columns therefore keeps consistency, for every choice of the
later partitions at once: they only select columns, which the row operations
of the elimination act on alike.  The last level decides each scenario on
v-1 columns.  For v=2 the last two levels are decided together: one kernel
call pivots on ``L y`` in every parent of the next-to-last level (every
root when beta=2), one batched inverse scales the columns of them all, and
no child is built (:func:`_pivot_flags`).  After ``L y`` is
eliminated, with pivot row r, a scenario ``[c_a | c_b | L y]`` is
consistent iff ``L y`` is zero, ``c_a`` or ``c_b`` is nonzero on row r and
zero off it, or the parts of ``c_a`` and ``c_b`` off row r are nonzero
multiples of one vector while their entries on row r are not the same
multiple.  Scaling every column so that its first nonzero entry off row r
is 1 turns that last test into a comparison of scaled columns, made only
where a key match (equal columns have equal integer keys) or a pure column
allows a hit.  At t* that is about t of a parent's n rows: the columns
parallel to ``L e_m``, one per observed encoder m, match keys and never
join.  For beta=1 the root's single column per partition takes the first
two tests alone.  The sweep yields the ascending indices of the feasible
scenarios, each yield within a span of ``_CHUNK`` scenarios, and ``decode``
splits them by presumed-adversary set.

The flagged scenarios that are recorded are read off one honest elimination
per presumed-adversary set (:func:`_read_flagged`).  Every scenario of a set
shares the honest block ``D = G_T[:, Hs]``, so ``[D | diag(g_a) per presumed
adversary a | y]`` is Gauss-Jordan eliminated over ``D`` once, in one kernel
call for all sets of a batch of at most ``_CHUNK`` scenarios.  A scenario's
block columns are block sums of its set's reduced ``diag(g_a)`` columns, so
the same row operations reduce its full system ``[D | X_q | y]`` over ``D``.
A second kernel call resumes the elimination at the block columns of every
scenario of the batch.  It takes new pivots only in the rows without an
honest pivot, and clears each new pivot column in the honest pivot rows as
well, which back-substitutes them.  One batched read then gives each
system's pivot columns, particular solution, pinned set and nullspace basis;
they depend only on its solution set and column order.  If a system is
inconsistent the projection was wrong and ``decode`` raises ``RuntimeError``.
Every solution read, and in strict mode every witness alternate, is also
encoded and compared with the transcript (:func:`_check_encodes`).

Both modes read each presumed-adversary set's first flagged scenario, and
the estimates are each coordinate's first pinned value among them, because
the first flagged scenario of a set pins every coordinate that a later
scenario of the set pins.  Were some b unpinned there, ``g_b`` would be a
combination of the other honest columns and the adversaries' block columns.
Merging two blocks of one adversary whose coefficients differ keeps the
column space, so the coarser scenario is feasible and comes earlier in
restricted-growth order.  Hence each adversary's coefficients are equal,
``g_b`` lies in the span of the other honest columns and the adversaries'
code columns, and no scenario of the set pins b.

Strict mode reads one more scenario per coordinate k, its first witness
event: the first feasible scenario that presumes k honest and leaves k
unpinned or pins it to a value other than its first pinned value ``x_k``.
The witness pairs are built from these reads.  The other flagged scenarios
are kept as ``(A_hat, scenario indices)`` pieces, and read, encode-checked
and built into :class:`ScenarioSolution` objects when
``DecodeResult.feasible`` is first read.

The events are found without reading.  Let ``L_k`` be a basis of the left
nullspace of ``G_T`` without column k, and q a feasible scenario that
presumes k honest, with M its full system ``[D | X_q]`` without ``g_k``.
As above, M spans what ``[G_T without g_k | X'_q]`` spans, so a vector z
lies in that span iff ``L_k z`` lies in the span of ``L_k X'_q``: write ``z
- X'_q c`` for the part that ``L_k`` annihilates.  k is unpinned iff
``g_k`` lies in the span of M, which is S2(q): ``L_k g_k`` is in the span
of ``L_k X'_q``.  Some solution gives k the value x iff ``y - x g_k`` lies
in the span of M, which for x = ``x_k`` is S1(q): ``L_k (y - x_k g_k)`` is
in the span of ``L_k X'_q``.  A pinned k takes one value, so q is k's event
iff S2(q) or not S1(q).  Both are consistency tests of the projected form,
with ``L_k`` for L and another right-hand side, and one sweep decides them
for every coordinate and set.  ``L_k`` is L plus at most one row, read off
the same elimination (:func:`_parity_check`).  A set needs no sweep for k
when its only flagged scenario is its first, which is read, or when it
comes after the set of k's earliest event among the read scenarios.  A k
that is never pinned has its event at the first read scenario that
presumes it honest.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

import numpy as np

from .codes import GeneratorMatrix
from .errors import (
    BadDimensions,
    BadParameter,
    BudgetExceeded,
    NodeOutOfRange,
    TranscriptMismatch,
)
from .field import (
    _as_ints,
    _batch_eliminate,
    _batch_inverse,
    _is_integer,
    _read_reduced,
    _Reduced,
    batch_feasible,
)
from .system import SourceBehavior, SystemConfig, Transcript

DEFAULT_BUDGET = 10**8

_CHUNK = 1 << 14

_KEY_MASK = (1 << 31) - 1  # a column key's bits (see _column_keys)


def enumerate_partitions(items, v: int):
    """Yield every partition of ``items`` into at most ``v`` unlabeled blocks,
    in the order of :func:`_partition_labels`.  Blocks are ordered by first
    occurrence and keep the input ordering internally.  The total count is
    sum_{j=1..v} S(n, j) (Stirling numbers, second kind)."""
    items = tuple(items)
    if not items:
        raise BadParameter("cannot partition an empty set")
    if not _is_integer(v) or v < 1:
        raise BadDimensions(f"need an integer v >= 1, got v={v!r}")
    for row in _partition_labels(len(items), min(v, len(items))):
        yield _blocks(items, row)


@functools.lru_cache(maxsize=32)
def _partition_labels(t: int, v: int) -> np.ndarray:
    """The partitions of t positions into at most v blocks, as read-only
    restricted-growth strings, one row per partition: entry i is position i's
    block, position 0 is in block 0, and position i is in a block at most one
    above the largest label before it and below v.  Rows are in
    lexicographic order; this is the order of every partition sweep.

    The table grows one position at a time: a row with u blocks used gets
    children labelled ``0 .. min(u, v-1)``, in label order."""
    labels = np.zeros((1, 1), dtype=np.int64)
    used = np.ones(1, dtype=np.int64)
    for _ in range(t - 1):
        counts = np.minimum(used, v - 1) + 1
        parent = np.repeat(np.arange(len(labels)), counts)
        child = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        labels = np.column_stack([labels[parent], child])
        used = np.maximum(used[parent], child + 1)
    labels.setflags(write=False)
    return labels


def _partition_count(t: int, v: int) -> int:
    """sum_{j=1..v} S(t, j), by the recurrence S(n+1, j) = j S(n, j) + S(n, j-1)."""
    row = [1] + [0] * v  # S(0, 0..v)
    for _ in range(t):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, v + 1)]
    return sum(row)


def _partition_indices(combos, n_parts: int, beta: int) -> np.ndarray:
    """The ``(len(combos), beta)`` partition indices of scenario indices
    ``combos``: scenario q uses partition ``q // n_parts**(beta-1-j) % n_parts``
    for presumed adversary j."""
    powers = n_parts ** np.arange(beta - 1, -1, -1)
    return np.asarray(combos)[:, None] // powers % n_parts


def _blocks(nodes, row) -> tuple[tuple[int, ...], ...]:
    """The partition of ``nodes`` whose restricted-growth labels are ``row``."""
    blocks: list[list[int]] = [[] for _ in range(max(row) + 1)]
    for n, b in zip(nodes, row):
        blocks[b].append(n)
    return tuple(map(tuple, blocks))


@dataclass(frozen=True)
class PresumedScenario:
    """A decoder hypothesis: presumed adversaries plus one partition of the
    observed encoder set per presumed adversary."""

    adversaries: tuple[int, ...]
    partitions: tuple[tuple[tuple[int, ...], ...], ...]


@dataclass
class ScenarioSolution:
    """One concrete solution of a feasible scenario.

    ``honest_values`` holds the particular solution for every presumed-honest
    source; coordinates in ``unpinned`` vary across the scenario's solution
    set and must not be trusted.  ``block_values`` gives the value assigned
    to each partition block of each presumed adversary.
    """

    scenario: PresumedScenario
    honest_values: dict[int, int]
    block_values: dict[int, tuple[int, ...]]
    unpinned: frozenset[int]

    def to_behavior(self, cfg: SystemConfig) -> SourceBehavior:
        """Materialize the full source grid this solution describes.

        Encoders outside the observed set receive each adversary's first
        block value, which keeps the per-source distinct count unchanged.
        """
        rows = []
        for k in range(cfg.K):
            if k in self.honest_values:
                rows.append((self.honest_values[k],) * cfg.N)
            else:
                j = self.scenario.adversaries.index(k)
                vals = self.block_values[k]
                row = [vals[0]] * cfg.N
                for b, block in enumerate(self.scenario.partitions[j]):
                    for n in block:
                        row[n] = vals[b]
                rows.append(tuple(row))
        return SourceBehavior(cfg, tuple(rows), frozenset(self.scenario.adversaries))

    def to_json(self) -> dict:
        return {
            "presumed_adversaries": list(self.scenario.adversaries),
            "partitions": [[list(b) for b in part] for part in self.scenario.partitions],
            "honest": {str(k): val for k, val in sorted(self.honest_values.items())},
            "blocks": {str(k): list(v) for k, v in sorted(self.block_values.items())},
            "unpinned": sorted(self.unpinned),
        }


@dataclass
class DecodeResult:
    """Decoder output.

    ``estimates[k]`` is ``None`` while no feasible scenario pinned source k.
    ``guaranteed`` says whether the transcript covers at least t* encoders,
    the only case in which the theorem vouches for the honest estimates.
    Strict mode additionally carries every feasible solution, read,
    encode-checked and built when ``feasible`` is first read (a wrong one
    raises ``RuntimeError`` then), and one witness pair per coordinate on
    which feasible solutions disagree; the properties
    ``ambiguous_coordinates`` (those coordinates) and ``ambiguity`` (the
    witness for the smallest one) are read off ``witnesses``.
    """

    estimates: tuple[int | None, ...]
    feasible_count: int
    guaranteed: bool = False
    witnesses: dict[int, tuple[ScenarioSolution, ScenarioSolution]] = field(
        default_factory=dict
    )
    feasible: Sequence[ScenarioSolution] = ()
    scenarios_examined: int = 0

    @property
    def ambiguous_coordinates(self) -> frozenset[int]:
        return frozenset(self.witnesses)

    @property
    def ambiguity(self) -> tuple[ScenarioSolution, ScenarioSolution] | None:
        return self.witnesses[min(self.witnesses)] if self.witnesses else None

    def to_json(self) -> dict:
        doc: dict = {
            "estimates": [v if v is None else int(v) for v in self.estimates],
            "feasible_count": self.feasible_count,
            "guaranteed": self.guaranteed,
        }
        if self.ambiguity is not None:
            doc["ambiguity"] = [s.to_json() for s in self.ambiguity]
        return doc


def _column_keys(cols: np.ndarray) -> np.ndarray:
    """Keys of the columns of ``cols`` (S, rows, n): the low 31 bits of
    ``sum_i cols[:, i] * 2**(i % 16)``, as int64.  Equal columns get equal
    keys, and unequal ones may too, so a key match is only a candidate.  The
    sum is exact: on the int64 path entries are below 2**32, and fewer than
    2**15 rows keep it below 2**62; on the object path it is Python ints."""
    weights = 2 ** (np.arange(cols.shape[1]) % 16)
    return ((weights @ cols) & _KEY_MASK).astype(np.int64, copy=False)


def _pivot_flags(parents: np.ndarray, m: int, p: int):
    """Yield the indices of the feasible systems ``[c_q | L y]`` (m = 1) or
    ``[c_a | c_b | L y]`` (m = 2, scenario ``(s*n + a)*n + b``) below parents
    ``(S, rows, m*n + 1)`` laid out as ``[c_0 .. c_{m*n-1} | L y]``: ascending
    arrays, in scenario order, each within a span of ``_CHUNK`` scenarios.

    ``L y`` is eliminated in one kernel call for every parent.  If it is zero
    every system is feasible.  Otherwise it is left nonzero only on its pivot
    row r; write ``c'`` for a reduced column with row r zeroed and ``c[r]``
    for its entry on row r.  ``[c_q | L y]`` is consistent iff ``c_q`` is
    *pure*: ``c'_q = 0`` and ``c_q[r] != 0``.  ``[c_a | c_b | L y]`` is
    consistent iff ``c_a`` or ``c_b`` is pure, or ``c'_a`` and ``c'_b`` are
    nonzero multiples of one vector while ``c[r]`` is not the same multiple:
    after each column is scaled so that its first nonzero off-r entry is 1
    (one batched inverse for all parents), iff the scaled ``c'`` are nonzero
    and agree, and the scaled ``c[r]`` differ.

    Scaled columns that agree off r have equal :func:`_column_keys`, so a
    ``c_a`` whose key matches no b column of its parent (one sort for the
    whole stack), or with ``c'_a = 0``, joins with none.  Only the rows a with
    a pure ``c_a``, a key match, or a parent with a pure b column are read,
    ``_CHUNK // n`` at a time across parents, and only the key-matched ones
    take the exact test (:func:`_joins`), which also rejects colliding keys.
    """
    S, rows, width = parents.shape
    n = (width - 1) // m
    # A zero equation keeps every system's solution set and gives argmax a row.
    stack = np.zeros((S, max(rows, 1), width), dtype=parents.dtype)
    stack[:, :rows, 0] = parents[:, :, -1]
    stack[:, :rows, 1:] = parents[:, :, :-1]
    pivot = _batch_eliminate(stack, p, 1)
    off = stack[:, :, 1:]
    on = off[np.arange(S), pivot.argmax(axis=1)]
    off[pivot] = 0
    nz = off != 0
    has = nz.any(axis=1)
    pure = ~pivot.any(axis=1)[:, None] | ((on != 0) & ~has)
    if m == 1:
        pure = pure.reshape(-1)
        for i in range(0, len(pure), _CHUNK):
            hits = i + np.flatnonzero(pure[i : i + _CHUNK])
            if len(hits):
                yield hits
        return
    first = off[:, -1].copy()  # each column's first nonzero entry off r
    for i in range(off.shape[1] - 2, -1, -1):
        np.copyto(first, off[:, i], where=nz[:, i])
    inv = np.ones(has.shape, dtype=stack.dtype)
    inv[has] = _batch_inverse(first[has], p)
    off *= inv[:, None, :]
    off %= p
    on = on * inv % p
    # Offset by parent, the keys of different parents never meet, so one
    # sorted array serves every parent's b columns.
    key = _column_keys(off) + np.arange(S)[:, None] * (_KEY_MASK + 1)
    kb = np.sort(key[:, n:], axis=None)
    at = np.minimum(np.searchsorted(kb, key[:, :n]), kb.size - 1)
    matched = has[:, :n] & (kb[at] == key[:, :n])
    pure_a, pure_b, off_b, on_b = pure[:, :n], pure[:, n:], off[:, :, n:], on[:, n:]
    read = np.flatnonzero(pure_a | matched | pure_b.any(axis=1, keepdims=True))
    # Row s*n + a: column a of parent s, scaled, off r and on r.
    cols_a, on_a = off[:, :, :n].transpose(0, 2, 1).reshape(S * n, -1), on[:, :n].reshape(-1)
    step = max(1, _CHUNK // n)
    for i in range(0, len(read), step):
        r = read[i : i + step]  # rows s*n + a, each paired with every b
        s = r // n
        block = pure_a.take(r)[:, None] | pure_b.take(s, axis=0)
        j = np.flatnonzero(matched.take(r))
        block[j] |= _joins(cols_a, on_a, off_b, on_b, r[j], s[j])
        hits = ((r * n)[:, None] + np.arange(n))[block]
        lo = 0
        while lo < len(hits):
            hi = np.searchsorted(hits, hits[lo] + _CHUNK)
            yield hits[lo:hi]
            lo = hi


def _joins(cols_a, on_a, off_b, on_b, r, s) -> np.ndarray:
    """Whether scaled column a of parent s (row ``r = s*n + a`` of ``cols_a``
    and ``on_a``) joins each b column of that parent (``off_b[s]``,
    ``on_b[s]``): equal off the pivot row, unequal on it."""
    same = (cols_a.take(r, axis=0)[:, :, None] == off_b.take(s, axis=0)).all(axis=1)
    return same & (on_a.take(r)[:, None] != on_b.take(s, axis=0))


def _nested_flags(parents: np.ndarray, m: int, n_parts: int, w: int, p: int):
    """Yield the indices of the feasible projected systems below
    ``parents``: ascending arrays, in scenario order, each within a span of
    ``_CHUNK`` scenarios.  Parent s's descendants are the scenarios ``s *
    n_parts**m`` to ``(s+1) * n_parts**m - 1``, in the order of their
    partition choices.

    ``parents`` (S, rows, m*n_parts*w + 1) holds, per prefix of partition
    choices, the w reduced columns of each of the n_parts partitions of each
    of the m presumed adversaries left, then ``L y`` (see the module
    docstring).  A child fixes the next adversary's partition.  Children are
    made in slices of at most ``_CHUNK`` last-level descendants, depth first:
    whole parents at a time, or part of one parent's children.  A slice's
    descendants are one contiguous scenario range, so its hits are its own
    indices offset by the range's start.  The last two levels of a v=2
    sweep (m <= 2, w = 1) build no child: all the parents go to
    :func:`_pivot_flags`, which decides every descendant with one pivot on
    ``L y`` for the whole stack.
    """
    if m <= 2 and w == 1:
        yield from _pivot_flags(parents, m, p)
        return
    S, rows, width = parents.shape
    below = n_parts ** (m - 1)
    step = max(1, _CHUNK // below)
    per, q_step = max(1, step // n_parts), min(step, n_parts)
    kid_width = width - (n_parts - 1) * w
    for s0 in range(0, S, per):
        group = parents[s0 : s0 + per]
        for q0 in range(0, n_parts, q_step):
            nq = min(q_step, n_parts - q0)
            kids = np.empty((len(group), nq, rows, kid_width), dtype=parents.dtype)
            own = group[:, :, q0 * w : (q0 + nq) * w].reshape(len(group), rows, nq, w)
            kids[..., :w] = own.transpose(0, 2, 1, 3)
            kids[..., w:] = group[:, None, :, n_parts * w :]
            kids = kids.reshape(len(group) * nq, rows, kid_width)
            base = (s0 * n_parts + q0) * below
            if m == 1:
                hits = np.flatnonzero(batch_feasible(kids, p, w))
                if len(hits):
                    yield base + hits
            else:
                kids[_batch_eliminate(kids, p, w)] = 0
                for hits in _nested_flags(kids[:, :, w:], m - 1, n_parts, w, p):
                    yield base + hits


def _parity_check(Gsub, p: int) -> tuple[np.ndarray, np.ndarray]:
    """``(L, ell)``: a basis ``L`` of the left nullspace of ``Gsub`` (t, K),
    the code's parity check on the observed encoders (``L z = 0`` iff ``z``
    lies in the column space of ``Gsub``), and a (K, t) array whose row k
    extends ``L`` to a basis of the left nullspace of ``Gsub`` without
    column k, or is zero where ``L`` already is one.

    One elimination of ``[Gsub | I]`` over its first K columns leaves each
    row without a pivot zero over ``Gsub``, so its last t columns hold a
    vector of ``L``.  Such a row carries a nonzero multiple of its own unit
    vector and none of another non-pivot row's, so the rows are independent
    and span the left nullspace even when ``Gsub`` is rank-deficient.

    Write a pivot row as ``[R_i | E_i]``, so ``R_i = E_i Gsub``.  If ``R_i``
    is zero off its pivot column k, ``E_i`` annihilates every column but
    ``g_k`` and not ``g_k``: then ``g_k`` is not a combination of the other
    columns, dropping it raises the nullity by one, and ``E_i`` is row k.
    Otherwise ``g_k`` is such a combination and ``L`` is already a basis: a
    column without a pivot is a combination of the pivot columns before
    it, and a column j != k on which ``R_i`` is nonzero has no pivot and
    uses ``g_k`` with a nonzero coefficient.
    """
    t, K = Gsub.shape
    stack = np.empty((1, t, K + t), dtype=Gsub.dtype)
    stack[0, :, :K] = Gsub
    stack[0, :, K:] = np.eye(t, dtype=Gsub.dtype)
    pivotal = _batch_eliminate(stack, p, K)[0]
    nz, E = stack[0, :, :K] != 0, stack[0, :, K:]
    alone = pivotal & (nz.sum(axis=1) == 1)
    ell = np.zeros((K, t), dtype=Gsub.dtype)
    ell[nz[alone].argmax(axis=1)] = E[alone]
    return E[~pivotal], ell


def _check_encodes(Gsub, yv, labels, A, combos, vecs, p: int) -> None:
    """Raise unless each ``vecs[i]`` (values of the presumed-honest sources
    in source order, then v block values per presumed adversary ``A[i, j]``)
    encodes to ``yv`` in scenario ``combos[i]``: encoder n receives each
    honest value and, from presumed adversary j, the value of its block
    ``labels[q_j, n]``.  Each product is reduced before the sum, so int64
    cannot wrap."""
    S, beta = A.shape
    K = Gsub.shape[1]
    h, v = K - beta, (vecs.shape[1] - K + beta) // beta
    honest = np.ones((S, K), dtype=bool)
    honest[np.arange(S)[:, None], A] = False
    H = np.nonzero(honest)[1].reshape(S, h)
    parts = _partition_indices(combos, len(labels), beta)
    acc = (vecs[:, :h, None] * Gsub.T[H] % p).sum(axis=1)
    for j in range(beta):
        blocks = vecs[:, h + j * v : h + (j + 1) * v]
        sent = np.take_along_axis(blocks, labels[parts[:, j]], axis=1)
        acc += sent * Gsub.T[A[:, j]] % p
    if (acc % p != yv).any():
        raise RuntimeError("a recorded solution does not satisfy its scenario system")


@dataclass
class _Chunk:
    """One read chunk of feasible scenarios of the presumed-adversary set
    ``A_hat``: their scenario indices, particular solutions (honest columns
    ``Hs`` first, then v block columns per presumed adversary) and the
    pinned mask of the honest columns."""

    A_hat: tuple[int, ...]
    Hs: list[int]
    combos: np.ndarray
    particular: np.ndarray
    pinned: np.ndarray


class _FeasibleSolutions(Sequence):
    """The solutions of every feasible scenario, in sweep order.

    Strict decoding keeps only the flagged ``(A_hat, scenario indices)``
    pieces.  The first access that needs a solution reads their systems,
    checks that each solution encodes to the transcript, and builds the
    :class:`ScenarioSolution` objects; the length needs no read.
    """

    def __init__(self, nodes, labels: np.ndarray, v: int, pieces, read):
        self._nodes, self._labels, self._v = nodes, labels, v
        self._pieces, self._read = pieces, read
        self._count = sum(len(combos) for _, combos in pieces)

    def solution(self, chunk: _Chunk, row: int, vec=None) -> ScenarioSolution:
        """Row ``row`` of ``chunk`` as a solution, with ``vec`` (default: the
        particular solution) as its values."""
        beta, h, v = len(chunk.A_hat), len(chunk.Hs), self._v
        qs = _partition_indices(chunk.combos[row : row + 1], len(self._labels), beta)[0]
        sel = [_blocks(self._nodes, self._labels[q].tolist()) for q in qs.tolist()]
        vec = chunk.particular[row].tolist() if vec is None else vec
        honest = {k: vec[i] for i, k in enumerate(chunk.Hs)}
        blocks = {
            k: tuple(vec[h + j * v : h + j * v + len(sel[j])])
            for j, k in enumerate(chunk.A_hat)
        }
        unpinned = frozenset(
            k for k, pin in zip(chunk.Hs, chunk.pinned[row].tolist()) if not pin
        )
        scenario = PresumedScenario(chunk.A_hat, tuple(sel))
        return ScenarioSolution(scenario, honest, blocks, unpinned)

    @functools.cached_property
    def _solutions(self) -> tuple[ScenarioSolution, ...]:
        return tuple(
            self.solution(chunk, row)
            for chunk, _, _ in self._read(self._pieces)
            for row in range(len(chunk.combos))
        )

    def __len__(self) -> int:
        return self._count

    def __getitem__(self, i):
        return self._solutions[i]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return repr(self._solutions)


def _batches(pieces):
    """Group ``(A_hat, scenario indices)`` pieces, in order, into batches of
    at most ``_CHUNK`` scenarios; a larger piece makes a batch of its own."""
    batch, size = [], 0
    for piece in pieces:
        if batch and size + len(piece[1]) > _CHUNK:
            yield batch
            batch, size = [], 0
        batch.append(piece)
        size += len(piece[1])
    if batch:
        yield batch


def _read_flagged(Gsub, yv, memb, batch, p: int) -> _Reduced:
    """The solution sets of the full systems ``[D | X_q | y]`` of the
    ``(A_hat, scenario indices)`` pieces of ``batch``, in order, read off one
    honest elimination per set (see the module docstring).  A full system
    has the presumed-honest code columns ``D`` in source order, then v block
    columns per presumed adversary a in ``A_hat`` order: column b is ``g_a``
    on block b of a's partition, zero elsewhere.  Each set's base ``[D |
    diag(g_a) per a | y]``, which has no partition, is eliminated over ``D``;
    each scenario's system is assembled from its set's reduced base, and the
    elimination resumes on its block columns.

    Raises:
        RuntimeError: a full system is inconsistent.
    """
    t, K = Gsub.shape
    n_parts, _, v = memb.shape
    A = np.array([A_hat for A_hat, _ in batch])
    n_sets, beta = A.shape
    h, bv = K - beta, beta * v
    H = np.array([[k for k in range(K) if k not in A_hat] for A_hat in A.tolist()])
    base = np.zeros((n_sets, t, h + beta * t + 1), dtype=Gsub.dtype)
    base[:, :, :h] = Gsub[:, H].transpose(1, 0, 2)
    diag = np.arange(t)
    for j in range(beta):
        base[:, diag, h + j * t + diag] = Gsub[:, A[:, j]].T
    base[:, :, -1] = yv
    _batch_eliminate(base, p, h)

    sets = np.repeat(np.arange(n_sets), [len(combos) for _, combos in batch])
    combos = np.concatenate([combos for _, combos in batch])
    parts = _partition_indices(combos, n_parts, beta)
    full = np.empty((len(sets), t, h + bv + 1), dtype=Gsub.dtype)
    full[:, :, :h] = base[sets, :, :h]
    for j in range(beta):
        diag_j = base[sets, :, h + j * t : h + (j + 1) * t]
        full[:, :, h + j * v : h + (j + 1) * v] = diag_j @ memb[parts[:, j]] % p
    full[:, :, -1] = base[sets, :, -1]
    _batch_eliminate(full, p, h + bv, start=h)
    red = _read_reduced(full, h + bv, p)
    if not red.consistent.all():
        raise RuntimeError("projected and full scenario systems disagree")
    return red


def _read_chunks(Gsub, yv, labels, v: int, p: int, pieces):
    """Read the systems of the ``(A_hat, scenario indices)`` pieces, in order
    and in :func:`_batches`, check that each particular solution encodes to
    ``yv``, and yield ``(chunk, red, row)`` per piece: its :class:`_Chunk`,
    and the reduced batch ``red`` in which its systems start at ``row``."""
    memb = (labels[:, :, None] == np.arange(v)).astype(Gsub.dtype)
    K = Gsub.shape[1]
    for batch in _batches(pieces):
        red = _read_flagged(Gsub, yv, memb, batch, p)
        sizes = [len(combos) for _, combos in batch]
        A = np.repeat([A_hat for A_hat, _ in batch], sizes, axis=0)
        combos = np.concatenate([combos for _, combos in batch])
        _check_encodes(Gsub, yv, labels, A, combos, red.particular, p)
        row0 = 0
        for A_hat, combos in batch:
            Hs = [k for k in range(K) if k not in A_hat]
            rows = slice(row0, row0 + len(combos))
            yield _Chunk(A_hat, Hs, combos, red.particular[rows], red.pinned[rows, : len(Hs)]), red, row0
            row0 += len(combos)


def _sweep(cols, rhs, roots: np.ndarray, beta: int, n_parts: int, w: int, p: int):
    """Yield the ascending indices of the feasible scenarios below the
    roots, root r's scenario q as ``r * n_parts**beta + q``, as
    :func:`_nested_flags` yields them.  Row r of ``roots`` names root r's
    blocks: ``cols[roots[r, j]]`` holds ``L X'_a`` of every partition for its
    j-th presumed adversary a, and ``rhs[roots[r, beta]]`` is its right-hand
    side (see the module docstring).  Consecutive roots are stacked up to
    ``_CHUNK`` columns (at least one root), and each stack is swept in one
    :func:`_nested_flags` pass."""
    per_root = n_parts**beta
    per_group = max(1, _CHUNK // (beta * n_parts * w + 1))
    for g0 in range(0, len(roots), per_group):
        group = roots[g0 : g0 + per_group]
        stack = np.concatenate(
            [cols[group[:, j]] for j in range(beta)] + [rhs[group[:, beta]]], axis=2
        )
        for hits in _nested_flags(stack, beta, n_parts, w, p):
            yield hits + g0 * per_root


def decode(
    gm: GeneratorMatrix,
    nodes,
    transcript: Transcript,
    cfg: SystemConfig,
    mode: str = "fast",
    budget: int = DEFAULT_BUDGET,
) -> DecodeResult:
    """Run the exhaustive feasibility sweep over the transcript.

    Args:
        gm: generator matrix of the code actually used.
        nodes: the observed encoder subset, matching ``transcript.node_set``.
        cfg: system parameters (supplies beta and v).
        mode: ``"fast"`` records first pinned values; ``"strict"`` also
            collects all feasible solutions and ambiguity witnesses.
        budget: cap on C(K, beta) * (number of partitions)^beta scenario
            solves; exceeding it raises :class:`BudgetExceeded`.

    Raises:
        BadParameter: a node index is not an integer, or ``budget`` is not
            a positive integer.
        TranscriptMismatch: ``nodes`` disagrees with the transcript.
        NodeOutOfRange: the node set is empty, or its indices repeat or
            exceed N.
        BudgetExceeded: the sweep would be too large.
    """
    if mode not in ("fast", "strict"):
        raise BadParameter(f"unknown mode {mode!r}")
    if not _is_integer(budget) or budget < 1:
        raise BadParameter(f"budget must be a positive integer, got {budget!r}")
    nodes = _as_ints(nodes, "nodes")
    if nodes != tuple(transcript.node_set):
        raise TranscriptMismatch("decode node set differs from transcript node set")
    if len(transcript.values) != len(nodes):
        raise TranscriptMismatch("transcript value count differs from node count")
    if not nodes or len(set(nodes)) != len(nodes) or any(not 0 <= n < gm.N for n in nodes):
        raise NodeOutOfRange(f"bad node subset {nodes} for N={gm.N}")
    if gm.N != cfg.N or gm.K != cfg.K or gm.ctx.p != cfg.p:
        raise BadParameter("generator and system config disagree")

    ctx = gm.ctx
    p = ctx.p
    t = len(nodes)
    K, beta, v = cfg.K, cfg.beta, cfg.v
    strict = mode == "strict"

    total = math.comb(K, beta) * _partition_count(t, v) ** beta
    if total > budget:
        raise BudgetExceeded(
            f"{total} scenario solves exceed the budget of {budget}"
        )
    labels = _partition_labels(t, v)
    n_parts = len(labels)

    Gsub = gm.matrix._a[np.array(nodes)]
    yv = np.array([x % p for x in transcript.values], dtype=object).astype(ctx.dtype)
    read = functools.partial(_read_chunks, Gsub, yv, labels, v, p)

    # The projected systems [L X'_q | L y] decide feasibility (see the module
    # docstring).  project(L, g_k, side_by_side) holds L X'_k of every
    # partition side by side, column q*w + b for block b of partition q:
    # block sums of the columns of L diag(g_k), each below t*p; partitions
    # with fewer than w blocks get zero columns, which only add free
    # variables.  project(L, z, one) is L z.  Leading axes broadcast.
    w = v - 1
    side_by_side = (labels.T[:, :, None] == np.arange(w)).reshape(t, n_parts * w)
    side_by_side, one = side_by_side.astype(ctx.dtype), np.ones((t, 1), dtype=ctx.dtype)

    def project(L, g, cols):
        return (L * g[..., None, :]) % p @ cols % p

    sets = list(itertools.combinations(range(K), beta))
    L, ell = _parity_check(Gsub, p)
    LX, Ly = project(L, Gsub.T, side_by_side), project(L, yv, one)
    # Each set's flagged scenario indices, in pieces; fast mode keeps only
    # the first, which pins every coordinate a later one pins.
    per_set = n_parts**beta
    flagged: list[list[np.ndarray]] = [[] for _ in sets]
    feasible_count = 0
    roots = np.array([A + (0,) for A in sets])
    for hits in _sweep(LX, Ly[None], roots, beta, n_parts, w, p):
        feasible_count += len(hits)
        for part in np.split(hits, np.flatnonzero(np.diff(hits // per_set)) + 1):
            i = int(part[0]) // per_set
            if strict or not flagged[i]:
                flagged[i].append((part if strict else part[:1]) - i * per_set)

    # Read each set's first flagged scenario: the first pinned values.
    firsts = [i for i in range(len(sets)) if flagged[i]]
    first: dict[int, _Chunk] = {}
    pinned_first: dict[int, tuple[int, _Chunk]] = {}  # value, chunk (row 0)
    for i, (chunk, _, _) in zip(firsts, read([(sets[i], flagged[i][0][:1]) for i in firsts])):
        first[i] = chunk
        for j in np.flatnonzero(chunk.pinned[0]).tolist():
            pinned_first.setdefault(chunk.Hs[j], (int(chunk.particular[0, j]), chunk))

    witnesses: dict[int, tuple[ScenarioSolution, ScenarioSolution]] = {}
    pieces = [(A, part) for A, parts in zip(sets, flagged) for part in parts] if strict else []
    feasible = _FeasibleSolutions(nodes, labels, v, pieces, read)
    if strict:
        # k's witness event: the first feasible scenario that presumes k
        # honest and leaves k unpinned or pins it to a value other than its
        # first pinned value x_k, as (set index, scenario index).  Among the
        # first flagged scenarios, which are read, it is found directly.  A
        # later one q of an earlier set is k's event iff S2(q) or not S1(q),
        # two consistency tests projected by L_k (see the module docstring),
        # and one sweep decides them for every such set and coordinate.
        events: dict[int, tuple[int, int]] = {}
        for i, chunk in first.items():
            for j, k in enumerate(chunk.Hs):
                if k not in events and (
                    not chunk.pinned[0, j] or chunk.particular[0, j] != pinned_first[k][0]
                ):
                    events[k] = (i, int(chunk.combos[0]))
        todo = [
            (k, i)
            for k in sorted(pinned_first)
            for i in range(events.get(k, (len(sets),))[0])
            if k not in sets[i] and sum(map(len, flagged[i])) > 1
        ]
        if todo:
            Lk = np.concatenate([np.broadcast_to(L, (K,) + L.shape), ell[:, None]], axis=1)
            x = np.array([pinned_first.get(k, (0,))[0] for k in range(K)], dtype=ctx.dtype)
            rhs = np.concatenate([
                project(Lk, Gsub.T, one),  # S2 of k at k: L_k g_k
                project(Lk, (yv - x[:, None] * Gsub.T % p) % p, one),  # S1 at K + k
            ])
            pairs = sorted({(k, a) for k, i in todo for a in sets[i]})
            kk, aa = map(list, zip(*pairs))
            col = {pair: c for c, pair in enumerate(pairs)}
            roots = np.array(
                [[col[k, a] for a in sets[i]] + [side * K + k] for side in (0, 1) for k, i in todo]
            )
            # Scenario q of root r as r * per_set + q: todo entry n has its
            # S2 root at n and its S1 root at n + len(todo).
            flat = {i: np.concatenate(flagged[i]) for _, i in todo}
            F = np.concatenate([n * per_set + flat[i] for n, (_, i) in enumerate(todo)])
            LXk = project(Lk[kk], Gsub[:, aa].T, side_by_side)
            hits = np.concatenate(list(_sweep(LXk, rhs, roots, beta, n_parts, w, p)) + [F[:0]])
            ev = F[np.isin(F, hits) | ~np.isin(F + len(todo) * per_set, hits)]
            ns, lead = np.unique(ev // per_set, return_index=True)
            # Last, and so kept, comes each k's first entry: its earliest set.
            for n, q in reversed(list(zip(ns.tolist(), (ev[lead] % per_set).tolist()))):
                events[todo[n][0]] = (todo[n][1], q)

        # Read the event scenarios and build the witnesses in sweep order,
        # then by coordinate.
        at = sorted(set(events.values()))
        found = dict(zip(at, read([(sets[i], np.array([q])) for i, q in at])))
        alts = []  # (A_hat, scenario index, alternate)
        for i, q, k in sorted((i, q, k) for k, (i, q) in events.items()):
            chunk, red, s = found[i, q]
            j = chunk.Hs.index(k)
            sol = feasible.solution(chunk, 0)
            if chunk.pinned[0, j]:
                value, where = pinned_first[k]
                if chunk.particular[0, j] == value:
                    raise RuntimeError("projected and full scenario systems disagree")
                witnesses[k] = (feasible.solution(where, 0), sol)
            else:
                bvec = next(b for b in red.nullspace(s) if b[j] != 0)
                alts.append((chunk.A_hat, q, (chunk.particular[0] + bvec) % p))
                witnesses[k] = (sol, feasible.solution(chunk, 0, alts[-1][2].tolist()))
        if alts:
            A, qs, vecs = map(np.array, zip(*alts))
            _check_encodes(Gsub, yv, labels, A, qs, vecs, p)

    return DecodeResult(
        estimates=tuple(pinned_first.get(k, (None,))[0] for k in range(K)),
        feasible_count=feasible_count,
        guaranteed=t >= cfg.t_star,
        witnesses=witnesses,
        feasible=feasible,
        scenarios_examined=total,
    )


@dataclass(frozen=True)
class TruthReport:
    """Per-coordinate comparison of decoder output against ground truth.

    Only truly-honest sources are judged: a wrong value is always a failure,
    and so is a coordinate still unassigned after the full sweep.  Estimates
    for adversarial sources carry no guarantee and are ignored.
    """

    statuses: tuple[tuple[int, str], ...]
    failures: tuple[int, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def verify_against_truth(result: DecodeResult, behavior: SourceBehavior) -> TruthReport:
    statuses = []
    failures = []
    for k in behavior.honest_sources:
        truth = behavior.honest_message(k)
        est = result.estimates[k]
        if est is None:
            status = "missing"
        elif est == truth:
            status = "correct"
        else:
            status = "wrong"
        statuses.append((k, status))
        if status != "correct":
            failures.append(k)
    return TruthReport(tuple(statuses), tuple(failures))
