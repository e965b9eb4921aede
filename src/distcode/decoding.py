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
is 1 turns that last test into a comparison of scaled columns.  For beta=1
the root's single column per partition takes the first two tests alone.

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
Every recorded solution, and in strict mode every witness alternate, is also
encoded and compared with the transcript (:func:`_check_encodes`).

Both modes carry each coordinate's first pinned value across chunks and
presumed-adversary sets, and the estimates are read off it.  Strict mode keeps
each read chunk's arrays (scenario indices, particular solutions, pinned
masks) rather than one object per feasible scenario, finds each coordinate's
first witness event with whole-chunk array operations, and builds
:class:`ScenarioSolution` objects eagerly only for the witness pairs; the
feasible solutions are built when ``DecodeResult.feasible`` is first read.

Fast mode reads one scenario per presumed-adversary set, the first flagged
one, because it pins every coordinate that a later scenario of
the set pins.  Were some b unpinned there, ``g_b`` would be a combination of
the other honest columns and the adversaries' block columns.  Merging two
blocks of one adversary whose coefficients differ keeps the column space, so
the coarser scenario is feasible and comes earlier in restricted-growth
order.  Hence each adversary's coefficients are equal, ``g_b`` lies in the
span of the other honest columns and the adversaries' code columns, and no
scenario of the set pins b.
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
    _read_reduced,
    _Reduced,
    batch_feasible,
)
from .system import SourceBehavior, SystemConfig, Transcript

DEFAULT_BUDGET = 10**8

_CHUNK = 1 << 14


def enumerate_partitions(items, v: int):
    """Yield every partition of ``items`` into at most ``v`` unlabeled blocks.

    Partitions appear exactly once, in restricted-growth-string order; blocks
    are ordered by first occurrence and keep the input ordering internally.
    The total count is sum_{j=1..v} S(n, j) (Stirling numbers, second kind).
    """
    items = tuple(items)
    n = len(items)
    if n < 1:
        raise BadParameter("cannot partition an empty set")
    if v < 1:
        raise BadDimensions(f"need v >= 1, got v={v}")
    labels = [0] * n

    def rec(i: int, used: int):
        if i == n:
            blocks = [[] for _ in range(used)]
            for pos, lbl in enumerate(labels):
                blocks[lbl].append(items[pos])
            yield tuple(tuple(b) for b in blocks)
            return
        for lbl in range(min(used + 1, v)):
            labels[i] = lbl
            yield from rec(i + 1, max(used, lbl + 1))

    yield from rec(0, 0)


@functools.lru_cache(maxsize=32)
def _partition_labels(t: int, v: int) -> np.ndarray:
    """The partitions of t positions into at most v blocks as read-only
    restricted-growth labels, one row per partition in
    :func:`enumerate_partitions` order: entry i is position i's block.

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
    Strict mode additionally carries every feasible solution, built when
    ``feasible`` is first read, and one witness pair per coordinate on which
    feasible solutions disagree; the properties
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


def _pivot_flags(parents: np.ndarray, m: int, p: int):
    """Yield the feasibility flags of the systems ``[c_q | L y]`` (m = 1) or
    ``[c_a | c_b | L y]`` (m = 2) below parents ``(S, rows, m*n + 1)`` laid
    out as ``[c_0 .. c_{m*n-1} | L y]``, in scenario order, at most
    ``_CHUNK`` at a time: for m = 2, whole parents at a time, or part of one
    parent's pairs.

    ``L y`` is eliminated in one kernel call for every parent.  If it is zero
    every system is feasible.  Otherwise it is left nonzero only on its pivot
    row r; write ``c'`` for a reduced column with row r zeroed and ``c[r]``
    for its entry on row r.  ``[c_q | L y]`` is consistent iff ``c_q`` is
    *pure*: ``c'_q = 0`` and ``c_q[r] != 0``.  ``[c_a | c_b | L y]`` is
    consistent iff ``c_a`` or ``c_b`` is pure, or ``c'_a`` and ``c'_b`` are
    nonzero multiples of one vector while ``c[r]`` is not the same multiple:
    after each column is scaled so that its first nonzero off-r entry is 1
    (one batched inverse for all parents), iff the scaled ``c'`` agree and the
    scaled ``c[r]`` differ.  That comparison alone also settles two columns
    that are both zero off r: they stay unscaled and differ on r only if one
    of them is pure.
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
        flags = pure.reshape(-1)
        for i in range(0, len(flags), _CHUNK):
            yield flags[i : i + _CHUNK]
        return
    s, c = np.nonzero(has)
    inv = np.ones(has.shape, dtype=stack.dtype)
    inv[s, c] = _batch_inverse(off[s, nz[s, :, c].argmax(axis=1), c], p)
    off *= inv[:, None, :]
    off %= p
    on = on * inv % p
    step = max(1, _CHUNK // n)
    per, a_step = max(1, step // n), min(step, n)
    for s0 in range(0, S, per):
        g = slice(s0, s0 + per)
        for a0 in range(0, n, a_step):
            a = slice(a0, min(a0 + a_step, n))  # a must not run into the b columns
            for b0 in range(n, 2 * n, _CHUNK):
                b = slice(b0, b0 + _CHUNK)
                same = (off[g, :, a, None] == off[g, :, None, b]).all(axis=1)
                join = same & (on[g, a, None] != on[g, None, b])
                yield (pure[g, a, None] | pure[g, None, b] | join).reshape(-1)


def _nested_flags(parents: np.ndarray, m: int, n_parts: int, w: int, p: int):
    """Yield the feasibility flags of the projected systems below
    ``parents``, in scenario order, at most ``_CHUNK`` at a time.

    ``parents`` (S, rows, m*n_parts*w + 1) holds, per prefix of partition
    choices, the w reduced columns of each of the n_parts partitions of each
    of the m presumed adversaries left, then ``L y`` (see the module
    docstring).  A child fixes the next adversary's partition.  Children are
    made in slices of at most ``_CHUNK`` last-level descendants, depth first:
    whole parents at a time, or part of one parent's children.  The last two
    levels of a v=2 sweep (m <= 2, w = 1) build no child: all the parents go
    to :func:`_pivot_flags`, which decides every descendant with one pivot on
    ``L y`` for the whole stack and slices its flags alike.
    """
    if m <= 2 and w == 1:
        yield from _pivot_flags(parents, m, p)
        return
    S, rows, width = parents.shape
    step = max(1, _CHUNK // n_parts ** (m - 1))
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
            if m == 1:
                yield batch_feasible(kids, p, w)
            else:
                kids[_batch_eliminate(kids, p, w)] = 0
                yield from _nested_flags(kids[:, :, w:], m - 1, n_parts, w, p)


def _parity_check(Gsub, p: int) -> np.ndarray:
    """A basis ``L`` of the left nullspace of ``Gsub``, the code's parity
    check on the observed encoders: ``L z = 0`` iff ``z`` lies in the column
    space of ``Gsub``.

    One elimination of ``[Gsub | I]`` over its first K columns leaves each
    row without a pivot zero over ``Gsub``, so its last t columns hold a
    vector of ``L``.  Such a row carries a nonzero multiple of its own unit
    vector and none of another non-pivot row's, so the rows are independent
    and span the left nullspace even when ``Gsub`` is rank-deficient.
    """
    t, K = Gsub.shape
    stack = np.empty((1, t, K + t), dtype=Gsub.dtype)
    stack[0, :, :K] = Gsub
    stack[0, :, K:] = np.eye(t, dtype=Gsub.dtype)
    pivotal = _batch_eliminate(stack, p, K)
    return stack[0, ~pivotal[0], K:]


def _check_encodes(Gsub, yv, labels, A_hat, Hs, combos, vecs, p: int) -> None:
    """Raise unless each ``vecs[i]`` (values of the honest sources ``Hs``, then
    v block values per presumed adversary) encodes to ``yv`` in scenario
    ``combos[i]``: encoder n receives each honest value and, from presumed
    adversary j, the value of its block ``labels[q_j, n]``.  Each product is
    reduced before the sum, so int64 cannot wrap."""
    h = len(Hs)
    v = (vecs.shape[1] - h) // len(A_hat)
    parts = _partition_indices(combos, len(labels), len(A_hat))
    acc = (vecs[:, None, :h] * Gsub[:, Hs] % p).sum(axis=2)
    for j, a in enumerate(A_hat):
        blocks = vecs[:, h + j * v : h + (j + 1) * v]
        sent = np.take_along_axis(blocks, labels[parts[:, j]], axis=1)
        acc += sent * Gsub[:, a] % p
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

    Strict decoding keeps only each read chunk's arrays; the
    :class:`ScenarioSolution` objects are built on the first read.
    """

    def __init__(self, nodes, labels: np.ndarray, v: int):
        self._nodes, self._labels, self._v = nodes, labels, v
        self._chunks: list[_Chunk] = []
        self._count = 0

    def append(self, chunk: _Chunk) -> None:
        self._chunks.append(chunk)
        self._count += len(chunk.combos)

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
            for chunk in self._chunks
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


def _record_witnesses(chunk: _Chunk, red, row0, feasible, witnesses, pinned_first, p):
    """Record the witness of each honest coordinate of ``chunk`` whose first
    witness event lies in it, and return the ``(row, alternate)`` pairs of
    the witnesses that step along a nullspace vector.  ``red`` holds the
    chunk's systems from its row ``row0`` on.

    A coordinate's event is the first feasible scenario that leaves it
    unpinned or pins it to a value other than its first pinned value;
    ``pinned_first`` carries that value and where it was pinned across
    chunks and presumed-adversary sets, and already holds ``chunk``'s own.
    Witnesses are inserted in sweep order, then by coordinate.
    """
    Hs, pins = chunk.Hs, chunk.pinned
    vals = chunk.particular[:, : len(Hs)]
    ref = np.array([pinned_first.get(k, (0,))[0] for k in Hs], dtype=vals.dtype)
    # A row is a coordinate's event if it leaves it unpinned or pins another value.
    events = ~pins | (vals != ref)
    at = events.argmax(axis=0)
    found = sorted(
        (int(at[i]), i) for i in np.flatnonzero(events.any(axis=0)).tolist()
        if Hs[i] not in witnesses
    )
    alts = []
    for row, i in found:
        sol = feasible.solution(chunk, row)
        if pins[row, i]:
            _, where, r0 = pinned_first[Hs[i]]
            witnesses[Hs[i]] = (feasible.solution(where, r0), sol)
        else:
            x = chunk.particular[row].tolist()
            bvec = next(bv for bv in red.nullspace(row0 + row).tolist() if bv[i] != 0)
            alt = [(a + b) % p for a, b in zip(x, bvec)]
            alts.append((row, alt))
            witnesses[Hs[i]] = (sol, feasible.solution(chunk, row, alt))
    return alts


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
        BadParameter: a node index is not an integer.
        TranscriptMismatch: ``nodes`` disagrees with the transcript.
        NodeOutOfRange: the node set is empty, or its indices repeat or
            exceed N.
        BudgetExceeded: the sweep would be too large.
    """
    if mode not in ("fast", "strict"):
        raise BadParameter(f"unknown mode {mode!r}")
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

    # Block membership of every partition, padded to v columns so scenario
    # coefficient stacks have uniform width.  Padding columns are zero and
    # only add free variables, which cannot affect consistency.
    memb = (labels[:, :, None] == np.arange(v)).astype(ctx.dtype)

    feasible_count = 0
    feasible = _FeasibleSolutions(nodes, labels, v)
    witnesses: dict[int, tuple[ScenarioSolution, ScenarioSolution]] = {}
    pinned_first: dict[int, tuple[int, _Chunk, int]] = {}  # value, chunk, row

    # The projected systems [L X'_q | L y] decide feasibility (see the module
    # docstring).  LX[k] holds L X'_k of every partition side by side, column
    # q*w + b for block b of partition q: block sums of the columns of
    # L diag(g_k), each below t*p.
    w = v - 1
    L = _parity_check(Gsub, p)
    side_by_side = memb[:, :, :w].transpose(1, 0, 2).reshape(t, n_parts * w)
    LX = [(L * Gsub[:, k]) % p @ side_by_side % p for k in range(K)]
    Ly = ((L * yv) % p).sum(axis=1, keepdims=True) % p

    def flagged():
        # (A_hat, flagged scenario indices) in sweep order; fast mode keeps
        # only each set's first, which pins every coordinate a later one pins.
        # The roots of consecutive sets are swept as one stack of at most
        # _CHUNK columns (or one root), and each flags slice is split back
        # into sets by scenario index.
        nonlocal feasible_count
        sets = list(itertools.combinations(range(K), beta))
        per_set = n_parts**beta
        per_group = max(1, _CHUNK // (beta * n_parts * w + 1))
        for g0 in range(0, len(sets), per_group):
            group = sets[g0 : g0 + per_group]
            roots = np.stack([np.concatenate([LX[k] for k in A] + [Ly], axis=1) for A in group])
            start, to_read = 0, [True] * len(group)
            for flags in _nested_flags(roots, beta, n_parts, w, p):
                hits = start + np.flatnonzero(flags)
                feasible_count += len(hits)
                first = start // per_set
                start += len(flags)
                ends = np.arange(first + 1, -(-start // per_set)) * per_set
                for j, part in enumerate(np.split(hits, np.searchsorted(hits, ends)), first):
                    if to_read[j] and len(part):
                        to_read[j] = strict
                        yield group[j], (part if strict else part[:1]) - j * per_set

    for batch in _batches(flagged()):
        red = _read_flagged(Gsub, yv, memb, batch, p)
        row0 = 0
        for A_hat, combos in batch:
            Hs = [k for k in range(K) if k not in A_hat]
            rows = slice(row0, row0 + len(combos))
            pins = red.pinned[rows, : len(Hs)]
            chunk = _Chunk(A_hat, Hs, combos, red.particular[rows], pins)
            first = pins.argmax(axis=0)
            for i in np.flatnonzero(pins.any(axis=0)).tolist():
                value = int(chunk.particular[first[i], i])
                pinned_first.setdefault(Hs[i], (value, chunk, int(first[i])))
            checked, vecs = combos, chunk.particular
            if strict:
                feasible.append(chunk)
                alts = _record_witnesses(
                    chunk, red, row0, feasible, witnesses, pinned_first, p
                )
                if alts:
                    alt_rows, alt_vecs = zip(*alts)
                    checked = np.concatenate([combos, combos[list(alt_rows)]])
                    vecs = np.concatenate([vecs, np.array(alt_vecs, dtype=vecs.dtype)])
            _check_encodes(Gsub, yv, labels, A_hat, Hs, checked, vecs, p)
            row0 += len(combos)

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
