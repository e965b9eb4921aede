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
elimination and kept on the code until it decodes another node set), the
scenario is feasible iff ``[L X'_q | L y]`` is consistent.  ``L X'`` is
computed once per source and ``L y`` once, so each projected system has
``t - rank G_T`` rows and beta*(v-1) unknowns.

The projected systems are decided by a nested sweep that fixes one presumed
adversary's partition per level.  Every stack follows one rule: it holds
as many consecutive items as fit in ``_CHUNK`` columns (at least one).  The
level-0 items are the roots of the presumed-adversary sets, so one pass
sweeps them all; a later level's items are children, and a stack of them
may span parents.  A level-j item holds, for its prefix of j partition
choices, the remaining columns
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
scenarios, set i's scenario q as ``i * n_parts**beta + q``, and ``decode``
keeps them as one array of these sweep indices.

The flagged scenarios that are recorded are read off their full systems
(:func:`_read_flagged`).  Each read builds the systems ``[D | X_q | y]``
of its scenarios from ``G_T``, the label table and the presumed
adversaries, and eliminates them all in one kernel call.  One batched read
then gives each system's pivot columns, particular solution, pinned set
and nullspace basis; they depend only on its solution set and column
order.  If a system is inconsistent the projection was wrong and
``decode`` raises ``RuntimeError``.  Every solution read, and in strict
mode every witness alternate, is also encoded and compared with the
transcript (:func:`_check_encodes`).

Both modes read the flagged scenarios whose place in their set is below 1,
or 2 in strict mode, and the estimates are each coordinate's first pinned
value among them in sweep order.  That value is always at a set's first
flagged scenario, since a set's first flagged scenario pins every
coordinate that a later scenario of the set pins.  Were some b unpinned
there, ``g_b`` would be a
combination of the other honest columns and the adversaries' block columns.
Merging two blocks of one adversary whose coefficients differ keeps the
column space, so the coarser scenario is feasible and comes earlier in
restricted-growth order.  Hence each adversary's coefficients are equal,
``g_b`` lies in the span of the other honest columns and the adversaries'
code columns, and no scenario of the set pins b.

Strict mode also needs each coordinate k's first witness event: the first
feasible scenario that presumes k honest and leaves k unpinned or pins it
to a value other than its first pinned value ``x_k``.  Its one first read
holds each set's first two flagged scenarios, in sweep order, and the
earliest of them that meets that test is k's event unless an unread
scenario of an earlier set is: every flagged scenario of the event's set
that comes before it is read.  Most events are one of the two; the
others, which occur on MDS codes too, are found by the witness sweep.  A
second read takes only the events that the first did not, and is skipped
when there are none.  The witness pairs are built from these reads.
Every flagged scenario is kept as its sweep index; ``DecodeResult.feasible``
reads, encode-checks and builds them all into a tuple of
:class:`ScenarioSolution` on first access.

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
the same elimination (:func:`_parity_check`).  A set needs the sweep for k
only when it has more than two flagged scenarios, so that some are unread,
and comes before the set of k's earliest event among the read scenarios.
A k that is never pinned has its event at the first read scenario that
presumes it honest.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Callable
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


@functools.lru_cache(maxsize=1)  # callers sweep one (t, v) at a time
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
    Strict mode additionally carries one witness pair per coordinate on
    which feasible solutions disagree; the properties
    ``ambiguous_coordinates`` (those coordinates) and ``ambiguity`` (the
    witness for the smallest one) are read off ``witnesses``.  In strict
    mode ``feasible`` is every feasible solution in sweep order, read,
    encode-checked and built on first access (a wrong one raises
    ``RuntimeError`` then); in fast mode it is empty.  ``repr``, ``==`` and
    :meth:`to_json` read none of them.
    """

    estimates: tuple[int | None, ...]
    feasible_count: int
    guaranteed: bool = False
    witnesses: dict[int, tuple[ScenarioSolution, ScenarioSolution]] = field(
        default_factory=dict
    )
    scenarios_examined: int = 0
    _read_feasible: Callable[[], tuple] = field(default=tuple, repr=False, compare=False)

    @functools.cached_property
    def feasible(self) -> tuple[ScenarioSolution, ...]:
        return self._read_feasible()

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
    ``(S, rows, m*n + 1)`` laid out as ``[c_0 .. c_{m*n-1} | L y]``: nonempty
    ascending arrays, in scenario order.

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
        hits = np.flatnonzero(pure)
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
        if len(hits):
            yield hits


def _joins(cols_a, on_a, off_b, on_b, r, s) -> np.ndarray:
    """Whether scaled column a of parent s (row ``r = s*n + a`` of ``cols_a``
    and ``on_a``) joins each b column of that parent (``off_b[s]``,
    ``on_b[s]``): equal off the pivot row, unequal on it."""
    same = (cols_a.take(r, axis=0)[:, :, None] == off_b.take(s, axis=0)).all(axis=1)
    return same & (on_a.take(r)[:, None] != on_b.take(s, axis=0))


def _nested_flags(parents: np.ndarray, m: int, n_parts: int, w: int, p: int):
    """Yield the indices of the feasible projected systems below
    ``parents``: nonempty ascending arrays, in scenario order.  Parent s's
    descendants are the scenarios ``s *
    n_parts**m`` to ``(s+1) * n_parts**m - 1``, in the order of their
    partition choices.

    ``parents`` (S, rows, m*n_parts*w + 1) holds, per prefix of partition
    choices, the w reduced columns of each of the n_parts partitions of each
    of the m presumed adversaries left, then ``L y`` (see the module
    docstring).  Child ``c = s*n_parts + q`` fixes the next adversary's
    partition q in parent s: its columns are those w of parent s, then the
    parent's columns of the later adversaries and ``L y``.  Children are
    stacked like roots, as many consecutive ones as fit in ``_CHUNK``
    columns (at least one), and a stack may span parents.  Child c's
    descendants are the scenarios ``c * n_parts**(m-1)`` onwards, so a stack
    starting at child c0 offsets its hits by ``c0 * n_parts**(m-1)``.  The
    last two levels of a v=2 sweep (m <= 2, w = 1) build no child: all the
    parents go to :func:`_pivot_flags`, which decides every descendant with
    one pivot on ``L y`` for the whole stack.
    """
    if m <= 2 and w == 1:
        yield from _pivot_flags(parents, m, p)
        return
    S, rows, width = parents.shape
    below = n_parts ** (m - 1)
    kid_width = width - (n_parts - 1) * w
    step = max(1, _CHUNK // kid_width)
    own = parents[:, :, : n_parts * w].reshape(S, rows, n_parts, w)
    for c0 in range(0, S * n_parts, step):
        s, q = np.divmod(np.arange(c0, min(c0 + step, S * n_parts)), n_parts)
        kids = np.empty((len(s), rows, kid_width), dtype=parents.dtype)  # C order, for the kernel
        kids[:, :, :w] = own[s, :, q]
        kids[:, :, w:] = parents[s, :, n_parts * w :]
        if m == 1:
            flags = [np.flatnonzero(batch_feasible(kids, p, w))]
        else:
            kids[_batch_eliminate(kids, p, w)] = 0
            flags = _nested_flags(kids[:, :, w:], m - 1, n_parts, w, p)
        for hits in flags:
            if len(hits):
                yield c0 * below + hits


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


def _read_flagged(
    Gsub, yv, labels, sets, v: int, p: int, flagged
) -> tuple[_Reduced, np.ndarray, np.ndarray]:
    """Read the full systems ``[D | X_q | y]`` of the scenarios ``flagged``,
    given by sweep index: scenario q of the presumed-adversary set
    ``sets[i]`` is ``i * n_parts**beta + q``.  A full system has the
    presumed-honest code columns ``D`` in source order, then v block columns
    per presumed adversary a in set order: column b is ``g_a`` on block b of
    a's partition, zero elsewhere.  The systems are built from ``Gsub``, the
    label table and ``sets`` (C(K,beta), beta), and eliminated in one kernel
    call, none for an empty read.

    Returns:
        ``(red, cols, parts)``: the :class:`_Reduced` systems, each system's
        source order (its presumed-honest sources, then its presumed
        adversaries) and its partition index per presumed adversary.

    Raises:
        RuntimeError: a full system is inconsistent.
    """
    t, K = Gsub.shape
    beta = sets.shape[1]
    h = K - beta
    nvars = h + beta * v
    i, q = np.divmod(flagged, len(labels) ** beta)
    A = sets[i]
    honest = np.ones((len(A), K), dtype=bool)
    honest[np.arange(len(A))[:, None], A] = False
    cols = np.concatenate([np.nonzero(honest)[1].reshape(len(A), h), A], axis=1)
    parts = _partition_indices(q, len(labels), beta)
    G = Gsub.T[cols]  # each system's code columns, as rows
    full = np.empty((len(A), t, nvars + 1), dtype=Gsub.dtype)
    full[:, :, :h] = G[:, :h].transpose(0, 2, 1)
    for j in range(beta):
        block = labels[parts[:, j]][:, :, None] == np.arange(v)
        full[:, :, h + j * v : h + (j + 1) * v] = np.where(block, G[:, h + j, :, None], 0)
    full[:, :, -1] = yv
    if len(full):
        _batch_eliminate(full, p, nvars)
    red = _read_reduced(full, nvars, p)
    if not red.consistent.all():
        raise RuntimeError("projected and full scenario systems disagree")
    return red, cols, parts


def _check_encodes(Gsub, yv, labels, cols, parts, vecs, p: int) -> None:
    """Raise unless each ``vecs[i]`` encodes to ``yv`` in its scenario, as
    :func:`_read_flagged` returns it in ``cols`` and ``parts``: ``vecs[i]``
    holds the values of the presumed-honest sources ``cols[i, :h]``, then v
    block values per presumed adversary ``cols[i, h + j]``.  Encoder n
    receives each honest value and, from presumed adversary j, the value of
    its block ``labels[parts[i, j], n]``.  Each product is reduced before
    the sum, so int64 cannot wrap."""
    beta = parts.shape[1]
    h = cols.shape[1] - beta
    v = (vecs.shape[1] - h) // beta
    G = Gsub.T[cols]
    acc = (vecs[:, :h, None] * G[:, :h] % p).sum(axis=1)
    systems = np.arange(len(vecs))[:, None]
    for j in range(beta):
        blocks = vecs[:, h + j * v : h + (j + 1) * v]
        sent = blocks[systems, labels[parts[:, j]]]
        acc += sent * G[:, h + j] % p
    if (acc % p != yv).any():
        raise RuntimeError("a recorded solution does not satisfy its scenario system")


def _solution(blocks_of, v: int, vec, pinned, cols, parts) -> ScenarioSolution:
    """One row of a read (see :func:`_read_flagged`) as a solution, from
    lists: ``vec`` its values (the particular solution or an alternate),
    ``pinned`` its pinned flags, ``cols`` its source order and ``parts`` its
    partition indices.  ``blocks_of(q)`` is partition q's blocks."""
    h = len(cols) - len(parts)
    sel = [blocks_of(q) for q in parts]
    Hs, A_hat = cols[:h], tuple(cols[h:])
    blocks = {k: tuple(vec[h + j * v : h + j * v + len(sel[j])]) for j, k in enumerate(A_hat)}
    unpinned = frozenset(k for k, pin in zip(Hs, pinned) if not pin)
    scenario = PresumedScenario(A_hat, tuple(sel))
    return ScenarioSolution(scenario, dict(zip(Hs, vec)), blocks, unpinned)


def _rows(out):
    """Yield each row of the read ``out`` as the lists :func:`_solution`
    takes.  Each array is converted with one flat ``tolist`` and sliced per
    row: a nested ``tolist`` would keep a list per row of every array alive
    at once, which costs the garbage collector more than it saves."""
    red, cols, parts = out
    n, c, b = red.particular.shape[1], cols.shape[1], parts.shape[1]
    P, Q, C, B = (a.ravel().tolist() for a in (red.particular, red.pinned, cols, parts))
    for r in range(len(cols)):
        yield P[r * n : r * n + n], Q[r * n : r * n + n], C[r * c : r * c + c], B[r * b : r * b + b]


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
            finds ambiguity witnesses and reads every feasible solution
            when ``feasible`` is first accessed.
        budget: cap on C(K, beta) * (number of partitions)^beta scenario
            solves; exceeding it raises :class:`BudgetExceeded`.

    Raises:
        BadParameter: a node index is not an integer, or ``budget`` is not
            a positive integer.
        TranscriptMismatch: ``nodes`` disagrees with the transcript.
        NodeOutOfRange: the node set is empty or leaves [0, N).
        BudgetExceeded: the sweep would be too large.
    """
    if mode not in ("fast", "strict"):
        raise BadParameter(f"unknown mode {mode!r}")
    if not _is_integer(budget) or budget < 1:
        raise BadParameter(f"budget must be a positive integer, got {budget!r}")
    nodes = _as_ints(nodes, "nodes")
    if nodes != tuple(transcript.node_set):
        raise TranscriptMismatch("decode node set differs from transcript node set")
    # A Transcript holds one value per node and no repeated node.
    if not nodes or any(not 0 <= n < gm.N for n in nodes):
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
    sets = list(itertools.combinations(range(K), beta))
    set_table = np.array(sets)

    def read(flagged):  # every solution read is encoded and checked
        red, cols, parts = out = _read_flagged(Gsub, yv, labels, set_table, v, p, flagged)
        _check_encodes(Gsub, yv, labels, cols, parts, red.particular, p)
        return out

    @functools.cache  # solutions share the blocks of each partition
    def blocks_of(q):
        return _blocks(nodes, labels[q].tolist())

    solution = functools.partial(_solution, blocks_of, v)

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

    # The parity check depends on the code and the node set alone; the code
    # keeps the last one, read-only.  LX is not kept: it grows with the
    # partition count.
    memo = gm._memo.get("parity")
    if memo is None or memo[0] != nodes:
        L, ell = _parity_check(Gsub, p)
        L.setflags(write=False)
        ell.setflags(write=False)
        memo = gm._memo["parity"] = (nodes, (L, ell))
    L, ell = memo[1]
    LX, Ly = project(L, Gsub.T, side_by_side), project(L, yv, one)
    # The flagged scenarios' sweep indices, set i's scenario q as i * per_set
    # + q; fast mode keeps only each set's first, which pins every coordinate
    # a later one pins.
    per_set = n_parts**beta

    def firsts_of(flagged):
        s = flagged // per_set
        first = np.ones(len(s), dtype=bool)
        first[1:] = s[1:] != s[:-1]
        return flagged[first]

    kept, feasible_count = [], 0
    roots = np.array([A + (0,) for A in sets])
    for hits in _sweep(LX, Ly[None], roots, beta, n_parts, w, p):
        feasible_count += len(hits)
        kept.append(hits if strict else firsts_of(hits))
    flagged = np.concatenate(kept + [np.empty(0, dtype=np.int64)])
    # Read each set's first flagged scenario, and in strict mode its second
    # too: that holds most witness events that the first does not, and the
    # witness sweep finds the rest.
    bounds = np.searchsorted(flagged, np.arange(len(sets) + 1) * per_set)
    place = np.arange(len(flagged)) - bounds[flagged // per_set]  # within its set
    at = flagged[place < 1 + strict]

    # The first pinned values, in sweep order: a set's first scenario pins
    # whatever its second does, so each set's first row is the one kept.
    h = K - beta
    first = read(at)
    red, cols, _ = first
    pinned_first: dict[int, tuple[int, int]] = {}  # value, row of first
    for s, j in zip(*np.nonzero(red.pinned[:, :h])):
        pinned_first.setdefault(int(cols[s, j]), (int(red.particular[s, j]), int(s)))

    witnesses: dict[int, tuple[ScenarioSolution, ScenarioSolution]] = {}
    if strict:
        # k's witness event: the sweep index of the first feasible scenario
        # that presumes k honest and leaves k unpinned or pins it to a value
        # other than its first pinned value x_k.  Among the read scenarios it
        # is found directly.  An unread one q of an earlier set is k's event
        # iff S2(q) or not S1(q), two consistency tests projected by L_k (see
        # the module docstring), and one sweep decides them for every such
        # set and coordinate.
        head_rows = list(_rows(first))
        events: dict[int, int] = {}
        for f, (vec, pinned, order, _) in zip(at.tolist(), head_rows):
            for k, x, pin in zip(order[:h], vec, pinned):
                if k not in events and (not pin or x != pinned_first[k][0]):
                    events[k] = f
        unread = np.diff(bounds) > 2
        todo = [
            (k, i)
            for k in sorted(pinned_first)
            for i in range(events.get(k, len(sets) * per_set) // per_set)
            if k not in sets[i] and unread[i]
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
            F = np.concatenate([
                flagged[bounds[i] : bounds[i + 1]] + (n - i) * per_set
                for n, (_, i) in enumerate(todo)
            ])
            LXk = project(Lk[kk], Gsub[:, aa].T, side_by_side)
            hits = np.concatenate(list(_sweep(LXk, rhs, roots, beta, n_parts, w, p)) + [F[:0]])
            ev = F[np.isin(F, hits) | ~np.isin(F + len(todo) * per_set, hits)]
            ns, lead = np.unique(ev // per_set, return_index=True)
            # Last, and so kept, comes each k's first entry: its earliest set.
            for n, q in reversed(list(zip(ns.tolist(), (ev[lead] % per_set).tolist()))):
                events[todo[n][0]] = todo[n][1] * per_set + q

        # Read the events that are not read yet, those the witness sweep
        # found, and build the witnesses in sweep order, then by coordinate.
        held = {f: (first, s, row) for s, (f, row) in enumerate(zip(at.tolist(), head_rows))}
        unheld = np.array(sorted(set(events.values()) - held.keys()), dtype=np.int64)
        if len(unheld):
            found = read(unheld)
            for s, (f, row) in enumerate(zip(unheld.tolist(), _rows(found))):
                held[f] = (found, s, row)
        alts = []  # (source order, partition indices, alternate)
        for f, k in sorted((f, k) for k, f in events.items()):
            (red, cols, parts), s, row = held[f]
            vec, pinned, order, _ = row
            j = order.index(k)
            sol = solution(*row)
            if pinned[j]:
                value, where = pinned_first[k]
                if vec[j] == value:
                    raise RuntimeError("projected and full scenario systems disagree")
                witnesses[k] = (solution(*head_rows[where]), sol)
            else:
                bvec = next(b for b in red.nullspace(s) if b[j] != 0)
                alts.append((cols[s], parts[s], (red.particular[s] + bvec) % p))
                witnesses[k] = (sol, solution(alts[-1][2].tolist(), *row[1:]))
        if alts:
            _check_encodes(Gsub, yv, labels, *map(np.stack, zip(*alts)), p)

    def read_feasible():  # every flagged scenario, _CHUNK at a time
        reads = (read(flagged[i : i + _CHUNK]) for i in range(0, len(flagged), _CHUNK))
        return tuple(solution(*row) for out in reads for row in _rows(out))

    return DecodeResult(
        estimates=tuple(pinned_first.get(k, (None,))[0] for k in range(K)),
        feasible_count=feasible_count,
        guaranteed=t >= cfg.t_star,
        witnesses=witnesses,
        scenarios_examined=total,
        _read_feasible=read_feasible if strict else tuple,
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
