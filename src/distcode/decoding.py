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

The projected systems of one presumed-adversary set are decided by a nested
sweep that fixes one presumed adversary's partition per level.  A level-j
stack holds, for every prefix of j partition choices, the remaining columns
``[L X'_{a_{j+1}} of every partition | ... | L X'_{a_beta} of every partition
| L y]`` with the prefix's columns eliminated.  Gauss-Jordan elimination of
one adversary's v-1 columns leaves every non-pivot row zero over them, and
each pivot row holds a pivot variable that appears in no other row, so that
equation can always be satisfied.  Zeroing the pivot rows and dropping the
eliminated columns therefore keeps consistency, for every choice of the
later partitions at once: they only select columns, which the row operations
of the elimination act on alike.  The last level decides each scenario on
v-1 columns.  For v=2 that is one column ``c_q`` per child, and ``L y``
lies in its span iff, after ``L y`` is eliminated once per parent,
``L y`` is zero or ``c_q`` is nonzero on the pivot row and zero off it; so
that level pivots once per parent instead of building its children.

The flagged scenarios that are recorded are read off one honest elimination
per presumed-adversary set (:func:`_read_flagged`).  Every scenario of a set
shares the honest block ``D = G_T[:, Hs]``, so ``D`` is Gauss-Jordan
eliminated once, in one kernel call for all sets of a batch of at most
``_CHUNK`` scenarios.  The rows without an honest pivot then hold each
scenario's small system over its beta*v block columns; one
:func:`~distcode.field.batch_feasible` call and one batched read solve all of
them, and the honest values are back-substituted from D's pivot rows, whose
inverses are taken once per set.  Pivot columns, particular solutions, pinned
sets and nullspace bases depend only on each system's solution set and column
order, so they equal those of reducing the full system ``[D | X_q | y]``.  If
a small system is infeasible the projection was wrong and ``decode`` raises
``RuntimeError``; every recorded solution is also re-checked against an
unreduced copy of its full system.  On the ``converse`` benchmark workload
(three strict decodes of the (12,6,1,2) attack at t*-1 per trial) this
read cut the median trial from 34.1 to 22.1 ms on a 2-vCPU Xeon.

Strict mode keeps each read chunk's arrays (scenario indices, particular
solutions, pinned masks) rather than one object per feasible scenario.  It
fills the estimates and finds each coordinate's first witness event with
whole-chunk array operations, carrying each coordinate's first pinned value
across chunks and presumed-adversary sets, and builds
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
    _batch_eliminate,
    _read_normalized,
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
    :func:`enumerate_partitions` order: entry i is position i's block."""
    rows = []
    for part in enumerate_partitions(range(t), v):
        row = [0] * t
        for b, block in enumerate(part):
            for i in block:
                row[i] = b
        rows.append(row)
    labels = np.array(rows, dtype=np.int64)
    labels.setflags(write=False)
    return labels


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


def _scenario_stack(D, X, yv, combos) -> np.ndarray:
    """Stack the augmented systems ``[A | y]`` of the given scenario indices.

    Variable order: the columns of ``D``, then each presumed adversary's
    block columns in partition order.  ``X[j]`` holds adversary ``j``'s w
    block columns for every partition; scenario ``q`` uses partition
    ``(q // n_parts**(beta-1-j)) % n_parts`` for adversary ``j``.  A full
    scenario system has the presumed-honest code columns as ``D`` and all v
    padded blocks (w = v).
    """
    t, h = D.shape
    beta = len(X)
    n_parts, _, w = X[0].shape
    aug = np.empty((len(combos), t, h + beta * w + 1), dtype=D.dtype)
    aug[:, :, :h] = D
    for j in range(beta):
        div = n_parts ** (beta - 1 - j)
        aug[:, :, h + j * w : h + (j + 1) * w] = X[j][(combos // div) % n_parts]
    aug[:, :, -1] = yv
    return aug


def _pivot_flags(parents: np.ndarray, p: int) -> np.ndarray:
    """The (S, n) feasibility flags of the one-column systems ``[c_q | L y]``
    of parents ``(S, rows, n + 1)`` laid out as ``[c_0 .. c_{n-1} | L y]``.

    ``L y`` is eliminated once per parent.  If it is zero every child is
    feasible.  Otherwise it is left nonzero only on its pivot row r, and
    ``[c_q | L y]`` is consistent iff row r of the reduced ``c_q`` is outside
    the span of its other rows: for one column, iff ``c_q`` vanishes off row
    r and not on it.
    """
    stack = np.concatenate([parents[:, :, -1:], parents[:, :, :-1]], axis=2)
    pivot = _batch_eliminate(stack, p, 1)[:, :, None]
    nz = stack[:, :, 1:] != 0
    on, off = (nz & pivot).any(axis=1), (nz & ~pivot).any(axis=1)
    return ~pivot.any(axis=1) | (on & ~off)


def _nested_flags(parents: np.ndarray, m: int, n_parts: int, w: int, p: int):
    """Yield the feasibility flags of the projected systems below
    ``parents``, in scenario order, at most ``_CHUNK`` at a time.

    ``parents`` (S, rows, m*n_parts*w + 1) holds, per prefix of partition
    choices, the w reduced columns of each of the n_parts partitions of each
    of the m presumed adversaries left, then ``L y`` (see the module
    docstring).  A child fixes the next adversary's partition.  Children are
    made in slices of at most ``_CHUNK`` last-level descendants, depth first:
    whole parents at a time, or part of one parent's children.  At the last
    level of a v=2 sweep (m = w = 1) no child is built: :func:`_pivot_flags`
    decides all children of a group of parents with one pivot on ``L y``
    each, and its flags are sliced alike.
    """
    S, rows, width = parents.shape
    step = max(1, _CHUNK // n_parts ** (m - 1))
    per, q_step = max(1, step // n_parts), min(step, n_parts)
    kid_width = width - (n_parts - 1) * w
    for s0 in range(0, S, per):
        group = parents[s0 : s0 + per]
        if m == 1 and w == 1:
            flags = _pivot_flags(group, p)
            for q0 in range(0, n_parts, q_step):
                yield flags[:, q0 : q0 + q_step].reshape(-1)
            continue
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


def _check_residuals(stack: np.ndarray, vecs, p: int) -> None:
    """Raise unless each ``vecs[i]`` solves the unreduced system ``stack[i]``.

    Each term is reduced as it is added, so int64 cannot wrap.
    """
    x = np.array(vecs, dtype=stack.dtype)
    acc = np.zeros(stack.shape[:2], dtype=stack.dtype)
    for c in range(x.shape[1]):
        acc = (acc + stack[:, :, c] * x[:, c, None]) % p
    if (acc != stack[:, :, -1]).any():
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
        self._parts: dict[int, tuple[tuple[int, ...], ...]] = {}
        self._chunks: list[_Chunk] = []
        self._count = 0

    def append(self, chunk: _Chunk) -> None:
        self._chunks.append(chunk)
        self._count += len(chunk.combos)

    def solution(self, chunk: _Chunk, row: int, vec=None) -> ScenarioSolution:
        """Row ``row`` of ``chunk`` as a solution, with ``vec`` (default: the
        particular solution) as its values."""
        n_parts, beta, h, v = len(self._labels), len(chunk.A_hat), len(chunk.Hs), self._v
        combo = int(chunk.combos[row])
        sel = []
        for j in range(beta):
            q = combo // n_parts ** (beta - 1 - j) % n_parts
            if q not in self._parts:
                self._parts[q] = _blocks(self._nodes, self._labels[q].tolist())
            sel.append(self._parts[q])
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
    """The solution sets of the full systems ``[D | X_q | y]`` (columns as in
    :func:`_scenario_stack`) of the ``(A_hat, scenario indices)`` pieces of
    ``batch``, in order, read off one honest elimination per set (see the
    module docstring).  The eliminated base is ``[D | diag(g_a) per presumed
    adversary a | y]``: a scenario's block columns are block sums of its
    reduced ``diag(g_a)`` columns, so the base carries no partition.

    Raises:
        RuntimeError: a small system, and so its full system, is infeasible.
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
    honest = _read_reduced(base, h, p)  # D's pivot rows scaled to a leading 1

    sets = np.repeat(np.arange(n_sets), [len(combos) for _, combos in batch])
    combos = np.concatenate([combos for _, combos in batch])
    G = np.empty((len(sets), t, bv + 1), dtype=Gsub.dtype)
    for j in range(beta):
        q = combos // n_parts ** (beta - 1 - j) % n_parts
        diag_j = honest.norm[sets, :, h + j * t : h + (j + 1) * t]
        G[:, :, j * v : (j + 1) * v] = diag_j @ memb[q] % p
    G[:, :, -1] = honest.norm[sets, :, -1]
    # Set the honest pivot rows aside; zeroed, they leave the small systems.
    s, r = np.nonzero(honest.lead[sets] >= 0)
    top = G[s, r]
    G[s, r] = 0
    if not batch_feasible(G, p, bv).all():
        raise RuntimeError("projected and full scenario systems disagree")
    red = _read_reduced(G, bv, p)

    # Row c of P is block column c's normalized pivot row (zero if c is free)
    # with its particular value last; each term is reduced as it is added.
    P = np.zeros((len(sets), bv, bv + 1), dtype=G.dtype)
    ps, pr = np.nonzero(red.lead >= 0)
    P[ps, red.lead[ps, pr], :bv] = red.norm[ps, pr, :bv]
    P[:, :, bv] = red.particular
    back = top
    for c in range(bv):
        back = (back - top[:, c, None] * P[s, c]) % p

    norm = np.zeros((len(sets), t, h + bv + 1), dtype=G.dtype)
    norm[:, :, h:] = red.norm
    norm[s, r, :h] = honest.norm[sets[s], r, :h]
    norm[s, r, h:] = back
    return _read_normalized(norm, h + bv, p)


def _record_witnesses(chunk: _Chunk, red, row0, feasible, witnesses, pinned_first, p):
    """Record the witness of each honest coordinate of ``chunk`` whose first
    witness event lies in it, and return the ``(row, alternate)`` pairs of
    the witnesses that step along a nullspace vector.  ``red`` holds the
    chunk's systems from its row ``row0`` on.

    A coordinate's event is the first feasible scenario that leaves it
    unpinned or pins it to a value other than its first pinned value;
    ``pinned_first`` carries that value and where it was pinned across
    chunks and presumed-adversary sets.  Witnesses are inserted in sweep
    order, then by coordinate.
    """
    Hs, pins = chunk.Hs, chunk.pinned
    vals = chunk.particular[:, : len(Hs)]
    first = pins.argmax(axis=0)
    for i in np.flatnonzero(pins.any(axis=0)).tolist():
        pinned_first.setdefault(Hs[i], (int(vals[first[i], i]), chunk, int(first[i])))
    ref = np.array(
        [pinned_first[k][0] if k in pinned_first else 0 for k in Hs], dtype=vals.dtype
    )
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
        TranscriptMismatch: ``nodes`` disagrees with the transcript.
        NodeOutOfRange: the node set is empty, or its indices repeat or
            exceed N.
        BudgetExceeded: the sweep would be too large.
    """
    if mode not in ("fast", "strict"):
        raise BadParameter(f"unknown mode {mode!r}")
    nodes = tuple(int(n) for n in nodes)
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

    labels = _partition_labels(t, v)
    n_parts = len(labels)
    total = math.comb(K, beta) * n_parts**beta
    if total > budget:
        raise BudgetExceeded(
            f"{total} scenario solves exceed the budget of {budget}"
        )

    Gsub = gm.matrix._a[np.array(nodes)]
    yv = np.array([x % p for x in transcript.values], dtype=object).astype(ctx.dtype)

    # Block membership of every partition, padded to v columns so scenario
    # coefficient stacks have uniform width.  Padding columns are zero and
    # only add free variables, which cannot affect consistency.
    memb = (labels[:, :, None] == np.arange(v)).astype(ctx.dtype)

    estimates: list[int | None] = [None] * K
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
        nonlocal feasible_count
        for A_hat in itertools.combinations(range(K), beta):
            root = np.concatenate([LX[k] for k in A_hat] + [Ly], axis=1)[None]
            start, to_read = 0, True
            for flags in _nested_flags(root, beta, n_parts, w, p):
                hits = start + np.flatnonzero(flags)
                start += len(flags)
                feasible_count += len(hits)
                if to_read and len(hits):
                    to_read = strict
                    yield A_hat, hits if strict else hits[:1]

    X_for = None  # the presumed-adversary set whose block columns X holds
    for batch in _batches(flagged()):
        red = _read_flagged(Gsub, yv, memb, batch, p)
        row0 = 0
        for A_hat, combos in batch:
            Hs = [k for k in range(K) if k not in A_hat]
            h = len(Hs)
            rows = slice(row0, row0 + len(combos))
            pins = red.pinned[rows, :h]
            vals = red.particular[rows, :h]
            first = pins.argmax(axis=0)
            for i in np.flatnonzero(pins.any(axis=0)).tolist():
                if estimates[Hs[i]] is None:
                    estimates[Hs[i]] = int(vals[first[i], i])

            # Check each recorded solution against its unreduced full system.
            if A_hat != X_for:
                X_for, X = A_hat, [(memb * Gsub[:, k][None, :, None]) % p for k in A_hat]
            full = _scenario_stack(Gsub[:, Hs], X, yv, combos)
            checked, vecs = full, red.particular[rows]
            if strict:
                chunk = _Chunk(A_hat, Hs, combos, vecs, pins)
                feasible.append(chunk)
                alts = _record_witnesses(
                    chunk, red, row0, feasible, witnesses, pinned_first, p
                )
                if alts:
                    alt_rows, alt_vecs = zip(*alts)
                    checked = np.concatenate([full, full[list(alt_rows)]])
                    vecs = np.concatenate([vecs, np.array(alt_vecs, dtype=vecs.dtype)])
            _check_residuals(checked, vecs, p)
            row0 += len(combos)

    return DecodeResult(
        estimates=tuple(estimates),
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
