import dataclasses
import itertools
import math
import random

import numpy as np
import pytest

from distcode import (
    BadParameter,
    BudgetExceeded,
    FieldContext,
    FieldMatrix,
    GeneratorMatrix,
    NodeOutOfRange,
    PresumedScenario,
    SystemConfig,
    Transcript,
    TranscriptMismatch,
    behavior_honest,
    behavior_random_adversarial,
    converse_attack,
    decode,
    draw_mds,
    encode_transcript,
    enumerate_partitions,
    field_new,
    verify_against_truth,
)
from distcode import decoding
from distcode import field as fieldmod

from oracles import (
    all_set_partitions,
    gauss_jordan,
    labeled_feasible_projections,
    matvec,
    rank_naive,
    stirling2,
    strict_record,
    strict_result_projections,
)

P = 2**31 - 1
P61 = 2**61 - 1
CTX = field_new(P)


class TestEnumeratePartitions:
    def test_count_five_elements_two_blocks(self):
        # 1 single-block partition plus S(5,2) = 15 two-block partitions.
        assert sum(1 for _ in enumerate_partitions(range(5), 2)) == 16

    def test_count_single_block(self):
        assert sum(1 for _ in enumerate_partitions(range(3), 1)) == 1

    def test_count_four_elements_three_blocks(self):
        # Brute-force oracle: filter all 15 set partitions of 4 elements.
        want = sum(1 for pt in all_set_partitions(range(4)) if len(pt) <= 3)
        got = sum(1 for _ in enumerate_partitions(range(4), 3))
        assert got == want == 14

    @pytest.mark.parametrize("n", range(1, 9))
    @pytest.mark.parametrize("v", range(1, 5))
    def test_counts_match_stirling_recurrence(self, n, v):
        want = sum(stirling2(n, j) for j in range(1, v + 1))
        parts = list(enumerate_partitions(range(n), v))
        assert len(parts) == want

    def test_partitions_unique_and_exhaustive(self):
        items = (3, 1, 4, 5, 9)
        seen = set()
        for part in enumerate_partitions(items, 3):
            assert len(part) <= 3
            flat = [x for blk in part for x in blk]
            assert sorted(flat) == sorted(items)
            key = frozenset(frozenset(b) for b in part)
            assert key not in seen
            seen.add(key)

    def test_rgs_order_first_is_single_block(self):
        first = next(iter(enumerate_partitions((7, 8, 9), 3)))
        assert first == ((7, 8, 9),)

    @pytest.mark.parametrize("v", range(1, 5))
    def test_label_table_matches_the_generator(self, v):
        # The decoder's table grows level by level in numpy; row i must be the
        # restricted-growth labels of the generator's i-th partition.
        for t in range(1, 11):
            want = []
            for part in enumerate_partitions(range(t), v):
                row = [0] * t
                for b, block in enumerate(part):
                    for i in block:
                        row[i] = b
                want.append(row)
            got = decoding._partition_labels(t, v)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert got.tolist() == want


def _random_instance(seed, N=9, K=3, beta=1, v=2, t=None, adversarial=True, p=P):
    rng = random.Random(seed)
    cfg = SystemConfig(N=N, K=K, beta=beta, v=v, p=p)
    gm = draw_mds(field_new(p), "random", N, K, seed=rng.randrange(1 << 30))
    if adversarial:
        adv = tuple(sorted(rng.sample(range(K), beta)))
        behavior = behavior_random_adversarial(
            cfg, [rng.randrange(p) for _ in range(K)], adv, seed=rng.randrange(1 << 30)
        )
    else:
        behavior = behavior_honest(cfg, [rng.randrange(p) for _ in range(K)])
    t = cfg.t_star if t is None else t
    nodes = tuple(sorted(rng.sample(range(N), t)))
    transcript = encode_transcript(gm, behavior, nodes)
    return cfg, gm, behavior, nodes, transcript


class TestDecode:
    def test_honest_at_k_nodes(self):
        cfg, gm, behavior, _, _ = _random_instance(0, adversarial=False)
        nodes = (0, 1, 2)
        tr = encode_transcript(gm, behavior, nodes)
        res = decode(gm, nodes, tr, cfg, mode="fast")
        for k in range(3):
            assert res.estimates[k] == behavior.honest_message(k)

    @pytest.mark.parametrize("seed", range(10))
    def test_threshold_recovery_random_adversary(self, seed):
        cfg, gm, behavior, nodes, tr = _random_instance(seed)
        res = decode(gm, nodes, tr, cfg, mode="fast")
        assert verify_against_truth(res, behavior).ok

    @pytest.mark.parametrize("seed", range(4))
    def test_strict_no_honest_ambiguity_at_threshold(self, seed):
        cfg, gm, behavior, nodes, tr = _random_instance(seed + 50)
        res = decode(gm, nodes, tr, cfg, mode="strict")
        honest = behavior.honest_sources
        assert not any(k in res.ambiguous_coordinates for k in honest)

    @pytest.mark.parametrize("seed", range(6))
    def test_soundness_feasible_scenarios_reencode(self, seed):
        # Every feasible solution must explain the transcript exactly.
        cfg, gm, behavior, nodes, tr = _random_instance(seed + 100)
        res = decode(gm, nodes, tr, cfg, mode="strict")
        assert res.feasible
        for sol in res.feasible:
            again = encode_transcript(gm, sol.to_behavior(cfg), nodes)
            assert again.values == tr.values

    @pytest.mark.parametrize("seed", range(6))
    def test_completeness_true_scenario_found(self, seed):
        cfg, gm, behavior, nodes, tr = _random_instance(seed + 200)
        res = decode(gm, nodes, tr, cfg, mode="strict")
        adv = sorted(behavior.adversary_set)
        # Extend the true adversary set to size beta if needed.
        extra = [k for k in range(cfg.K) if k not in adv]
        adv = tuple(sorted(adv + extra[: cfg.beta - len(adv)]))
        parts = []
        for k in adv:
            groups: dict[int, list[int]] = {}
            for n in nodes:
                groups.setdefault(behavior.rows[k][n], []).append(n)
            blocks = sorted(groups.values(), key=lambda b: nodes.index(b[0]))
            parts.append(tuple(tuple(b) for b in blocks))
        true_scenario = PresumedScenario(adv, tuple(parts))
        assert any(sol.scenario == true_scenario for sol in res.feasible)

    def test_budget_guardrail(self):
        cfg, gm, behavior, nodes, tr = _random_instance(7)
        with pytest.raises(BudgetExceeded):
            decode(gm, nodes, tr, cfg, budget=10)

    def test_budget_is_checked_before_the_partition_table(self, monkeypatch):
        # (N = t = 30, K = 3, beta = 1, v = 3) has about 3.4e13 partitions,
        # far too many to tabulate: the count alone must reject it.
        def no_table(t, v):
            raise AssertionError("the partition table was built")

        monkeypatch.setattr(decoding, "_partition_labels", no_table)
        rng = random.Random(30)
        cfg = SystemConfig(N=30, K=3, beta=1, v=3, p=P)
        rows = [[rng.randrange(1, P) for _ in range(3)] for _ in range(30)]
        gm = GeneratorMatrix(FieldMatrix(CTX, rows), "random")
        nodes = tuple(range(30))
        tr = Transcript(nodes, tuple(rng.randrange(P) for _ in nodes))
        want = 3 * sum(stirling2(30, j) for j in range(1, 4))
        assert want == 102945566047326
        with pytest.raises(BudgetExceeded, match=f"^{want} scenario solves"):
            decode(gm, nodes, tr, cfg, budget=1)

    def test_unknown_mode_and_mismatched_config_rejected(self):
        cfg, gm, behavior, nodes, tr = _random_instance(7)
        with pytest.raises(BadParameter, match="unknown mode"):
            decode(gm, nodes, tr, cfg, mode="exact")
        other = SystemConfig(N=cfg.N, K=cfg.K, beta=cfg.beta, v=cfg.v, p=65537)
        with pytest.raises(BadParameter, match="disagree"):
            decode(gm, nodes, tr, other)

    def test_scenarios_examined_matches_formula(self):
        from math import comb

        cfg, gm, behavior, nodes, tr = _random_instance(8, N=12, K=4, beta=2, v=2, t=8)
        res = decode(gm, nodes, tr, cfg, mode="fast")
        want = comb(4, 2) * (stirling2(8, 1) + stirling2(8, 2)) ** 2
        assert res.scenarios_examined == want

    def test_transcript_mismatch(self):
        cfg, gm, behavior, nodes, tr = _random_instance(9)
        with pytest.raises(TranscriptMismatch):
            decode(gm, nodes[::-1], tr, cfg)

    @pytest.mark.parametrize("bad", [0.2, False])
    def test_non_integer_node_rejected(self, bad):
        # Every node is observed, so node 0, which ``bad`` would truncate
        # to, is the first.
        cfg, gm, behavior, nodes, tr = _random_instance(9, t=9)
        with pytest.raises(BadParameter, match="nodes"):
            decode(gm, (bad,) + tuple(nodes[1:]), tr, cfg)

    def test_empty_node_set(self):
        cfg, gm, behavior, nodes, tr = _random_instance(9)
        with pytest.raises(NodeOutOfRange):
            decode(gm, (), Transcript((), ()), cfg)

    @pytest.mark.parametrize("mode", ["fast", "strict"])
    def test_residual_guard_rejects_a_wrong_solution(self, mode, monkeypatch):
        def corrupted(red, nvars, p):
            out = read_reduced(red, nvars, p)
            bad = out.particular.copy()
            bad[:, 0] = (bad[:, 0] + 1) % p
            return dataclasses.replace(out, particular=bad)

        read_reduced = decoding._read_reduced
        monkeypatch.setattr(decoding, "_read_reduced", corrupted)
        cfg, gm, behavior, nodes, tr = _random_instance(11)
        with pytest.raises(RuntimeError, match="does not satisfy"):
            decode(gm, nodes, tr, cfg, mode=mode)

    @pytest.mark.parametrize("p", [P, P61], ids=["p2^31-1", "p2^61-1"])
    @pytest.mark.parametrize("mode", ["fast", "strict"])
    def test_encoding_check_rejects_a_wrong_block_value(self, mode, p, monkeypatch):
        # The honest values stay right; the first presumed adversary's first
        # block value, which every partition uses, is shifted.
        def corrupted(Gsub, yv, memb, batch, p):
            out = read_flagged(Gsub, yv, memb, batch, p)
            bad = out.particular.copy()
            bad[:, h] = (bad[:, h] + 1) % p
            return dataclasses.replace(out, particular=bad)

        cfg, gm, behavior, nodes, tr = _random_instance(11, p=p)
        h = cfg.K - cfg.beta
        read_flagged = decoding._read_flagged
        monkeypatch.setattr(decoding, "_read_flagged", corrupted)
        with pytest.raises(RuntimeError, match="does not satisfy"):
            decode(gm, nodes, tr, cfg, mode=mode)

    @pytest.mark.parametrize("p", [P, P61], ids=["p2^31-1", "p2^61-1"])
    def test_encoding_check_rejects_a_wrong_alternate(self, p, monkeypatch):
        # At t = K some feasible scenario leaves an honest coordinate unpinned,
        # and its witness steps the particular solution along a nullspace
        # vector.  Doubling that vector's honest part moves it off the
        # nullspace, since the honest code columns are independent.
        def corrupted(red, s):
            basis = nullspace(red, s)
            basis[:, :h] = basis[:, :h] * 2 % p
            return basis

        cfg, gm, behavior, nodes, tr = _random_instance(11, t=3, p=p)
        h = cfg.K - cfg.beta
        res = decode(gm, nodes, tr, cfg, mode="strict")
        assert any(k in a.unpinned for k, (a, _) in res.witnesses.items())
        nullspace = fieldmod._Reduced.nullspace
        monkeypatch.setattr(fieldmod._Reduced, "nullspace", corrupted)
        with pytest.raises(RuntimeError, match="does not satisfy"):
            decode(gm, nodes, tr, cfg, mode="strict")

    @pytest.mark.parametrize("mode", ["fast", "strict"])
    def test_projection_guard_rejects_a_wrong_nullspace(self, mode, monkeypatch):
        # A zero-row parity check makes every projected system consistent, so full
        # systems that are in fact infeasible get flagged.
        def no_rows(Gsub, p):
            return np.zeros((0, Gsub.shape[0]), dtype=Gsub.dtype)

        monkeypatch.setattr(decoding, "_parity_check", no_rows)
        cfg, gm, behavior, nodes, tr = _random_instance(11)
        with pytest.raises(RuntimeError, match="disagree"):
            decode(gm, nodes, tr, cfg, mode=mode)

    @pytest.mark.parametrize("mode", ["fast", "strict"])
    @pytest.mark.parametrize("t, want", [(4, False), (5, True), (9, True)])
    def test_guaranteed_exactly_from_t_star(self, mode, t, want):
        cfg, gm, behavior, nodes, tr = _random_instance(13, t=t)
        assert cfg.t_star == 5
        res = decode(gm, nodes, tr, cfg, mode=mode)
        assert res.guaranteed is want
        assert res.to_json()["guaranteed"] is want

    def test_fast_and_strict_agree_on_estimates(self):
        for seed in range(5):
            cfg, gm, behavior, nodes, tr = _random_instance(300 + seed)
            fast = decode(gm, nodes, tr, cfg, mode="fast")
            strict = decode(gm, nodes, tr, cfg, mode="strict")
            assert fast.estimates == strict.estimates
            assert fast.feasible_count == strict.feasible_count

    @pytest.mark.parametrize("below", [1, 2, 3])
    @pytest.mark.parametrize("cell", [(9, 3, 1, 2), (11, 3, 1, 3), (10, 3, 2, 2)])
    def test_fast_estimates_are_first_pinned_values(self, cell, below):
        # Below t* feasible scenarios pin different values, so the fast
        # estimate of k must come from the first feasible scenario, in sweep
        # order, that pins k; strict mode lists them all in that order.
        N, K, beta, v = cell
        for seed in range(3):
            cfg, gm, behavior, nodes, tr = _random_instance(
                400 + seed, N=N, K=K, beta=beta, v=v, t=K + 2 * beta * (v - 1) - below
            )
            want = [None] * K
            for sol in decode(gm, nodes, tr, cfg, mode="strict").feasible:
                for k, val in sol.honest_values.items():
                    if want[k] is None and k not in sol.unpinned:
                        want[k] = val
            assert decode(gm, nodes, tr, cfg, mode="fast").estimates == tuple(want)


def _code_rows(kind, N, K, p, seed):
    """An N x K generator: MDS, or degenerate with a repeated or zero column."""
    if kind == "mds":
        return draw_mds(field_new(p), "random", N, K, seed=seed).matrix.to_rows()
    rng = random.Random(seed)
    rows = [[rng.randrange(1, p) for _ in range(K)] for _ in range(N)]
    for row in rows:
        row[1] = row[0] if kind == "repeated_column" else 0
    return rows


class TestParityCheck:
    @pytest.mark.parametrize("p", [P, P61], ids=["p2^31-1", "p2^61-1"])
    @pytest.mark.parametrize("kind", ["mds", "repeated_column", "zero_column"])
    def test_is_a_basis_of_the_left_nullspace(self, kind, p):
        N, K = 7, 4
        rows = _code_rows(kind, N, K, p, seed=3)
        ctx = FieldContext(p)
        for t in range(1, N + 1):
            nodes = sorted(random.Random(t).sample(range(N), t))
            G = [rows[n] for n in nodes]
            L = decoding._parity_check(FieldMatrix(ctx, G)._a, p).tolist()
            for col in zip(*G):
                assert not any(matvec(L, col, p))
            rank_L = rank_naive(L, p) if L else 0
            assert rank_L == t - rank_naive(G, p)


class TestFlaggedReader:
    # _read_flagged eliminates each presumed-adversary set's honest block D
    # once and resumes the elimination on every scenario's block columns.
    # Each system's particular solution, pinned set and nullspace basis must
    # equal naive Gauss-Jordan's on its full system [D | X_q | y], including
    # when D is rank-deficient (a zero or a repeated code column) and when
    # the batch mixes several presumed-adversary sets.
    @staticmethod
    def _full_system(G, labels, A_hat, combo, v):
        K, n_parts = len(G[0]), len(labels)
        mat = [[row[k] for k in range(K) if k not in A_hat] for row in G]
        for j, a in enumerate(A_hat):
            q = combo // n_parts ** (len(A_hat) - 1 - j) % n_parts
            for i, row in enumerate(G):
                mat[i] += [row[a] if labels[q][i] == b else 0 for b in range(v)]
        return mat

    @pytest.mark.parametrize("p", [5, 101, P, P61], ids=["p5", "p101", "p2^31-1", "p2^61-1"])
    @pytest.mark.parametrize("beta, v", [(1, 2), (1, 3), (2, 2), (2, 3)])
    @pytest.mark.parametrize("kind", ["random", "repeated_column", "zero_column"])
    def test_matches_gauss_jordan(self, kind, beta, v, p):
        K = beta + 2
        h = K - beta
        honest_free = mixed = 0
        for trial in range(4):
            rng = random.Random(f"{kind},{beta},{v},{p},{trial}")
            t = rng.randrange(K, K + beta * v + 1)
            G = [[rng.randrange(p) for _ in range(K)] for _ in range(t)]
            for row in G:
                if kind != "random":
                    row[1] = row[0] if kind == "repeated_column" else 0
            labels = decoding._partition_labels(t, v).tolist()
            total = len(labels) ** beta
            sets = list(itertools.combinations(range(K), beta))
            # y is a codeword, which every scenario reaches, or solves one
            # planted scenario, which low-rank scenarios may reach too.
            planted = (rng.choice(sets), rng.randrange(total))
            mat = G if trial % 2 else self._full_system(G, labels, *planted, v)
            y = matvec(mat, [rng.randrange(p) for _ in mat[0]], p)

            batch, systems, infeasible = [], [], None
            for A_hat in sets:
                combos = rng.sample(range(total), min(total, 6))
                if A_hat == planted[0] and planted[1] not in combos:
                    combos.append(planted[1])
                kept = []
                for combo in combos:
                    mat = self._full_system(G, labels, A_hat, combo, v)
                    want = gauss_jordan(mat, y, p)
                    if want[0]:
                        kept.append(combo)
                        systems.append(want)
                    else:
                        infeasible = (A_hat, combo)
                if kept:
                    batch.append((A_hat, np.array(kept)))
            mixed += len(batch) > 1

            dtype = FieldContext(p).dtype
            Gsub = np.array(G, dtype=dtype)
            yv = np.array(y, dtype=dtype)
            memb = (np.array(labels)[:, :, None] == np.arange(v)).astype(dtype)
            red = decoding._read_flagged(Gsub, yv, memb, batch, p)
            assert len(red.particular) == len(systems)
            for s, (_, particular, basis, pinned) in enumerate(systems):
                assert tuple(red.particular[s].tolist()) == particular
                assert frozenset(np.flatnonzero(red.pinned[s]).tolist()) == pinned
                assert tuple(map(tuple, red.nullspace(s).tolist())) == basis
            honest_free += int(red.free[:, :h].any(axis=1).sum())

            if infeasible is not None:  # the projection guard
                A_hat, combo = infeasible
                with pytest.raises(RuntimeError, match="disagree"):
                    decoding._read_flagged(Gsub, yv, memb, [(A_hat, np.array([combo]))], p)
        assert mixed
        if kind != "random":  # some honest block was rank-deficient
            assert honest_free > 0


def _oracle_feasible_count(rows, nodes, values, K, beta, v, p):
    """Consistent full scenario systems, built and solved on Python ints."""
    partitions = [pt for pt in all_set_partitions(nodes) if len(pt) <= v]
    count = 0
    for a_hat in itertools.combinations(range(K), beta):
        hs = [k for k in range(K) if k not in a_hat]
        for choice in itertools.product(partitions, repeat=beta):
            mat = []
            for n in nodes:
                row = [rows[n][k] for k in hs]
                for k, part in zip(a_hat, choice):
                    row += [rows[n][k] if n in block else 0 for block in part]
                mat.append(row)
            count += gauss_jordan(mat, values, p)[0]
    return count


class TestFeasibleCountOracle:
    @pytest.mark.parametrize(
        "kind, cell, t, p",
        [
            pytest.param("mds", (7, 3, 1, 2), 5, P, id="mds-7-3-1-2-t5"),
            pytest.param("mds", (7, 4, 2, 2), 5, P, id="mds-7-4-2-2-t5"),
            # t <= rank G_T: L has no rows and every scenario is feasible.
            pytest.param("mds", (6, 4, 1, 2), 2, P, id="mds-6-4-1-2-t2"),
            pytest.param("mds", (6, 4, 1, 2), 4, P, id="mds-6-4-1-2-t4-rank-t"),
            pytest.param("zero_column", (7, 4, 2, 2), 3, 101, id="zero-column-t3-rank-t"),
            # v = 1: no block column is kept, so L y alone decides.
            pytest.param("mds", (6, 3, 1, 1), 5, P, id="mds-6-3-1-1-v1-t5"),
            pytest.param("repeated_column", (6, 3, 1, 1), 4, 101, id="repeated-column-v1-t4"),
            # v = 3: partitions with one, two and three blocks.
            pytest.param("mds", (7, 3, 1, 3), 6, P, id="mds-7-3-1-3-t6"),
            pytest.param("repeated_column", (7, 3, 1, 3), 5, 101, id="repeated-column-v3-t5"),
            pytest.param("mds", (7, 3, 1, 2), 4, P61, id="mds-7-3-1-2-t4-p2^61-1"),
            pytest.param("repeated_column", (7, 3, 1, 2), 5, 101, id="repeated-column-p101"),
            pytest.param("zero_column", (7, 4, 2, 2), 5, 101, id="zero-column-p101"),
        ],
    )
    @pytest.mark.parametrize("mode", ["fast", "strict"])
    def test_feasible_count_matches_gauss_jordan(self, kind, cell, t, p, mode):
        N, K, beta, v = cell
        rng = random.Random(f"{kind}{cell}{t}{p}")
        rows = _code_rows(kind, N, K, p, seed=rng.randrange(1 << 30))
        gm = GeneratorMatrix(FieldMatrix(FieldContext(p), rows), "random")
        cfg = SystemConfig(N=N, K=K, beta=beta, v=v, p=p)
        adv = tuple(sorted(rng.sample(range(K), beta)))
        behavior = behavior_random_adversarial(
            cfg, [rng.randrange(p) for _ in range(K)], adv, seed=rng.randrange(1 << 30)
        )
        nodes = tuple(sorted(rng.sample(range(N), t)))
        tr = encode_transcript(gm, behavior, nodes)
        # A shifted transcript need not be a codeword; with v = 1 it is
        # feasible only if L y = 0 happens to hold.
        shifted = Transcript(nodes, ((tr.values[0] + 1) % p,) + tr.values[1:])
        for y in (tr, shifted):
            res = decode(gm, nodes, y, cfg, mode=mode)
            want = _oracle_feasible_count(rows, nodes, list(y.values), K, beta, v, p)
            assert res.feasible_count == want
            if rank_naive([rows[n] for n in nodes], p) == t:
                assert want == res.scenarios_examined


def _planted_transcript(rows, nodes, K, beta, v, p, rng):
    """Values on ``nodes`` of a random scenario with beta equivocating
    sources, each sending at most v values."""
    adv = rng.sample(range(K), beta)
    sent = [[rng.randrange(p)] * len(nodes) for _ in range(K)]
    for k in adv:
        vals = [rng.randrange(p) for _ in range(v)]
        sent[k] = [rng.choice(vals) for _ in nodes]
    return [sum(rows[n][k] * sent[k][i] for k in range(K)) % p for i, n in enumerate(nodes)]


class TestNestedSweep:
    # The nested sweep eliminates one presumed adversary per level; it must
    # flag exactly the scenarios whose flat projected system [L X'_q | L y]
    # is consistent, in scenario order.
    FLAT_CELLS = [
        ((6, 3, 1, 2), 5),
        ((6, 3, 1, 3), 6),
        ((7, 4, 2, 2), 6),
        ((6, 3, 2, 3), 5),
        ((7, 4, 3, 2), 5),
        ((6, 3, 2, 1), 6),  # v = 1: no block columns, L y alone decides
        ((6, 4, 2, 2), 4),  # t = K: L has no rows unless G_T is singular
        ((9, 3, 1, 2), 8),  # beta = 1, v = 2: the root pivots on L y, 5 rows
    ]
    FLAT_KINDS = [("mds", P)] + [
        (kind, p) for kind in ("repeated_column", "zero_column") for p in (3, 5, 101, P)
    ]

    @pytest.mark.parametrize(
        "cell, t, kind, p",
        [
            pytest.param(cell, t, kind, p, id=f"cell{i}-{t}-{kind}-{p}")
            for (i, (cell, t)), (kind, p) in itertools.product(enumerate(FLAT_CELLS), FLAT_KINDS)
        ]
        + [
            # beta = 3, L of 2 rows: the pair read gets groups of 16 parents.
            pytest.param((7, 4, 3, 2), 6, "mds", P, id="beta3-t6-two-rows"),
            # beta = 2 on the object path, L of 2 rows.
            pytest.param((7, 3, 2, 2), 5, "mds", P61, id="beta2-t5-p2^61-1"),
        ],
    )
    def test_flags_match_the_flat_projected_stack(self, cell, t, kind, p):
        N, K, beta, v = cell
        w = v - 1
        rng = random.Random(f"{cell}{t}{kind}{p}")
        rows = _code_rows(kind, N, K, p, seed=rng.randrange(1 << 30))
        nodes = sorted(rng.sample(range(N), t))
        dtype = FieldContext(p).dtype
        G = np.array([rows[n] for n in nodes], dtype=dtype)
        L = decoding._parity_check(G, p)
        labels = decoding._partition_labels(t, v)
        n_parts = len(labels)
        memb = (labels[:, :, None] == np.arange(w)).astype(dtype)
        planted = _planted_transcript(rows, nodes, K, beta, v, p, rng)
        noise = [rng.randrange(p) for _ in nodes]
        for y in (np.array(planted, dtype=dtype), np.array(noise, dtype=dtype)):
            Ly = ((L * y) % p).sum(axis=1) % p
            for A_hat in itertools.combinations(range(K), beta):
                LX = [np.matmul((L * G[:, k]) % p, memb) % p for k in A_hat]
                # Scenario q's systems [L X'_{q_0} | ... | L X'_{q_beta-1} | L y],
                # its partitions q_j the digits of q in base n_parts.
                grid = np.indices((n_parts,) * beta).reshape(beta, -1)
                flat = np.concatenate(
                    [LX[j][grid[j]] for j in range(beta)]
                    + [np.broadcast_to(Ly[:, None], (len(grid[0]), len(L), 1))],
                    axis=2,
                )
                want = decoding.batch_feasible(flat, p, beta * w)
                side_by_side = [x.transpose(1, 0, 2).reshape(len(L), n_parts * w) for x in LX]
                root = np.concatenate(side_by_side + [Ly[:, None]], axis=1)[None]
                got = list(decoding._nested_flags(root, beta, n_parts, w, p))
                assert np.concatenate(got).tolist() == want.tolist()

    # The last level of a v = 2 sweep pivots on L y once per parent and
    # reads each child's flag off the reduced columns; every flag must be
    # the consistency of the child's own system [c_q | L y].
    @staticmethod
    def _assert_pivot_read(parents, p):
        S, rows, width = parents.shape
        n = width - 1
        got = np.concatenate(list(decoding._nested_flags(parents, 1, n, 1, p)))
        want = [
            gauss_jordan(parents[s, :, q : q + 1].tolist(), parents[s, :, n].tolist(), p)[0]
            for s in range(S)
            for q in range(n)
        ]
        assert got.tolist() == want

    @pytest.mark.parametrize("chunk", [None, 5])
    def test_pivot_read_on_every_gf3_pair(self, chunk, monkeypatch):
        # One parent per L y in GF(3)^3, each holding all 27 columns: all
        # 729 (column, L y) pairs.  A chunk of 5 splits each parent's children.
        if chunk:
            monkeypatch.setattr(decoding, "_CHUNK", chunk)
        vecs = np.array(list(itertools.product(range(3), repeat=3)), dtype=np.int64)
        parents = np.empty((27, 3, 28), dtype=np.int64)
        parents[:, :, :27] = vecs.T
        parents[:, :, 27] = vecs
        self._assert_pivot_read(parents, 3)

    @pytest.mark.parametrize("p", [5, 101, P])
    def test_pivot_read_on_planted_stacks(self, p):
        rng = np.random.default_rng(p)
        S, rows, n = 12, 4, 24
        parents = rng.integers(0, p, size=(S, rows, n + 1), dtype=np.int64)
        parents[::4, :, n] = 0  # L y = 0: every child feasible
        for s in range(S):
            ly = parents[s, :, n].copy()
            if not ly.any():
                continue
            r = int(np.flatnonzero(ly)[0])  # the pivot row
            parents[s, :, 0] = 0
            parents[s, :, 1:4] = ly[:, None] * rng.integers(1, p, size=3) % p
            parents[s, :, 4:7] = 0
            parents[s, r, 4:7] = rng.integers(1, p, size=3)
            parents[s, 1:, 7] = 0  # zero off row 0, which need not be r
            if s % 3 == 0:  # L y itself nonzero only on its pivot row
                parents[s, :, n] = 0
                parents[s, r, n] = ly[r]
        self._assert_pivot_read(parents, p)

    # The last two levels of a v = 2 sweep pivot on L y once per parent and
    # join the pairs of columns whose scaled parts off the pivot row agree;
    # every flag must be the consistency of the pair's own system
    # [c_a | c_b | L y], and no slice may hold more than _CHUNK pairs.
    @staticmethod
    def _assert_pair_read(parents, p):
        S, rows, width = parents.shape
        n = (width - 1) // 2
        pieces = list(decoding._nested_flags(parents, 2, n, 1, p))
        assert max(map(len, pieces)) <= decoding._CHUNK
        mats = parents.tolist()
        want = [
            not rows  # no equation: every system is consistent
            or gauss_jordan([[r[a], r[n + b]] for r in mats[s]], [r[-1] for r in mats[s]], p)[0]
            for s in range(S)
            for a in range(n)
            for b in range(n)
        ]
        assert np.concatenate(pieces).tolist() == want
        return want

    @pytest.mark.parametrize("chunk", [None, 5])
    @pytest.mark.parametrize("p, dim", [(3, 3), (5, 2), (2, 4)])
    def test_pair_read_on_every_small_triple(self, p, dim, chunk, monkeypatch):
        # One parent per L y in GF(p)^dim, each holding every vector as c_a
        # and as c_b: all (c_a, c_b, L y) triples.  A chunk of 5 splits each
        # parent's pairs in the middle of a row of c_b's.
        if chunk:
            monkeypatch.setattr(decoding, "_CHUNK", chunk)
        vecs = np.array(list(itertools.product(range(p), repeat=dim)), dtype=np.int64)
        n = len(vecs)
        parents = np.empty((n, dim, 2 * n + 1), dtype=np.int64)
        parents[:, :, :n] = parents[:, :, n : 2 * n] = vecs.T
        parents[:, :, -1] = vecs
        self._assert_pair_read(parents, p)

    @pytest.mark.parametrize("rows", [0, 1, 2, 4])
    @pytest.mark.parametrize("p", [5, 101, P, P61])
    def test_pair_read_on_planted_stacks(self, p, rows):
        # Columns x*u + z*(L y) for a random u: z/x fixes the scaled entry on
        # the pivot row once the parts off it are scaled alike, so (1, 1) and
        # (2, 2) are proportional with equal entries, (1, 0) and (1, 2) with
        # unequal ones; (0, z) is pure and (0, 0) zero.
        rng = random.Random(f"{p}-{rows}")
        S, n = 8, 12
        shapes = [(0, 0), (0, 1 + rng.randrange(p - 1)), (1, 1), (2, 2), (1, 0), (3, 0), (1, 2)]
        parents = np.zeros((S, rows, 2 * n + 1), dtype=FieldContext(p).dtype)
        for s in range(S):
            ly = [rng.randrange(p) for _ in range(rows)] if s % 4 else [0] * rows
            u = [rng.randrange(p) for _ in range(rows)]
            cols = [[(x * ui + z * li) % p for ui, li in zip(u, ly)] for x, z in shapes]
            cols += [[rng.randrange(p) for _ in range(rows)] for _ in range(n - len(shapes))]
            for j, col in enumerate(rng.sample(cols, n) + rng.sample(cols, n) + [ly]):
                parents[s, :, j] = col
        want = self._assert_pair_read(parents, p)
        if rows:
            assert True in want and False in want

    @pytest.mark.parametrize("mode", ["fast", "strict"])
    def test_threshold_decode_builds_no_child(self, mode, monkeypatch):
        # (12,4,2,2) at t* = 8: one parity check, one pivot on the stacked
        # 4 x 257 roots of all C(4,2) = 6 presumed-adversary sets (128
        # partitions each) and two eliminations to read the flagged scenarios:
        # one over each set's K - beta = 2 honest columns, and one that
        # resumes there on each scenario's block columns.
        cfg, gm, behavior, nodes, tr = _random_instance(13, N=12, K=4, beta=2, v=2)
        shapes, starts = [], []

        def counting(batch, p, ncols, start=0):
            shapes.append(batch.shape)
            starts.append(start)
            return eliminate(batch, p, ncols, start)

        eliminate = fieldmod._batch_eliminate
        monkeypatch.setattr(fieldmod, "_batch_eliminate", counting)
        monkeypatch.setattr(decoding, "_batch_eliminate", counting)
        res = decode(gm, nodes, tr, cfg, mode=mode)
        assert verify_against_truth(res, behavior).ok
        assert len(shapes) == 4
        assert shapes[1] == (6, 4, 257)
        assert starts == [0, 0, 0, 2]

    @pytest.mark.parametrize("chunk", [7, 3, 100])
    @pytest.mark.parametrize(
        "cell, t",
        [((7, 4, 2, 2), 5), ((6, 3, 2, 2), 3), ((7, 4, 3, 2), 4), ((6, 3, 1, 3), 5)],
    )
    def test_outputs_do_not_depend_on_the_chunk_size(self, cell, t, chunk, monkeypatch):
        # Chunks of 7 and 3 are below the partition count, so slices split the
        # children of one parent as well as the parents of a level.  A chunk
        # of 100 stacks several sets' roots in one sweep (3 of width 33 on
        # (7,4,2,2) at t=5) and still splits their pair reads (6 first
        # indices of 16 per slice), so flags slices straddle set boundaries.
        N, K, beta, v = cell
        outputs = []
        for size in (decoding._CHUNK, chunk):
            monkeypatch.setattr(decoding, "_CHUNK", size)
            out = []
            for seed in range(2):
                cfg, gm, _, nodes, tr = _random_instance(
                    500 + seed, N=N, K=K, beta=beta, v=v, t=t
                )
                for mode in ("fast", "strict"):
                    res = decode(gm, nodes, tr, cfg, mode=mode)
                    out.append((
                        res.to_json(),
                        res.scenarios_examined,
                        [s.to_json() for s in res.feasible],
                        {k: (a.to_json(), b.to_json()) for k, (a, b) in res.witnesses.items()},
                    ))
            outputs.append(out)
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "cell, t, chunk, want",
        [
            # Roots of width 33: three sets per stack under a chunk of 100.
            ((7, 4, 2, 2), 5, 100, [3, 3]),
            # 88,574 partitions make roots wider than the chunk: one set per
            # stack, so the sweep's memory does not grow with C(K, beta).
            ((12, 3, 1, 3), 12, None, [1, 1, 1]),
        ],
    )
    def test_roots_are_stacked_up_to_the_chunk_size(self, cell, t, chunk, want, monkeypatch):
        N, K, beta, v = cell
        if chunk:
            monkeypatch.setattr(decoding, "_CHUNK", chunk)
        cfg, gm, _, nodes, tr = _random_instance(7, N=N, K=K, beta=beta, v=v, t=t)
        stacks = []

        def recording(parents, m, n_parts, w, p):
            stacks.append(len(parents))
            return iter(())  # no flags: nothing is read

        monkeypatch.setattr(decoding, "_nested_flags", recording)
        res = decode(gm, nodes, tr, cfg)
        assert stacks == want
        assert res.feasible_count == 0


def _count_reads(monkeypatch, cfg):
    """Record the ``(A_hat, scenario indices)`` pieces of each
    ``_read_flagged`` call, and the systems of each full-width
    ``batch_feasible`` call (one over all ``h + beta*v`` unknowns)."""
    reads, full_width = [], []
    full_nvars = cfg.K - cfg.beta + cfg.beta * cfg.v

    def reading(Gsub, yv, memb, batch, p):
        reads.append([(A_hat, combos.tolist()) for A_hat, combos in batch])
        return read_flagged(Gsub, yv, memb, batch, p)

    def deciding(aug, p, nvars):
        if nvars == full_nvars:
            full_width.append(len(aug))
        return batch_feasible(aug, p, nvars)

    read_flagged, batch_feasible = decoding._read_flagged, decoding.batch_feasible
    monkeypatch.setattr(decoding, "_read_flagged", reading)
    monkeypatch.setattr(decoding, "batch_feasible", deciding)
    return reads, full_width


class TestRebuilds:
    # Projected systems decide feasibility; only the scenarios decode records
    # are read, off one honest elimination per presumed-adversary set, and
    # their solutions encoded for the check.  Fast mode reads at most the
    # first flagged scenario of each set.
    CASES = [
        pytest.param("converse", (12, 6, 1, 2), id="converse-12-6-1-2"),
        pytest.param("converse", (9, 3, 2, 2), id="converse-9-3-2-2"),
        pytest.param("threshold", (12, 4, 2, 2), id="threshold-12-4-2-2"),
    ]

    @staticmethod
    def _instance(kind, cell):
        N, K, beta, v = cell
        cfg, gm, _, nodes, tr = _random_instance(21, N=N, K=K, beta=beta, v=v)
        if kind == "converse":  # the attack's setup 1 at t*-1
            atk = converse_attack(gm, cfg, seed=1)
            nodes, tr = atk.node_set, encode_transcript(gm, atk.setup1, atk.node_set)
        return cfg, gm, nodes, tr

    @pytest.mark.parametrize("kind, cell", CASES)
    def test_fast_rebuilds_at_most_one_system_per_set(self, kind, cell, monkeypatch):
        cfg, gm, nodes, tr = self._instance(kind, cell)
        reads, full_width = _count_reads(monkeypatch, cfg)
        res = decode(gm, nodes, tr, cfg, mode="fast")
        pieces = [piece for batch in reads for piece in batch]
        assert pieces and {len(combos) for _, combos in pieces} == {1}
        sets = [A_hat for A_hat, _ in pieces]
        assert len(set(sets)) == len(sets) <= math.comb(cfg.K, cfg.beta)
        assert not full_width
        assert res.feasible_count > 0

    @pytest.mark.parametrize("kind, cell", CASES)
    def test_strict_builds_each_flagged_system_once(self, kind, cell, monkeypatch):
        cfg, gm, nodes, tr = self._instance(kind, cell)
        checked = []  # (A_hat, scenario index) of each vector encoded

        def counting(Gsub, yv, labels, A_hat, Hs, combos, vecs, p):
            assert len(combos) == len(vecs)
            checked.extend((A_hat, q) for q in combos.tolist())
            return check_encodes(Gsub, yv, labels, A_hat, Hs, combos, vecs, p)

        check_encodes = decoding._check_encodes
        monkeypatch.setattr(decoding, "_check_encodes", counting)
        res = decode(gm, nodes, tr, cfg, mode="strict")
        alternates = sum(k in a.unpinned for k, (a, _) in res.witnesses.items())
        assert len(checked) == res.feasible_count + alternates
        assert len(set(checked)) == res.feasible_count == len(res.feasible)


class TestStrictRecording:
    # Strict decode records estimates and witnesses from whole read chunks
    # at once and builds its feasible solutions only when they are read.
    # oracles.strict_record replays the per-scenario loop over those
    # solutions.  A chunk of 3 splits every presumed-adversary set's sweep,
    # so first pinned values are carried across chunks as well as sets.
    @staticmethod
    def _instances(cell, t):
        N, K, beta, v = cell
        cfg, gm, _, nodes, tr = _random_instance(600, N=N, K=K, beta=beta, v=v, t=t)
        yield cfg, gm, nodes, tr
        atk = converse_attack(gm, cfg, seed=1)
        extra = tuple(n for n in range(N) if n not in atk.node_set)
        nodes = tuple(sorted((atk.node_set + extra)[:t]))
        yield cfg, gm, nodes, encode_transcript(gm, atk.setup1, nodes)
        # A zero-column code at p = 5: a coordinate pinned alike throughout one
        # presumed-adversary set can be pinned otherwise in a later one.
        rows = _code_rows("zero_column", N, K, 5, seed=2)
        gm = GeneratorMatrix(FieldMatrix(FieldContext(5), rows), "random")
        rng = random.Random(f"{cell}{t}")
        nodes = tuple(sorted(rng.sample(range(N), t)))
        tr = Transcript(nodes, tuple(rng.randrange(5) for _ in nodes))
        yield SystemConfig(N=N, K=K, beta=beta, v=v, p=5), gm, nodes, tr

    @pytest.mark.parametrize("chunk", [None, 3])
    @pytest.mark.parametrize("below", [0, 1, 2])
    @pytest.mark.parametrize("cell", [(7, 3, 1, 2), (8, 3, 1, 3), (6, 4, 2, 2), (5, 3, 2, 3)])
    def test_matches_the_per_scenario_loop(self, cell, below, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(decoding, "_CHUNK", chunk)
        N, K, beta, v = cell
        t = min(N, K + 2 * beta * (v - 1)) - below
        for cfg, gm, nodes, tr in self._instances(cell, t):
            res = decode(gm, nodes, tr, cfg, mode="strict")
            estimates, order, first = strict_record(res.feasible, K, cfg.p)
            assert res.estimates == tuple(estimates)
            assert list(res.witnesses) == order
            for k, (a, b) in res.witnesses.items():
                assert a.to_json() == first[k].to_json()
                assert a.honest_values[k] != b.honest_values[k]
                if k in a.unpinned:  # b steps a along a nullspace vector
                    assert b.scenario == a.scenario
                    again = encode_transcript(gm, b.to_behavior(cfg), nodes)
                    assert again.values == tr.values

    @pytest.mark.parametrize("drop", [0, 1])
    def test_builds_solutions_only_for_witnesses_until_read(self, drop, monkeypatch):
        # The converse attack's transcript on (12,6,1,2), at t*-1 and t*-2.
        cfg = SystemConfig(N=12, K=6, beta=1, v=2, p=P)
        gm = draw_mds(CTX, "random", 12, 6, seed=1)
        atk = converse_attack(gm, cfg, seed=1)
        nodes = atk.node_set[: len(atk.node_set) - drop]
        tr = encode_transcript(gm, atk.setup1, nodes)
        built, checked = [], []

        class Counting(decoding.ScenarioSolution):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        def counting_check(Gsub, yv, labels, A_hat, Hs, combos, vecs, p):
            checked.append(len(vecs))
            return check_encodes(Gsub, yv, labels, A_hat, Hs, combos, vecs, p)

        check_encodes = decoding._check_encodes
        monkeypatch.setattr(decoding, "ScenarioSolution", Counting)
        monkeypatch.setattr(decoding, "_check_encodes", counting_check)
        reads, full_width = _count_reads(monkeypatch, cfg)
        res = decode(gm, nodes, tr, cfg, mode="strict")
        assert res.witnesses
        assert len(built) <= 2 * len(res.witnesses) < res.feasible_count
        # Each flagged scenario is read exactly once, no full-width stack is
        # decided, and each read chunk (one set's piece of a batch) has its
        # solutions and witness alternates encoded and checked at once.
        pieces = [piece for batch in reads for piece in batch]
        read = [(A_hat, q) for A_hat, combos in pieces for q in combos]
        assert len(read) == len(set(read)) == res.feasible_count
        assert not full_width and len(checked) == len(pieces)
        alternates = sum(k in a.unpinned for k, (a, _) in res.witnesses.items())
        assert (alternates > 0) == (drop > 0)
        assert sum(checked) == res.feasible_count + alternates
        before = len(built)
        assert len(res.feasible) == res.feasible_count
        assert len(built) == before  # a length builds nothing
        solutions = list(res.feasible)
        assert len(solutions) == res.feasible_count == len(built) - before
        assert list(res.feasible) == solutions and len(built) == before + len(solutions)


class TestFirstFeasiblePinsMost:
    # Fast mode reads only each presumed-adversary set's first flagged
    # scenario.  That loses no estimate because of this invariant: if b is
    # unpinned in the set's first feasible scenario, g_b is a combination of
    # D's other columns and each presumed adversary's block columns; merging
    # two blocks whose coefficients differ keeps the column space (so the
    # system stays feasible) and gives an earlier scenario, so all
    # coefficients of one adversary are equal, g_b lies in the span of D's
    # other columns and the adversaries' code columns, and no scenario of the
    # set pins b.  So no later scenario of the set pins a coordinate the
    # first one leaves unset.
    @pytest.mark.parametrize("p", [3, 5, 101])
    @pytest.mark.parametrize("cell", [(6, 3, 1, 2), (6, 4, 1, 3), (6, 4, 2, 2)])
    def test_first_feasible_scenario_pins_every_later_pin(self, cell, p):
        N, K, beta, v = cell
        cfg = SystemConfig(N=N, K=K, beta=beta, v=v, p=p)
        ctx = FieldContext(p)
        partial = 0
        for seed in range(40):
            rng = random.Random(f"{cell}{p}{seed}")
            kind = ("random", "repeated_column", "zero_column")[seed % 3]
            rows = [[rng.randrange(p) for _ in range(K - 1)] + [rng.randrange(1, p)]
                    for _ in range(N)]
            for row in rows:
                if kind != "random":
                    row[1] = row[0] if kind == "repeated_column" else 0
            gm = GeneratorMatrix(FieldMatrix(ctx, rows), "random")
            nodes = tuple(sorted(rng.sample(range(N), rng.randrange(2, N + 1))))
            tr = Transcript(nodes, tuple(rng.randrange(p) for _ in nodes))
            first: dict = {}
            for sol in decode(gm, nodes, tr, cfg, mode="strict").feasible:
                pinned = set(sol.honest_values) - sol.unpinned
                A_hat = sol.scenario.adversaries
                first.setdefault(A_hat, pinned)
                assert pinned <= first[A_hat]
                partial += pinned != first[A_hat]
        assert partial > 0  # later scenarios that pin less do occur


class TestLabeledReferenceEquivalence:
    @pytest.mark.parametrize("seed", range(10))
    def test_unlabeled_matches_labeled(self, seed):
        # The unlabeled sweep must reach exactly the same presumed-honest
        # value sets as the labeled v^t reference.
        rng = random.Random(seed)
        K = rng.choice([2, 3])
        v = rng.choice([2, 3])
        N = rng.randrange(K + 1, 8)
        t = rng.randrange(K, min(6, N) + 1)
        cfg = SystemConfig(N=N, K=K, beta=1, v=v, p=P)
        gm = draw_mds(CTX, "random", N, K, seed=rng.randrange(1 << 30))
        behavior = behavior_random_adversarial(
            cfg,
            [rng.randrange(P) for _ in range(K)],
            (rng.randrange(K),),
            seed=rng.randrange(1 << 30),
        )
        nodes = tuple(sorted(rng.sample(range(N), t)))
        tr = encode_transcript(gm, behavior, nodes)
        res = decode(gm, nodes, tr, cfg, mode="strict")
        assert strict_result_projections(res) == labeled_feasible_projections(
            gm, nodes, tr, cfg
        )


class TestVerifyAgainstTruth:
    def test_all_correct(self):
        cfg, gm, behavior, nodes, tr = _random_instance(11)
        res = decode(gm, nodes, tr, cfg)
        report = verify_against_truth(res, behavior)
        assert report.failures == () and report.ok

    def test_missing_honest_estimate_flagged(self):
        cfg, gm, behavior, nodes, tr = _random_instance(12)
        res = decode(gm, nodes, tr, cfg)
        crippled = type(res)(
            estimates=tuple(None for _ in res.estimates),
            feasible_count=res.feasible_count,
        )
        report = verify_against_truth(crippled, behavior)
        assert set(report.failures) == set(behavior.honest_sources)

    def test_adversarial_estimate_never_judged(self):
        cfg, gm, behavior, nodes, tr = _random_instance(13)
        res = decode(gm, nodes, tr, cfg)
        adv = next(iter(behavior.adversary_set))
        wrong = list(res.estimates)
        wrong[adv] = 12345 if wrong[adv] != 12345 else 54321
        tweaked = type(res)(estimates=tuple(wrong), feasible_count=res.feasible_count)
        assert verify_against_truth(tweaked, behavior).ok
