import dataclasses
import functools
import itertools
import math
import random

import numpy as np
import pytest

from distcode import (
    BadDimensions,
    BadParameter,
    BudgetExceeded,
    FieldContext,
    FieldMatrix,
    GeneratorMatrix,
    NodeOutOfRange,
    PresumedScenario,
    SourceBehavior,
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
    restricted_growth_strings,
    stirling2,
    strict_record,
    strict_result_projections,
    witness_events,
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
    def test_label_table_matches_the_oracle(self, v):
        # The decoder's table grows level by level in numpy; its rows must be
        # the restricted-growth strings with at most v blocks, in
        # lexicographic order.
        for t in range(1, 11):
            got = decoding._partition_labels(t, v)
            assert got.dtype == np.int64 and not got.flags.writeable
            assert got.tolist() == list(restricted_growth_strings(t, v))

    def test_partitions_follow_the_label_table(self):
        items = (3, 1, 4, 5, 9)
        want = [
            tuple(tuple(x for x, b in zip(items, row) if b == k) for k in range(max(row) + 1))
            for row in restricted_growth_strings(len(items), 3)
        ]
        assert list(enumerate_partitions(items, 3)) == want
        assert list(enumerate_partitions(items, 10**30)) == list(enumerate_partitions(items, 5))

    @pytest.mark.parametrize("v", [2.0, True, "2", None, 0])
    def test_v_not_a_positive_integer_rejected(self, v):
        with pytest.raises(BadDimensions):
            next(enumerate_partitions((1, 2, 3), v))


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

    @pytest.mark.parametrize(
        "budget", ["x", None, True, 2.5, 0, -1], ids=["str", "none", "bool", "float", "0", "-1"]
    )
    def test_budget_not_a_positive_integer_rejected(self, budget):
        cfg, gm, behavior, nodes, tr = _random_instance(7)
        with pytest.raises(BadParameter, match="budget"):
            decode(gm, nodes, tr, cfg, budget=budget)

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
        def corrupted(*args):
            red, cols, parts = read_flagged(*args)
            bad = red.particular.copy()
            bad[:, h] = (bad[:, h] + 1) % p
            return dataclasses.replace(red, particular=bad), cols, parts

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
            t, K = Gsub.shape
            return np.zeros((0, t), dtype=Gsub.dtype), np.zeros((K, t), dtype=Gsub.dtype)

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
            L, ell = decoding._parity_check(FieldMatrix(ctx, G)._a, p)
            L = L.tolist()
            for col in zip(*G):
                assert not any(matvec(L, col, p))
            rank_L = rank_naive(L, p) if L else 0
            assert rank_L == t - rank_naive(G, p)
            # [L; ell[k]] (or L, where ell[k] is zero) is a basis of the left
            # nullspace of G without column k.
            for k, row in enumerate(ell.tolist()):
                Lk = L + [row] if any(row) else L
                others = [[x for c, x in enumerate(r) if c != k] for r in G]
                for col in zip(*others):
                    assert not any(matvec(Lk, col, p))
                rank_Lk = rank_naive(Lk, p) if Lk else 0
                assert rank_Lk == len(Lk) == t - (rank_naive(others, p) if K > 1 else 0)


class TestParityMemo:
    # decode keeps the last node set's parity check on the code: a repeat of
    # that node set skips _parity_check and so makes one kernel call fewer,
    # and another node set replaces it.  Every result equals a fresh code's.
    @pytest.mark.parametrize("mode", ["fast", "strict"])
    def test_node_sets_a_a_b_a_match_a_fresh_code(self, mode, monkeypatch):
        cfg, gm, behavior, A, _ = _random_instance(21, t=4)
        B = tuple(n for n in range(cfg.N) if n not in A)[:4]
        calls, checks = [], []

        def counting(batch, p, ncols):
            calls.append(batch.shape)
            return eliminate(batch, p, ncols)

        def checking(Gsub, p):
            checks.append(Gsub.shape)
            return parity_check(Gsub, p)

        eliminate, parity_check = fieldmod._batch_eliminate, decoding._parity_check
        monkeypatch.setattr(fieldmod, "_batch_eliminate", counting)
        monkeypatch.setattr(decoding, "_batch_eliminate", counting)
        monkeypatch.setattr(decoding, "_parity_check", checking)
        made, checked, witnessed = [], [], False
        for nodes in (A, A, B, A):
            tr = encode_transcript(gm, behavior, nodes)
            n_calls, n_checks = len(calls), len(checks)
            res = decode(gm, nodes, tr, cfg, mode=mode)
            made.append(len(calls) - n_calls)
            checked.append(len(checks) - n_checks)
            assert gm._memo["parity"][0] == nodes
            want = decode(GeneratorMatrix.from_json(gm.to_json()), nodes, tr, cfg, mode=mode)
            assert res == want and res.to_json() == want.to_json()
            assert res.feasible == want.feasible
            witnessed |= bool(res.witnesses)
        assert checked == [1, 0, 1, 1]
        assert made[1] == made[0] - 1 and made[3] == made[0]
        assert witnessed == (mode == "strict")

    def test_the_kept_parity_check_is_read_only(self):
        cfg, gm, behavior, nodes, tr = _random_instance(22)
        decode(gm, nodes, tr, cfg)
        kept, (L, ell) = gm._memo["parity"]
        assert kept == nodes and L.shape == (len(nodes) - cfg.K, len(nodes))
        for arr in (L, ell):
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = 1


class TestFlaggedReader:
    # _read_flagged builds the full system [D | X_q | y] of each scenario it
    # is given by sweep index and eliminates them all in one kernel call.
    # Each system's particular solution, pinned set and nullspace basis must
    # equal naive Gauss-Jordan's on its full system, including when D is
    # rank-deficient (a zero or a repeated code column) and when one read
    # mixes several presumed-adversary sets.
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
            table = decoding._partition_labels(t, v)
            labels = table.tolist()
            total = len(labels) ** beta
            sets = list(itertools.combinations(range(K), beta))
            # y is a codeword, which every scenario reaches, or solves one
            # planted scenario, which low-rank scenarios may reach too.
            planted = (rng.choice(sets), rng.randrange(total))
            mat = G if trial % 2 else self._full_system(G, labels, *planted, v)
            y = matvec(mat, [rng.randrange(p) for _ in mat[0]], p)

            # Scenario combo of set i has sweep index i * total + combo.
            flagged, systems, infeasible = [], [], None
            for i, A_hat in enumerate(sets):
                combos = rng.sample(range(total), min(total, 6))
                if A_hat == planted[0] and planted[1] not in combos:
                    combos.append(planted[1])
                for combo in sorted(combos):
                    mat = self._full_system(G, labels, A_hat, combo, v)
                    want = gauss_jordan(mat, y, p)
                    if want[0]:
                        flagged.append(i * total + combo)
                        systems.append((A_hat, combo, want))
                    else:
                        infeasible = i * total + combo
            mixed += len({A_hat for A_hat, _, _ in systems}) > 1

            dtype = FieldContext(p).dtype
            Gsub = np.array(G, dtype=dtype)
            yv = np.array(y, dtype=dtype)
            orders = np.array([[k for k in range(K) if k not in A] + list(A) for A in sets])
            read = functools.partial(decoding._read_flagged, Gsub, yv, table, orders, beta, v, p)
            red, cols, parts = read(np.array(flagged, dtype=np.int64))
            assert len(red.particular) == len(cols) == len(parts) == len(systems)
            for s, (A_hat, combo, want) in enumerate(systems):
                _, particular, basis, pinned = want
                honest = [k for k in range(K) if k not in A_hat]
                digits = [combo // len(labels) ** (beta - 1 - j) % len(labels) for j in range(beta)]
                assert cols[s].tolist() == honest + list(A_hat)
                assert parts[s].tolist() == digits
                assert tuple(red.particular[s].tolist()) == particular
                assert frozenset(np.flatnonzero(red.pinned[s]).tolist()) == pinned
                assert tuple(map(tuple, red.nullspace(s).tolist())) == basis
            honest_free += int(red.free[:, :h].any(axis=1).sum())

            if infeasible is not None:  # the projection guard
                with pytest.raises(RuntimeError, match="disagree"):
                    read(np.array([infeasible], dtype=np.int64))
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


def _swept(pieces, total):
    """The feasible scenario indices a sweep yields, once each yield is
    checked: a nonempty ascending array, in scenario order after the one
    before, inside ``[0, total)``.  A sweep with no feasible scenario yields
    nothing."""
    pieces = list(pieces)
    for piece in pieces:
        assert len(piece)
    hits = np.concatenate([np.empty(0, dtype=np.int64)] + pieces)
    assert (np.diff(hits) > 0).all()  # ascending and unique across yields
    assert not len(hits) or (hits[0] >= 0 and hits[-1] < total)
    return hits.tolist()


class TestNestedSweep:
    # The nested sweep eliminates one presumed adversary per level; it must
    # yield exactly the indices of the scenarios whose flat projected system
    # [L X'_q | L y] is consistent, in scenario order.
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
        L, _ = decoding._parity_check(G, p)
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
                got = _swept(decoding._nested_flags(root, beta, n_parts, w, p), len(want))
                assert got == np.flatnonzero(want).tolist()

    # The last level of a v = 2 sweep pivots on L y once per parent and
    # reads each child's feasibility off the reduced columns; the children
    # yielded must be those whose own system [c_q | L y] is consistent.
    @staticmethod
    def _assert_pivot_read(parents, p):
        S, rows, width = parents.shape
        n = width - 1
        got = _swept(decoding._nested_flags(parents, 1, n, 1, p), S * n)
        want = [
            gauss_jordan(parents[s, :, q : q + 1].tolist(), parents[s, :, n].tolist(), p)[0]
            for s in range(S)
            for q in range(n)
        ]
        assert got == np.flatnonzero(want).tolist()

    @pytest.mark.parametrize("chunk", [None, 5])
    def test_pivot_read_on_every_gf3_pair(self, chunk, monkeypatch):
        # One parent per L y in GF(3)^3, each holding all 27 columns: all
        # 729 (column, L y) pairs.  The read does not depend on the chunk.
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
    # the pairs yielded must be those whose own system [c_a | c_b | L y] is
    # consistent.
    @staticmethod
    def _assert_pair_read(parents, p):
        S, rows, width = parents.shape
        n = (width - 1) // 2
        got = _swept(decoding._nested_flags(parents, 2, n, 1, p), S * n * n)
        mats = parents.tolist()
        want = [
            not rows  # no equation: every system is consistent
            or gauss_jordan([[r[a], r[n + b]] for r in mats[s]], [r[-1] for r in mats[s]], p)[0]
            for s in range(S)
            for a in range(n)
            for b in range(n)
        ]
        assert got == np.flatnonzero(want).tolist()
        return want

    @pytest.mark.parametrize("chunk", [None, 5])
    @pytest.mark.parametrize("p, dim", [(3, 3), (5, 2), (2, 4)])
    def test_pair_read_on_every_small_triple(self, p, dim, chunk, monkeypatch):
        # One parent per L y in GF(p)^dim, each holding every vector as c_a
        # and as c_b: all (c_a, c_b, L y) triples.  A chunk of 5 reads one
        # row of c_a's at a time.
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

    @staticmethod
    def _compared_rows(monkeypatch):
        """Record ``(parents, joined)`` of each exact join test: the parent of
        every row compared in full, and whether the row joins some b."""
        calls = []

        def recording(cols_a, on_a, off_b, on_b, r, s):
            out = joins(cols_a, on_a, off_b, on_b, r, s)
            calls.append((s.tolist(), out.any(axis=1).tolist()))
            return out

        joins = decoding._joins
        monkeypatch.setattr(decoding, "_joins", recording)
        return calls

    @pytest.mark.parametrize("p", [3, 5, 101, P, P61])
    def test_pair_read_rejects_key_matches_that_do_not_join(self, p, monkeypatch):
        # L y = z*e_0, so the pivot row is 0.  Off it, the scaled columns
        # (1, 0, 1) and (1, 2, 0) differ but their keys collide (1*2 + 1*8 =
        # 1*2 + 2*4); lam*u and mu*u are parallel, so their keys match but
        # their scaled entries on row 0 agree too.  Neither pair may join,
        # and only the exact test can tell: both rows reach it.  (x, v) and
        # (y, v) with x != y do join.
        rng = random.Random(p)

        def nonzero():
            return 1 + rng.randrange(p - 1)

        def scaled(col):
            lam = nonzero()
            return [lam * e % p for e in col]

        x = rng.randrange(p)
        y = (x + nonzero()) % p
        u = [rng.randrange(p), 1, nonzero(), rng.randrange(p)]
        v = [nonzero(), rng.randrange(p), nonzero()]
        a_cols = [scaled([x, 1, 0, 1]), scaled(u), scaled([x] + v)]
        b_cols = [scaled([y, 1, 2, 0]), scaled(u), scaled([y] + v)]
        ly = [nonzero(), 0, 0, 0]
        parents = np.array([a_cols + b_cols + [ly]], dtype=FieldContext(p).dtype).transpose(0, 2, 1)
        collide = np.array([[[0, 0], [1, 1], [0, 2], [1, 0]]], dtype=parents.dtype)
        keys = decoding._column_keys(collide)
        assert keys[0, 0] == keys[0, 1]
        calls = self._compared_rows(monkeypatch)
        want = self._assert_pair_read(parents, p)
        n = 3
        assert [want[a * n + a] for a in range(n)] == [False, False, True]
        assert [rows for rows, _ in calls] == [[0, 0, 0]]  # every a row compared

    @pytest.mark.parametrize("chunk", [1, 3, 7, 40, 200])
    @pytest.mark.parametrize("m, w", [(2, 1), (3, 1), (2, 2)])
    def test_yields_keep_the_index_contract(self, m, w, chunk, monkeypatch):
        # Random parents over GF(5), with some L y zero: dense hits.  With
        # n = 12 a child of an m = 3 parent is 26 columns wide (27 for m = 2,
        # w = 2), so chunks up to 40 stack one child and 200 stacks 7, across
        # parents; the 3-column children of a w = 2 last level go 1 to 66 to
        # a stack.  The pair read (m = 2, w = 1) takes one row at a time
        # below a chunk of 12, then 3 or 16.  Every chunk must yield the
        # same indices.
        rng = np.random.default_rng(m * 10 + w)
        S, rows, n, p = 4, 3, 12, 5
        parents = rng.integers(0, p, size=(S, rows, m * n * w + 1), dtype=np.int64)
        parents[::3, :, -1] = 0
        want = _swept(decoding._nested_flags(parents, m, n, w, p), S * n**m)
        monkeypatch.setattr(decoding, "_CHUNK", chunk)
        assert _swept(decoding._nested_flags(parents, m, n, w, p), S * n**m) == want
        assert 0 < len(want) < S * n**m

    @pytest.mark.parametrize("seed", range(4))
    def test_threshold_decode_compares_only_key_matched_rows(self, seed, monkeypatch):
        # (12,4,2,2) at t* = 8: 6 parents of 128 x 128 pairs.  For every
        # observed encoder m, one partition per adversary has a column
        # parallel to L e_m, so every parent has key matches that do not
        # join; they are compared in full, and no other rows are, apart from
        # those that join.  That is about t rows per parent, not 128.
        cfg, gm, behavior, nodes, tr = _random_instance(seed, N=12, K=4, beta=2, v=2)
        calls = self._compared_rows(monkeypatch)
        res = decode(gm, nodes, tr, cfg)
        assert verify_against_truth(res, behavior).ok
        compared = [(s, j) for ss, jj in calls for s, j in zip(ss, jj)]
        assert {s for s, joined in compared if not joined} == set(range(6))
        assert len(compared) <= 6 * (len(nodes) + 2)

    @pytest.mark.parametrize("mode", ["fast", "strict"])
    def test_threshold_decode_builds_no_child(self, mode, monkeypatch):
        # (12,4,2,2) at t* = 8: one parity check, one pivot on the stacked
        # 4 x 257 roots of all C(4,2) = 6 presumed-adversary sets (128
        # partitions each) and one elimination of the flagged scenarios' full
        # systems, 8 x (2 honest + 2 x 2 block columns + y).  No witness
        # event is read in strict mode, and an empty read makes no call.
        cfg, gm, behavior, nodes, tr = _random_instance(13, N=12, K=4, beta=2, v=2)
        shapes = []

        def counting(batch, p, ncols):
            shapes.append(batch.shape)
            return eliminate(batch, p, ncols)

        eliminate = fieldmod._batch_eliminate
        monkeypatch.setattr(fieldmod, "_batch_eliminate", counting)
        monkeypatch.setattr(decoding, "_batch_eliminate", counting)
        res = decode(gm, nodes, tr, cfg, mode=mode)
        assert verify_against_truth(res, behavior).ok
        assert len(shapes) == 3
        assert shapes[1] == (6, 4, 257)
        assert shapes[2][1:] == (8, 7)
        assert not res.witnesses

    @pytest.mark.parametrize("chunk", [7, 3, 100])
    @pytest.mark.parametrize(
        "cell, t",
        [((7, 4, 2, 2), 5), ((6, 3, 2, 2), 3), ((7, 4, 3, 2), 4), ((6, 3, 1, 3), 5)],
    )
    def test_outputs_do_not_depend_on_the_chunk_size(self, cell, t, chunk, monkeypatch):
        # Chunks of 7 and 3 stack one root and one or two children, so a
        # parent's children are split over many stacks.  A chunk of 100
        # stacks several sets' roots in one sweep (3 of width 33 on (7,4,2,2)
        # at t=5, all 4 of width 25 on (7,4,3,2) at t=4) and splits their
        # pair reads (6 first indices of 16 per slice).  It stacks the
        # 18-column children of (7,4,3,2) 5 at a time from parents of 8, and
        # the 3-column ones of (6,3,1,3) 33 at a time from parents of 41.  So
        # stacks and slices straddle parent and set boundaries.
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

    def test_children_are_stacked_by_their_width(self, monkeypatch):
        # (12,4,3,2) at t=8: 128 partitions, so the 4 roots, each 3*128 + 1 =
        # 385 columns wide, share one stack.  Their 512 children are 258
        # wide, 63 to a stack of at most 16,384 columns: 8 stacks of 63 that
        # cross parent boundaries, then 8.  Each goes to the pair read with
        # its eliminated column dropped.
        cfg, gm, _, nodes, tr = _random_instance(1, N=12, K=4, beta=3, v=2, t=8)
        shapes = []

        def recording(parents, m, p):
            shapes.append(parents.shape)
            return pivot_flags(parents, m, p)

        pivot_flags = decoding._pivot_flags
        monkeypatch.setattr(decoding, "_pivot_flags", recording)
        decode(gm, nodes, tr, cfg)
        assert [S for S, _, _ in shapes] == [63] * 8 + [8]
        assert {width for _, _, width in shapes} == {257}

    @pytest.mark.parametrize("chunk", [7, 100, None])
    @pytest.mark.parametrize(
        "cell, t",
        [((7, 4, 3, 2), 6), ((7, 4, 3, 3), 4), ((6, 3, 2, 3), 5), ((6, 3, 2, 1), 6)],
    )
    def test_sweep_stacks_fit_the_chunk_size(self, cell, t, chunk, monkeypatch):
        # Every stack the sweep hands a kernel or the pair read, in both
        # modes and in strict mode's witness sweep, holds one item or at most
        # _CHUNK columns: beta = 3, v = 3 and v = 1 (no block columns).
        if chunk:
            monkeypatch.setattr(decoding, "_CHUNK", chunk)
        sweeping, stacks = [], []

        def sweep(*args):
            sweeping.append(True)
            yield from sweep_(*args)
            sweeping.pop()

        def recorded(fn):
            def recording(stack, *args):
                if sweeping:
                    stacks.append(stack.shape)
                return fn(stack, *args)

            return recording

        sweep_ = decoding._sweep
        monkeypatch.setattr(decoding, "_sweep", sweep)
        for name in ("_batch_eliminate", "batch_feasible", "_pivot_flags"):
            monkeypatch.setattr(decoding, name, recorded(getattr(decoding, name)))
        N, K, beta, v = cell
        for seed in range(2):
            cfg, gm, _, nodes, tr = _random_instance(seed, N=N, K=K, beta=beta, v=v, t=t)
            for mode in ("fast", "strict"):
                decode(gm, nodes, tr, cfg, mode=mode)
        assert stacks
        assert all(S == 1 or S * width <= decoding._CHUNK for S, _, width in stacks)

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
    """Record the sweep indices of each ``_read_flagged`` call, and the
    systems of each full-width ``batch_feasible`` call (one over all
    ``h + beta*v`` unknowns)."""
    reads, full_width = [], []
    full_nvars = cfg.K - cfg.beta + cfg.beta * cfg.v

    def reading(*args):
        reads.append(args[-1].tolist())
        return read_flagged(*args)

    def deciding(aug, p, nvars):
        if nvars == full_nvars:
            full_width.append(len(aug))
        return batch_feasible(aug, p, nvars)

    read_flagged, batch_feasible = decoding._read_flagged, decoding.batch_feasible
    monkeypatch.setattr(decoding, "_read_flagged", reading)
    monkeypatch.setattr(decoding, "batch_feasible", deciding)
    return reads, full_width


def _checked_indices(cfg, t, cols, parts):
    """The sweep indices of the scenarios whose columns ``cols`` and
    partition indices ``parts`` an encoding check is given."""
    sets = list(itertools.combinations(range(cfg.K), cfg.beta))
    n_parts = decoding._partition_count(t, cfg.v)
    out = []
    for c, part in zip(cols.tolist(), parts.tolist()):
        q = 0
        for x in part:
            q = q * n_parts + x
        out.append(sets.index(tuple(c[cfg.K - cfg.beta :])) * n_parts**cfg.beta + q)
    return out


def _sweep_index(cfg, nodes, scenario):
    """The sweep index of ``scenario`` on ``nodes``: scenario q of the
    presumed-adversary set i is ``i * n_parts**beta + q``."""
    sets = list(itertools.combinations(range(cfg.K), cfg.beta))
    labels = decoding._partition_labels(len(nodes), cfg.v).tolist()
    q = 0
    for part in scenario.partitions:
        row = [next(b for b, block in enumerate(part) if n in block) for n in nodes]
        q = q * len(labels) + labels.index(row)
    return sets.index(scenario.adversaries) * len(labels) ** cfg.beta + q


class TestRebuilds:
    # Projected systems decide feasibility; only the scenarios decode records
    # are read, by eliminating their full systems, and their solutions
    # encoded for the check.  Fast mode reads at most the
    # first flagged scenario of each set; strict mode reads each set's first
    # two and the witness events among the rest, and every flagged scenario
    # when its feasible solutions are first read.
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
        per_set = decoding._partition_count(len(nodes), cfg.v) ** cfg.beta
        assert len(reads) == 1 and reads[0]
        sets = [f // per_set for f in reads[0]]
        assert len(set(sets)) == len(sets) <= math.comb(cfg.K, cfg.beta)
        assert not full_width
        assert res.feasible_count > 0

    @pytest.mark.parametrize("kind, cell", CASES)
    def test_strict_builds_each_flagged_system_once(self, kind, cell, monkeypatch):
        cfg, gm, nodes, tr = self._instance(kind, cell)
        checked = []  # the sweep index of each vector encoded

        def counting(Gsub, yv, labels, cols, parts, vecs, p):
            assert len(cols) == len(parts) == len(vecs)
            checked.extend(_checked_indices(cfg, len(nodes), cols, parts))
            return check_encodes(Gsub, yv, labels, cols, parts, vecs, p)

        check_encodes = decoding._check_encodes
        monkeypatch.setattr(decoding, "_check_encodes", counting)
        reads, _ = _count_reads(monkeypatch, cfg)
        res = decode(gm, nodes, tr, cfg, mode="strict")
        # decode reads each set's first two flagged scenarios and the witness
        # events among the rest, and encodes those and the witness alternates.
        decoded = list(reads)
        read = [f for flagged in decoded for f in flagged]
        alternates = sum(k in a.unpinned for k, (a, _) in res.witnesses.items())
        assert len(checked) == len(read) + alternates
        assert res.feasible_count >= len(read)
        # The first read of the solutions reads and encodes every flagged
        # scenario exactly once more.
        reads.clear()
        checked.clear()
        solutions = list(res.feasible)
        read = [f for flagged in reads for f in flagged]
        assert read == checked
        assert len(set(read)) == len(read) == res.feasible_count == len(solutions)
        self._assert_decode_reads(cfg, nodes, res, decoded, read)
        n_reads = len(reads)
        assert list(res.feasible) == solutions and len(reads) == n_reads

    @pytest.mark.parametrize("kind, want", [("random", 2), ("reed_solomon", 2), ("systematic", 3)])
    def test_warm_strict_converse_decode_kernel_calls(self, kind, want, monkeypatch):
        # On the (12,6,1,2) attack transcript the first read holds every
        # witness event: a warm strict decode makes the sweep's call and the
        # read's.  On a systematic code, proving that source 0 has no event
        # takes the witness sweep too.
        cfg = SystemConfig(N=12, K=6, beta=1, v=2, p=P)
        gm = draw_mds(CTX, kind, 12, 6, seed=1)
        atk = converse_attack(gm, cfg, seed=1)
        tr = encode_transcript(gm, atk.setup1, atk.node_set)
        cold = decode(gm, atk.node_set, tr, cfg, mode="strict")  # keeps the parity check
        calls = []

        def counting(batch, p, ncols):
            calls.append(batch.shape)
            return eliminate(batch, p, ncols)

        eliminate = fieldmod._batch_eliminate
        monkeypatch.setattr(fieldmod, "_batch_eliminate", counting)
        monkeypatch.setattr(decoding, "_batch_eliminate", counting)
        res = decode(gm, atk.node_set, tr, cfg, mode="strict")
        assert len(calls) == want
        assert res == cold and res.witnesses

    @pytest.mark.parametrize("kind, cell", CASES)
    def test_only_the_first_access_to_feasible_reads(self, kind, cell, monkeypatch):
        # repr, == and to_json of a strict result read no scenario beyond
        # decode's own; the first access to feasible reads and encodes every
        # flagged scenario once, in sweep order, and the second reads nothing.
        cfg, gm, nodes, tr = self._instance(kind, cell)
        checked = []

        def counting(Gsub, yv, labels, cols, parts, vecs, p):
            checked.extend(_checked_indices(cfg, len(nodes), cols, parts))
            return check_encodes(Gsub, yv, labels, cols, parts, vecs, p)

        check_encodes = decoding._check_encodes
        monkeypatch.setattr(decoding, "_check_encodes", counting)
        reads, _ = _count_reads(monkeypatch, cfg)
        res = decode(gm, nodes, tr, cfg, mode="strict")
        decoded = list(reads)
        again = decode(gm, nodes, tr, cfg, mode="strict")
        reads.clear()
        checked.clear()
        text, doc = repr(res), res.to_json()
        assert res == res and res == again
        assert not reads and not checked
        assert "feasible=" not in text and "feasible" not in doc
        solutions = res.feasible
        read = [f for flagged in reads for f in flagged]
        assert type(solutions) is tuple and len(solutions) == res.feasible_count
        assert read == checked == sorted(set(read)) and len(read) == res.feasible_count
        reads.clear()
        assert res.feasible is solutions and not reads and len(checked) == len(read)
        self._assert_decode_reads(cfg, nodes, res, decoded, read)

    @staticmethod
    def _assert_decode_reads(cfg, nodes, res, reads, flagged):
        """Strict ``decode``'s reads ``reads`` are its first read, exactly
        the first two of each set's ``flagged`` scenarios (the one, when a
        set has one), then one read of the witness events that the first
        did not hold, or none when it held them all."""
        per_set = decoding._partition_count(len(nodes), cfg.v) ** cfg.beta
        by_set: dict[int, list[int]] = {}
        for f in flagged:
            by_set.setdefault(f // per_set, []).append(f)
        assert reads[0] == [f for fs in by_set.values() for f in fs[:2]]
        events = {
            _sweep_index(cfg, nodes, (a if k in a.unpinned else b).scenario)
            for k, (a, b) in res.witnesses.items()
        }
        later = sorted(events - set(reads[0]))
        assert reads[1:] == ([later] if later else [])
        assert len(reads[0]) + len(later) <= 2 * math.comb(cfg.K, cfg.beta) + cfg.K


class TestStrictRecording:
    # Strict decode records estimates and witnesses from the scenarios it
    # reads and builds its feasible solutions only when they are read, at
    # most _CHUNK at a time.  oracles.strict_record replays the per-scenario
    # loop over those solutions.  A chunk of 3 splits every
    # presumed-adversary set's sweep and the reads of its solutions.
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

        def counting_check(Gsub, yv, labels, cols, parts, vecs, p):
            checked.append(len(vecs))
            return check_encodes(Gsub, yv, labels, cols, parts, vecs, p)

        check_encodes = decoding._check_encodes
        monkeypatch.setattr(decoding, "ScenarioSolution", Counting)
        monkeypatch.setattr(decoding, "_check_encodes", counting_check)
        reads, full_width = _count_reads(monkeypatch, cfg)
        res = decode(gm, nodes, tr, cfg, mode="strict")
        assert res.witnesses
        assert len(built) <= 2 * len(res.witnesses) < res.feasible_count
        # decode reads at most each set's first flagged scenario and each
        # coordinate's witness event, decides no full-width stack, and
        # encodes each read's solutions in one check and the witness
        # alternates in one more.
        read = [f for flagged in reads for f in flagged]
        assert len(read) <= math.comb(cfg.K, cfg.beta) + cfg.K < res.feasible_count
        alternates = sum(k in a.unpinned for k, (a, _) in res.witnesses.items())
        assert (alternates > 0) == (drop > 0)
        assert not full_width and len(checked) == len(reads) + (alternates > 0)
        assert sum(checked) == len(read) + alternates
        before, n_reads, n_checked = len(built), len(reads), len(checked)
        repr(res)
        assert (len(built), len(reads)) == (before, n_reads)  # a repr reads nothing
        # The first read reads and encodes every flagged scenario once, one
        # check per read, and builds its solutions.
        solutions = list(res.feasible)
        read = [f for flagged in reads[n_reads:] for f in flagged]
        assert len(read) == len(set(read)) == res.feasible_count == len(solutions)
        assert len(checked) - n_checked == len(reads) - n_reads
        assert sum(checked[n_checked:]) == res.feasible_count
        n_reads = len(reads)
        assert len(solutions) == len(built) - before
        assert list(res.feasible) == solutions and len(built) == before + len(solutions)
        assert len(reads) == n_reads  # a second read reads nothing

    def test_a_wrong_unread_solution_raises_on_first_read(self, monkeypatch):
        # A wrong solution in a scenario decode does not read passes decode,
        # and the first read of the feasible solutions raises.
        cfg = SystemConfig(N=12, K=6, beta=1, v=2, p=P)
        gm = draw_mds(CTX, "random", 12, 6, seed=1)
        atk = converse_attack(gm, cfg, seed=1)
        tr = encode_transcript(gm, atk.setup1, atk.node_set)
        in_decode, corrupt = set(), []

        def corrupted(*args):
            red, cols, parts = read_flagged(*args)
            keys = args[-1].tolist()
            if not corrupt:
                in_decode.update(keys)
                return red, cols, parts
            unread = [s for s, key in enumerate(keys) if key not in in_decode]
            bad = red.particular.copy()
            bad[unread, 0] = (bad[unread, 0] + 1) % P
            return dataclasses.replace(red, particular=bad), cols, parts

        read_flagged = decoding._read_flagged
        monkeypatch.setattr(decoding, "_read_flagged", corrupted)
        decode(gm, atk.node_set, tr, cfg, mode="strict")  # records what decode reads
        corrupt.append(True)
        res = decode(gm, atk.node_set, tr, cfg, mode="strict")
        assert res.witnesses and len(in_decode) < res.feasible_count
        with pytest.raises(RuntimeError, match="does not satisfy"):
            list(res.feasible)


@functools.cache
def _event_case(cell, kind, p, t, shifted):
    """A transcript of a random adversary on a code of ``kind``, or that
    transcript shifted off the code, and its oracle witness events."""
    N, K, beta, v = cell
    rng = random.Random(f"{cell}{kind}{p}{t}")
    rows = _code_rows(kind, N, K, p, seed=rng.randrange(1 << 30))
    cfg = SystemConfig(N=N, K=K, beta=beta, v=v, p=p)
    gm = GeneratorMatrix(FieldMatrix(FieldContext(p), rows), "random")
    nodes = tuple(sorted(rng.sample(range(N), t)))
    adv = sorted(rng.sample(range(K), beta))
    behavior = behavior_random_adversarial(
        cfg, [rng.randrange(p) for _ in range(K)], adv, seed=rng.randrange(1 << 30)
    )
    values = encode_transcript(gm, behavior, nodes).values
    if shifted:
        values = tuple((x + i) % p for i, x in enumerate(values))
    want = witness_events([rows[n] for n in nodes], nodes, values, K, beta, v, p)
    return cfg, gm, nodes, Transcript(nodes, values), want


class TestWitnessEvents:
    # Strict decode finds each coordinate's first witness event from each
    # set's first two flagged scenarios, which it reads, and two sweeps
    # projected by L_k (S2: k is unpinned; S1: k can take its first pinned
    # value).  The event and the witness order must match rank tests on the
    # full systems.  At p = 3 and 5, zero and repeated code columns make L_k
    # rank-deficient, and small t leaves it without rows; p = 2^61-1 runs on
    # object arrays.
    CELLS = [(6, 3, 1, 2), (5, 3, 1, 3), (5, 3, 2, 2)]
    KINDS = [("zero_column", 3), ("repeated_column", 3), ("zero_column", 5),
             ("repeated_column", 5), ("mds", P61)]

    @staticmethod
    def _event_places(cell, kind, p):
        """Decode every case of ``cell`` in strict mode, check its events
        against the oracle's, and yield each event's place in its set's
        flagged scenarios (0 for the first)."""
        N, K = cell[:2]
        for t in range(K - 1, N + 1):
            for shifted in (False, True):
                cfg, gm, nodes, tr, want = _event_case(cell, kind, p, t, shifted)
                res = decode(gm, nodes, tr, cfg, mode="strict")
                got = {}
                for k, (a, b) in res.witnesses.items():
                    event = a if k in a.unpinned else b
                    got[k] = (event.scenario.adversaries, event.scenario.partitions)
                assert list(got.items()) == list(want.items())
                flagged: dict = {}
                for sol in res.feasible:
                    flagged.setdefault(sol.scenario.adversaries, []).append(
                        sol.scenario.partitions
                    )
                for A_hat, parts in got.values():
                    yield flagged[A_hat].index(parts)

    @pytest.mark.parametrize("chunk", [None, 1, 3, 7])
    @pytest.mark.parametrize("kind, p", KINDS)
    @pytest.mark.parametrize("cell", CELLS)
    def test_events_match_rank_tests_on_full_systems(self, cell, kind, p, chunk, monkeypatch):
        if chunk is not None:
            monkeypatch.setattr(decoding, "_CHUNK", chunk)
        # Count the events after the first feasible scenario of their set,
        # which the first read's direct test does not see at a first.
        swept = sum(place > 0 for place in self._event_places(cell, kind, p))
        assert swept > 0

    def test_some_events_lie_past_the_read_ahead(self):
        # Strict decode reads each set's first two flagged scenarios; an
        # event past them is found only by the witness sweep.  Some cases
        # must have one, so that the sweep stays covered.
        past = sum(
            place > 1
            for cell in self.CELLS
            for kind, p in self.KINDS
            for place in self._event_places(cell, kind, p)
        )
        assert past > 0


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


class TestGuaranteedIsNotACertificate:
    # guaranteed is only t >= t*.  The theorem vouches for a random linear
    # code with high probability over the draw, not for every code: this
    # Reed-Solomon code at t* = 8 has two scenarios S1, S2 of the presumed
    # adversaries (1, 3) whose matrix [G_T | X'_S1 | X'_S2] is singular, so
    # two setups encode alike on T and differ on an honest source (ROADMAP
    # item 1).  X' holds g_a on block 0 of each partition (v = 2).
    def test_an_unsafe_pair_decodes_guaranteed_and_wrong(self):
        gm = draw_mds(CTX, "reed_solomon", 12, 4, seed=1)
        cfg = SystemConfig(12, 4, 2, 2, p=P)
        T, A = tuple(range(8)), (1, 3)
        assert cfg.t_star == len(T)
        labels = decoding._partition_labels(8, 2).tolist()
        S1, S2 = (43, 74), (60, 96)
        G = gm.matrix._a.tolist()
        X = [[G[n][a] * (labels[q][n] == 0) for n in T] for S in (S1, S2) for a, q in zip(A, S)]
        M = [G[n][:4] + [x[n] for x in X] for n in T]
        (z,) = fieldmod.solve(FieldMatrix(CTX, M), [0] * 8).nullspace_basis
        z = [int(x) for x in z]
        assert z[0] != 0

        def setup(base, S, shifts):  # the j-th adversary shifts block 0 of S
            rows = [[b] * cfg.N for b in base]
            for a, q, d in zip(A, S, shifts):
                for n in T:
                    if labels[q][n] == 0:
                        rows[a][n] = (base[a] + d) % P
            return SourceBehavior(cfg, tuple(map(tuple, rows)), frozenset(A))

        m = [11, 22, 33, 44]
        setup1 = setup(m, S1, z[4:6])
        setup2 = setup([(x - d) % P for x, d in zip(m, z[:4])], S2, [-d for d in z[6:8]])
        tr = encode_transcript(gm, setup1, T)
        assert tr.values == encode_transcript(gm, setup2, T).values
        fast, strict = decode(gm, T, tr, cfg), decode(gm, T, tr, cfg, mode="strict")
        assert fast.guaranteed and strict.guaranteed
        for res in (fast, strict):
            assert sorted(verify_against_truth(res, s).ok for s in (setup1, setup2)) == [False, True]
        assert strict.ambiguous_coordinates == {0, 2}
