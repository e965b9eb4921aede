import random

import numpy as np
import pytest

from distcode import (
    AttackConstructionFailed,
    BadDimensions,
    BadParameter,
    DimensionMismatch,
    FieldContext,
    FieldMatrix,
    GeneratorMatrix,
    PreconditionViolated,
    SelectionImpossible,
    SystemConfig,
    converse_attack,
    decode,
    diff_basis,
    draw_mds,
    encode_transcript,
    field_new,
    gen_reed_solomon,
    partition_full_rank,
    rank,
    solve,
    verify_against_truth,
    verify_attack,
)
from distcode import attacks
from distcode import field as fieldmod
from distcode.attacks import _full_rank_blocks, _greedy_blocks, _independent_rows
import dataclasses

from oracles import rank_naive

P = 2**31 - 1
CTX = field_new(P)

# The converse cells of the attack digests.  At (6,3,2,2), t*-1 = 5 rows
# cannot make 3 groups of rank 2, so no code there has a plan.
KINDS = ("random", "systematic", "reed_solomon")
DIGEST_CELLS = (
    (9, 3, 1, 2), (12, 6, 1, 2), (12, 4, 2, 2), (10, 3, 2, 2), (11, 3, 1, 3),
    (8, 4, 2, 1), (6, 3, 2, 2),
)


def instantiate_difference(basis, pair, a, b, p):
    """Evaluate the claimed combination numerically: sum of coeff * (a_i - b_j)."""
    coeffs = basis.coefficients(*pair)
    total = 0
    for coeff, (bi, bj) in zip(coeffs, basis.pairs):
        total = (total + coeff * (a[bi] - b[bj])) % p
    return total


class TestDifferenceBasis:
    def test_v1_trivial(self):
        basis = diff_basis(1)
        assert basis.pairs == ((0, 0),)
        assert basis.coefficients(0, 0) == (1,)

    def test_basis_size(self):
        for v in range(1, 7):
            assert len(diff_basis(v).pairs) == 2 * v - 1

    def test_v2_worked_identity(self):
        # The last difference equals chain minus diagonal plus cross term:
        # a_1 - b_1 = (a_1 - b_0) - (a_0 - b_0) + (a_0 - b_1), 0-based.
        rng = random.Random(0)
        for _ in range(100):
            a = [rng.randrange(P) for _ in range(2)]
            b = [rng.randrange(P) for _ in range(2)]
            lhs = (a[1] - b[1]) % P
            rhs = ((a[1] - b[0]) - (a[0] - b[0]) + (a[0] - b[1])) % P
            assert lhs == rhs

    def test_v3_backward_pair(self):
        # (i, j) = (2, 0): diagonal sum minus the off-diagonal chain.
        basis = diff_basis(3)
        coeffs = dict(zip(basis.pairs, basis.coefficients(2, 0)))
        assert coeffs == {
            (0, 0): 1,
            (1, 1): 1,
            (2, 2): 1,
            (0, 1): -1,
            (1, 2): -1,
        }
        rng = random.Random(1)
        for _ in range(100):
            a = [rng.randrange(P) for _ in range(3)]
            b = [rng.randrange(P) for _ in range(3)]
            assert instantiate_difference(basis, (2, 0), a, b, P) == (a[2] - b[0]) % P

    @pytest.mark.parametrize("v", [2.0, True, "2", None, 0])
    def test_v_not_a_positive_integer_rejected(self, v):
        with pytest.raises(BadDimensions):
            diff_basis(v)

    @pytest.mark.parametrize("v", range(1, 7))
    def test_all_pairs_all_v(self, v):
        basis = diff_basis(v)
        rng = random.Random(v)
        for i in range(v):
            for j in range(v):
                coeffs = basis.coefficients(i, j)
                assert all(c in (-1, 0, 1) for c in coeffs)
                for _ in range(20):
                    a = [rng.randrange(P) for _ in range(v)]
                    b = [rng.randrange(P) for _ in range(v)]
                    got = instantiate_difference(basis, (i, j), a, b, P)
                    assert got == (a[i] - b[j]) % P


def random_partition_input(seed, h, beta, v, planted_zeros=0):
    """Random matrix satisfying the three partition preconditions."""
    rng = random.Random(seed)
    t = h + 2 * beta * v - beta - 1
    while True:
        rows = [[rng.randrange(P) for _ in range(beta)] for _ in range(t)]
        for i in rng.sample(range(t), planted_zeros):
            rows[i] = [0] * beta
        E = FieldMatrix(CTX, rows)
        try:
            partition_full_rank(E, h, beta, v)  # also validates
        except PreconditionViolated:
            continue
        return E


class TestPartitionFullRank:
    def test_beta1_shape_and_nonzero_blocks(self):
        # h=2, beta=1, v=2: a 4x1 input with at most one zero splits into
        # blocks of sizes (2, 1, 1), each containing a nonzero entry.
        E = FieldMatrix(CTX, [[5], [0], [7], [9]])
        blocks = partition_full_rank(E, 2, 1, 2)
        assert tuple(len(b) for b in blocks) == (2, 1, 1)
        assert sorted(x for b in blocks for x in b) == [0, 1, 2, 3]
        for blk in blocks:
            assert any(E[i, 0] != 0 for i in blk)

    @pytest.mark.parametrize("seed", range(10))
    def test_random_beta2_blocks_full_rank(self, seed):
        E = random_partition_input(seed, h=2, beta=2, v=2)
        blocks = partition_full_rank(E, 2, 2, 2)
        assert tuple(len(b) for b in blocks) == (3, 2, 2)
        for blk in blocks:
            assert rank(E.submatrix(blk, range(2))) == 2

    def test_too_many_zero_rows_rejected(self):
        rows = [[1], [0], [0], [3]]  # h = 2 allows at most one zero row
        with pytest.raises(PreconditionViolated) as err:
            partition_full_rank(FieldMatrix(CTX, rows), 2, 1, 2)
        assert err.value.property_index == 2

    def test_rank_deficient_rejected(self):
        rows = [[1, 2], [2, 4], [3, 6], [4, 8], [5, 10], [6, 12], [7, 14]]
        with pytest.raises(PreconditionViolated) as err:
            partition_full_rank(FieldMatrix(CTX, rows), 2, 2, 2)
        assert err.value.property_index in (1, 3)

    def test_wrong_shape(self):
        with pytest.raises(DimensionMismatch):
            partition_full_rank(FieldMatrix(CTX, [[1], [2]]), 2, 1, 2)

    def test_window_submatrix_precondition(self):
        # Four mutually dependent rows violate the any-(h+beta)-rows rule.
        rows = [[1, 1], [2, 2], [3, 3], [4, 4], [1, 0], [0, 1], [5, 6]]
        with pytest.raises(PreconditionViolated) as err:
            partition_full_rank(FieldMatrix(CTX, rows), 2, 2, 2)
        assert err.value.property_index == 3


class TestIndependentRows:
    @staticmethod
    def _greedy(rows, idxs, p):
        """Each row of ``idxs`` that raises the rank of the ones picked so far."""
        picked = []
        for i in idxs:
            if rank_naive([rows[j] for j in picked + [i]], p) == len(picked) + 1:
                picked.append(i)
        return picked

    @pytest.mark.parametrize("p", [5, P, 2**61 - 1])
    @pytest.mark.parametrize("shape", ["random", "deficient", "zero_rows", "repeated_rows"])
    def test_matches_a_greedy_rank_loop(self, p, shape):
        rng = random.Random(f"{p} {shape}")
        ctx = FieldContext(p)
        for _ in range(25):
            n, cols = rng.randrange(1, 9), rng.randrange(1, 5)
            if shape == "deficient":  # combinations of fewer than cols rows
                span = [[rng.randrange(p) for _ in range(cols)] for _ in range(cols - 1)]
                rows = [
                    [sum(rng.randrange(p) * b[c] for b in span) % p for c in range(cols)]
                    for _ in range(n)
                ]
            else:
                rows = [[rng.randrange(p) for _ in range(cols)] for _ in range(n)]
            if shape == "zero_rows":
                for i in rng.sample(range(n), rng.randrange(n + 1)):
                    rows[i] = [0] * cols
            if shape == "repeated_rows":
                rows = [rows[rng.randrange(n)] for _ in range(n)]
            idxs = rng.sample(range(n), rng.randrange(n + 1))
            if shape == "repeated_rows" and idxs:
                idxs.insert(rng.randrange(len(idxs) + 1), rng.choice(idxs))
            E = np.array(rows, dtype=ctx.dtype).reshape(n, cols)
            assert _independent_rows(ctx, E, idxs) == self._greedy(rows, idxs, p)

    @pytest.mark.parametrize("seed", range(4))
    def test_attack_makes_one_elimination_per_group(self, seed, monkeypatch):
        # (12,4,2,2): t*-1 = 7 rows in m = 3 groups.  One elimination per
        # window picks each of the two groups of 2, one finds the leftover's
        # rank (2, so no exchange), and one solves for the nullspace.  The
        # code keeps that plan, so an attack with another seed makes none.
        cfg = SystemConfig(N=12, K=4, beta=2, v=2, p=P)
        gm = draw_mds(CTX, "random", 12, 4, seed=seed)
        calls = []

        def counting(batch, p, ncols):
            calls.append(batch.shape)
            return eliminate(batch, p, ncols)

        eliminate = fieldmod._batch_eliminate
        monkeypatch.setattr(fieldmod, "_batch_eliminate", counting)
        monkeypatch.setattr(attacks, "_batch_eliminate", counting)
        atk = converse_attack(gm, cfg, seed=seed)
        assert tuple(map(len, atk.groups)) == (3, 2, 2)
        assert calls[:3] == [(1, 4, 2), (1, 4, 2), (1, 3, 2)]
        assert len(calls) == 4
        again = converse_attack(gm, cfg, seed=seed + 100)
        assert len(calls) == 4
        assert (again.node_set, again.groups) == (atk.node_set, atk.groups)
        assert again.setup1 != atk.setup1


def engineered_repair_input(seed, h, beta, v):
    """Input whose greedy leftover is rank deficient, forcing the exchange.

    The last h+beta-1 rows are nonzero multiples of one direction; the
    greedy pass (which always works on the first h+beta remaining rows)
    never consumes them, so they all land in the leftover block.
    """
    rng = random.Random(seed)
    t = h + 2 * beta * v - beta - 1
    tail = h + beta - 1
    for _ in range(100):  # a greedy pass that never leaves the tail must fail, not hang
        rows = [[rng.randrange(1, P) for _ in range(beta)] for _ in range(t - tail)]
        direction = [rng.randrange(1, P) for _ in range(beta)]
        for _ in range(tail):
            c = rng.randrange(1, P)
            rows.append([c * x % P for x in direction])
        E = FieldMatrix(CTX, rows)
        a = np.array(E.to_rows(), dtype=np.int64)
        res = _greedy_blocks(CTX, a, h, beta, 2 * v - 1)
        if res is None:
            continue
        leftover, _ = res
        if sorted(leftover) != list(range(t - tail, t)):
            continue  # greedy must leave exactly the parallel tail
        return E
    raise AssertionError(f"no engineered repair input for seed {seed}")


class TestExchangeRepair:
    @pytest.mark.parametrize(
        "seed,h,beta,v",
        [(1, 2, 2, 2), (2, 2, 2, 2), (3, 2, 2, 2), (4, 3, 2, 3), (5, 3, 2, 3), (6, 3, 2, 3)],
    )
    def test_repair_path_triggers_and_succeeds(self, seed, h, beta, v):
        E = engineered_repair_input(seed, h, beta, v)
        t = E.rows
        tail = list(range(t - (h + beta - 1), t))
        # Pre-repair the leftover is the parallel tail: rank beta-1.
        assert rank(E.submatrix(tail, range(beta))) == beta - 1
        blocks = partition_full_rank(E, h, beta, v)
        assert set(blocks[0]) != set(tail)  # a row was exchanged out
        for blk in blocks:
            assert rank(E.submatrix(blk, range(beta))) == beta


class TestFullRankBlocksFailure:
    def test_rank_below_beta_stalls_the_greedy_pass(self):
        # Every row is a multiple of (1, 2): no group of beta = 2 rows exists.
        E = np.array([[1, 2], [2, 4], [0, 0], [3, 6], [5, 10]], dtype=np.int64)
        assert _greedy_blocks(CTX, E, 1, 2, 2) is None
        assert _full_rank_blocks(CTX, E, 1, 2, 2) is None

    def test_an_exchange_round_without_gain_gives_up(self):
        # The greedy pass takes rows 0 and 1 as the group and leaves rows 2
        # and 3, both (1, 0), at rank 1.  Row 3 is the only candidate r_star.
        # Swapped for (1, 0) it keeps the leftover at rank 1; swapped for
        # (0, 1) it leaves the group at rank 1.  No candidate gains.
        E = np.array([[1, 0], [0, 1], [1, 0], [1, 0]], dtype=np.int64)
        assert _greedy_blocks(CTX, E, 0, 2, 2) == ([2, 3], [[0, 1]])
        assert _full_rank_blocks(CTX, E, 0, 2, 2) is None


class TestConverseAttack:
    def test_canonical_cell(self):
        cfg = SystemConfig(N=9, K=3, beta=1, v=2, p=P)
        gm = draw_mds(CTX, "random", 9, 3, seed=1)
        atk = converse_attack(gm, cfg, seed=0)
        assert len(atk.node_set) == 4  # t* - 1
        assert verify_attack(gm, atk)
        t1 = encode_transcript(gm, atk.setup1, atk.node_set)
        t2 = encode_transcript(gm, atk.setup2, atk.node_set)
        assert t1.values == t2.values
        assert any(d != 0 for _, d in atk.delta)

    def test_mismatched_config_rejected(self):
        gm = draw_mds(CTX, "random", 9, 3, seed=1)
        with pytest.raises(BadParameter, match="disagree"):
            converse_attack(gm, SystemConfig(N=10, K=3, beta=1, v=2, p=P), seed=0)

    def test_strict_decode_reports_honest_ambiguity(self):
        cfg = SystemConfig(N=9, K=3, beta=1, v=2, p=P)
        gm = draw_mds(CTX, "random", 9, 3, seed=2)
        atk = converse_attack(gm, cfg, seed=3)
        tr = encode_transcript(gm, atk.setup1, atk.node_set)
        res = decode(gm, atk.node_set, tr, cfg, mode="strict")
        honest = set(atk.setup1.honest_sources)
        hit = honest & set(res.ambiguous_coordinates)
        assert hit
        # The witness pair for an ambiguous honest coordinate re-encodes to
        # the observed transcript while disagreeing on that coordinate.
        k = min(hit)
        sol_a, sol_b = res.witnesses[k]
        assert encode_transcript(gm, sol_a.to_behavior(cfg), atk.node_set).values == tr.values
        assert encode_transcript(gm, sol_b.to_behavior(cfg), atk.node_set).values == tr.values
        assert sol_a.honest_values.get(k) != sol_b.honest_values.get(k) or (
            k in sol_a.unpinned or k in sol_b.unpinned
        )

    @pytest.mark.parametrize("kind", ["random", "systematic", "reed_solomon"])
    @pytest.mark.parametrize(
        "cell", [(9, 3, 1, 2), (10, 4, 1, 2), (11, 3, 1, 3), (9, 3, 2, 2), (12, 6, 1, 2)]
    )
    def test_every_witness_pair_splits_its_coordinate(self, cell, kind):
        # The attack's own encoder set gives witnesses from two scenarios
        # that pin different values; dropping encoders leaves underdetermined
        # scenarios, whose witnesses step along a nullspace vector.
        N, K, beta, v = cell
        cfg = SystemConfig(N=N, K=K, beta=beta, v=v, p=P)
        gm = draw_mds(CTX, kind, N, K, seed=11)
        atk = converse_attack(gm, cfg, seed=5)
        paths = set()
        for drop in range(4):
            nodes = atk.node_set[: len(atk.node_set) - drop]
            tr = encode_transcript(gm, atk.setup1, nodes)
            res = decode(gm, nodes, tr, cfg, mode="strict")
            assert res.ambiguous_coordinates
            assert set(res.witnesses) == set(res.ambiguous_coordinates)
            for k in res.ambiguous_coordinates:
                sol_a, sol_b = res.witnesses[k]
                assert sol_a.honest_values[k] != sol_b.honest_values[k]
                for sol in (sol_a, sol_b):
                    again = encode_transcript(gm, sol.to_behavior(cfg), nodes)
                    assert again.values == tr.values
                paths.add(k in sol_a.unpinned)
        assert paths == {False, True}

    def test_sharpness_one_more_encoder(self):
        # Extending the attacked set to t* encoders removes the ambiguity.
        cfg = SystemConfig(N=9, K=3, beta=1, v=2, p=P)
        gm = draw_mds(CTX, "random", 9, 3, seed=4)
        atk = converse_attack(gm, cfg, seed=5)
        extra = next(n for n in range(9) if n not in atk.node_set)
        nodes = atk.node_set + (extra,)
        tr = encode_transcript(gm, atk.setup1, nodes)
        res = decode(gm, nodes, tr, cfg, mode="strict")
        honest = set(atk.setup1.honest_sources)
        assert not honest & set(res.ambiguous_coordinates)
        assert verify_against_truth(res, atk.setup1).ok

    def test_v1_degenerates_to_undersampling(self):
        cfg = SystemConfig(N=6, K=3, beta=1, v=1, p=P)
        gm = draw_mds(CTX, "random", 6, 3, seed=6)
        atk = converse_attack(gm, cfg, seed=7)
        assert len(atk.node_set) == 2  # K - 1
        # Both setups are constant per source: two plain message vectors.
        for rows in (atk.setup1.rows, atk.setup2.rows):
            assert all(len(set(r)) == 1 for r in rows)
        assert verify_attack(gm, atk)

    def test_beta2_group_sizes(self):
        cfg = SystemConfig(N=12, K=4, beta=2, v=2, p=P)
        assert cfg.t_star == 8
        gm = draw_mds(CTX, "random", 12, 4, seed=8)
        atk = converse_attack(gm, cfg, seed=9)
        assert len(atk.node_set) == 7
        assert tuple(map(len, atk.groups)) == (3, 2, 2)
        assert verify_attack(gm, atk)

    def test_reed_solomon_also_attacked_below_threshold(self):
        cfg = SystemConfig(N=9, K=3, beta=1, v=2, p=P)
        gm = gen_reed_solomon(CTX, 9, 3, seed=10)
        atk = converse_attack(gm, cfg, seed=11)
        assert verify_attack(gm, atk)
        tr = encode_transcript(gm, atk.setup1, atk.node_set)
        res = decode(gm, atk.node_set, tr, cfg, mode="strict")
        assert set(atk.setup1.honest_sources) & set(res.ambiguous_coordinates)

    def test_second_regime_systematic(self):
        cfg = SystemConfig(N=4, K=3, beta=1, v=2, p=P)
        assert cfg.t_star == 4
        gm = draw_mds(CTX, "systematic", 4, 3, seed=12)
        atk = converse_attack(gm, cfg, seed=13)
        assert len(atk.node_set) == 3
        assert verify_attack(gm, atk)
        tr = encode_transcript(gm, atk.setup1, atk.node_set)
        res = decode(gm, atk.node_set, tr, cfg, mode="strict")
        assert set(atk.setup1.honest_sources) & set(res.ambiguous_coordinates)

    def test_adversary_rows_respect_version_cap(self):
        cfg = SystemConfig(N=11, K=3, beta=1, v=3, p=P)
        gm = draw_mds(CTX, "random", 11, 3, seed=14)
        atk = converse_attack(gm, cfg, seed=15)
        for k in atk.adversaries:
            assert len(set(atk.setup1.rows[k])) <= 3
            assert len(set(atk.setup2.rows[k])) <= 3
        assert verify_attack(gm, atk)


def digest_code(kind, N, K, seed):
    """The code of the attack digests' document ``kind`` ``seed`` at (N, K)."""
    return draw_mds(CTX, kind, N, K, seed=100 * seed + N)


class TestPlanMemo:
    @pytest.mark.parametrize(
        "kind, cell",
        [("random", (12, 4, 2, 2)), ("systematic", (10, 4, 1, 3)), ("reed_solomon", (12, 6, 1, 2))],
    )
    def test_memoized_attacks_equal_those_on_a_fresh_code(self, kind, cell):
        N, K, beta, v = cell
        cfg = SystemConfig(N=N, K=K, beta=beta, v=v, p=P)
        gm = draw_mds(CTX, kind, N, K, seed=7)
        for seed in range(6):
            fresh = GeneratorMatrix.from_json(gm.to_json())
            assert fresh == gm and not fresh._memo
            atk = converse_attack(gm, cfg, seed=seed)
            assert ("attack", beta, v) in gm._memo
            assert atk == converse_attack(fresh, cfg, seed=seed)
            assert verify_attack(gm, atk)

    def test_plans_are_kept_per_beta_and_v(self):
        gm = draw_mds(CTX, "random", 12, 4, seed=3)
        cells = [(1, 2), (2, 2), (1, 3)]
        for beta, v in cells * 2:
            cfg = SystemConfig(N=12, K=4, beta=beta, v=v, p=P)
            fresh = GeneratorMatrix.from_json(gm.to_json())
            assert converse_attack(gm, cfg, seed=5) == converse_attack(fresh, cfg, seed=5)
        assert sorted(gm._memo) == sorted(("attack", beta, v) for beta, v in cells)

    @pytest.mark.parametrize(
        "rows, beta, split",
        [
            # Every column vanishes on three of five rows (see test_codes), so
            # no selection exists.
            ([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0]], 1,
             "4 encoders into 3 groups of rank 1"),
            # Any 4x3 code: t*-1 = 3 rows cannot make 2 groups of rank 2.
            ([[1, 1, 0], [1, 1, 1], [2, 2, 1], [3, 3, 1]], 2,
             "3 encoders into 2 groups of rank 2"),
        ],
        ids=["no_selection", "no_split"],
    )
    def test_a_code_without_a_plan_raises_on_every_call(self, rows, beta, split):
        # The one exit names the split that failed; the failure is not memoized.
        gm = GeneratorMatrix(FieldMatrix(CTX, rows), "random")
        cfg = SystemConfig(len(rows), 3, beta, 2, p=P)
        for seed in (0, 0, 1):
            with pytest.raises(SelectionImpossible, match=split):
                converse_attack(gm, cfg, seed=seed)
        assert not gm._memo

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_6_3_code_splits_at_beta_2(self, kind):
        # t*-1 = 5 rows cannot make 3 groups of rank 2, whatever the code.
        cfg = SystemConfig(6, 3, 2, 2, p=P)
        for seed in range(8):
            gm = digest_code(kind, 6, 3, seed)
            with pytest.raises(SelectionImpossible, match="5 encoders into 3 groups of rank 2"):
                converse_attack(gm, cfg, seed=seed)
            assert not gm._memo


class TestPlanNullspace:
    # The plan takes the first nullspace basis vector of its group system B.
    # B's group columns are block-diagonal with rank-beta blocks, so they
    # have full column rank, and no nonzero nullspace vector leaves every
    # honest message fixed.
    @staticmethod
    def _check_plan(gm, beta, v):
        """Rebuild B from ``gm``'s plan, check the fact on it, and return
        False when ``gm`` has no plan."""
        try:
            T, A, blocks, Hs, vec = attacks._attack_plan(gm, beta, v)
        except SelectionImpossible:
            return False
        p, a, m = gm.ctx.p, gm.matrix._a, len(blocks)
        B = [[0] * (m * beta) + [int(a[n, k]) for k in Hs] for n in T]
        for g, blk in enumerate(blocks):
            for i in blk:
                B[i][g * beta : (g + 1) * beta] = [int(a[T[i], k]) for k in A]
        assert rank_naive([row[: m * beta] for row in B], p) == m * beta
        basis = solve(FieldMatrix(gm.ctx, B), [0] * len(T)).nullspace_basis
        assert basis and tuple(vec) == tuple(basis[0])
        for bv in basis:
            assert all(sum(x * y for x, y in zip(row, bv)) % p == 0 for row in B)
            assert any(bv[m * beta :])
        return True

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("cell", DIGEST_CELLS[:-1])
    def test_every_basis_vector_moves_an_honest_message_on_mds_codes(self, cell, kind):
        N, K, beta, v = cell
        for seed in range(8):
            assert self._check_plan(digest_code(kind, N, K, seed), beta, v)

    @pytest.mark.parametrize("p", [5, 7])
    @pytest.mark.parametrize("cell", [(7, 3, 1, 2), (8, 4, 1, 2), (9, 3, 2, 2), (8, 3, 1, 3)])
    def test_every_basis_vector_moves_an_honest_message_on_random_codes(self, cell, p):
        N, K, beta, v = cell
        ctx = FieldContext(p)
        planned = 0
        for seed in range(20):
            rng = random.Random(f"plan nullspace {cell} {p} {seed}")
            rows = []
            while len(rows) < N:  # a code has no zero row
                row = [rng.randrange(p) for _ in range(K)]
                rows += [row] * any(row)
            gm = GeneratorMatrix(FieldMatrix(ctx, rows), "random")
            planned += self._check_plan(gm, beta, v)
        assert planned > 0


class TestVerifyAttack:
    def _attack(self):
        cfg = SystemConfig(N=9, K=3, beta=1, v=2, p=P)
        gm = draw_mds(CTX, "random", 9, 3, seed=20)
        return cfg, gm, converse_attack(gm, cfg, seed=21)

    def test_constructed_attack_verifies(self):
        cfg, gm, atk = self._attack()
        assert verify_attack(gm, atk)

    def test_perturbed_setup_fails(self):
        cfg, gm, atk = self._attack()
        k = atk.setup2.honest_sources[0]
        rows = [list(r) for r in atk.setup2.rows]
        rows[k] = [(x + 1) % P for x in rows[k]]
        tampered = dataclasses.replace(
            atk,
            setup2=type(atk.setup2)(cfg, tuple(tuple(r) for r in rows), atk.setup2.adversary_set),
        )
        assert not verify_attack(gm, tampered)

    def test_version_cap_violation_fails(self):
        cfg, gm, atk = self._attack()
        loose = SystemConfig(N=9, K=3, beta=1, v=4, p=P)
        k = next(iter(atk.setup1.adversary_set))
        rows = [list(r) for r in atk.setup1.rows]
        free = [n for n in range(9) if n not in atk.node_set]
        rows[k][free[0]] = 111
        rows[k][free[1]] = 222  # now more than v=2 distinct values
        overloaded = type(atk.setup1)(loose, tuple(tuple(r) for r in rows), frozenset({k}))
        tampered = dataclasses.replace(atk, setup1=overloaded)
        assert not verify_attack(gm, tampered, cfg=cfg)

    def test_bug_type_error_propagates(self):
        cfg, gm, atk = self._attack()
        broken = dataclasses.replace(atk, node_set=None)
        with pytest.raises(TypeError):
            verify_attack(gm, broken)

    def test_zero_delta_rejected_at_construction(self):
        cfg, gm, atk = self._attack()
        with pytest.raises(AttackConstructionFailed):
            dataclasses.replace(atk, delta=tuple((k, 0) for k, _ in atk.delta))
