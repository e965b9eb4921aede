import dataclasses
import random

import pytest

from distcode import (
    BudgetExceeded,
    PresumedScenario,
    SystemConfig,
    TranscriptMismatch,
    behavior_honest,
    behavior_random_adversarial,
    decode,
    draw_mds,
    encode_transcript,
    enumerate_partitions,
    field_new,
    verify_against_truth,
)
from distcode import decoding

from oracles import (
    all_set_partitions,
    labeled_feasible_projections,
    stirling2,
    strict_result_projections,
)

P = 2**31 - 1
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


def _random_instance(seed, N=9, K=3, beta=1, v=2, t=None, adversarial=True):
    rng = random.Random(seed)
    cfg = SystemConfig(N=N, K=K, beta=beta, v=v, p=P)
    gm = draw_mds(CTX, "random", N, K, seed=rng.randrange(1 << 30))
    if adversarial:
        adv = tuple(sorted(rng.sample(range(K), beta)))
        behavior = behavior_random_adversarial(
            cfg, [rng.randrange(P) for _ in range(K)], adv, seed=rng.randrange(1 << 30)
        )
    else:
        behavior = behavior_honest(cfg, [rng.randrange(P) for _ in range(K)])
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

    @pytest.mark.parametrize("mode", ["fast", "strict"])
    def test_residual_guard_rejects_a_wrong_solution(self, mode, monkeypatch):
        def corrupted(rows, nvars, p):
            out = read_reduced(rows, nvars, p)
            bad = ((out.particular[0] + 1) % p,) + out.particular[1:]
            return dataclasses.replace(out, particular=bad)

        read_reduced = decoding._read_reduced
        monkeypatch.setattr(decoding, "_read_reduced", corrupted)
        cfg, gm, behavior, nodes, tr = _random_instance(11)
        with pytest.raises(RuntimeError, match="does not satisfy"):
            decode(gm, nodes, tr, cfg, mode=mode)

    def test_fast_and_strict_agree_on_estimates(self):
        for seed in range(5):
            cfg, gm, behavior, nodes, tr = _random_instance(300 + seed)
            fast = decode(gm, nodes, tr, cfg, mode="fast")
            strict = decode(gm, nodes, tr, cfg, mode="strict")
            assert fast.estimates == strict.estimates
            assert fast.feasible_count == strict.feasible_count


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
