import random

import pytest

from distcode import (
    BadDimensions,
    BadParameter,
    FieldContext,
    NodeOutOfRange,
    NonPrimeModulus,
    SourceBehavior,
    SystemConfig,
    TooManyAdversaries,
    Transcript,
    behavior_honest,
    behavior_random_adversarial,
    encode_transcript,
    gen_random_linear,
    gen_systematic,
    solve,
)

from oracles import matvec

P = 2**31 - 1
CTX = FieldContext(P)


class TestSystemConfig:
    @pytest.mark.parametrize(
        "cell,expected",
        [
            ((9, 3, 1, 2), 5),
            ((10, 4, 1, 2), 6),
            ((11, 3, 1, 3), 7),
            ((12, 4, 2, 2), 8),
            ((4, 3, 1, 2), 4),  # capped at N
            ((6, 3, 1, 1), 3),  # v=1 reduces to plain MDS recovery
        ],
    )
    def test_threshold(self, cell, expected):
        assert SystemConfig(*cell, p=P).t_star == expected

    def test_h(self):
        assert SystemConfig(12, 4, 2, 2, p=P).h == 2

    @pytest.mark.parametrize("bad", [(3, 3, 3, 2), (5, 3, 0, 2), (2, 3, 1, 2), (5, 3, 1, 0)])
    def test_invalid_configs(self, bad):
        with pytest.raises(ValueError):
            SystemConfig(*bad, p=P)

    @pytest.mark.parametrize(
        "bad", [(12.0, 4, 2, 2), (12, 4.0, 2, 2), (12, 4, True, 2), (12, 4, 2, "2")]
    )
    def test_non_integer_dimensions_rejected(self, bad):
        with pytest.raises(BadDimensions):
            SystemConfig(*bad, p=P)

    @pytest.mark.parametrize("p", [65537.9, True, "65537"])
    def test_non_integer_modulus_rejected(self, p):
        with pytest.raises(BadParameter):
            SystemConfig(12, 4, 2, 2, p=p)

    def test_non_prime_modulus_rejected(self):
        with pytest.raises(NonPrimeModulus, match="p=4 is not prime"):
            SystemConfig(5, 3, 1, 2, p=4)

    def test_modulus_beyond_exact_primality_rejected(self):
        # A composite that Miller-Rabin with bases up to 41 calls prime.
        with pytest.raises(BadParameter, match="3317044064679887385961981"):
            SystemConfig(12, 4, 2, 2, p=3317044064679887385961981)


class TestBehaviors:
    CFG = SystemConfig(N=5, K=3, beta=1, v=2, p=P)

    def test_honest_rows_constant(self):
        b = behavior_honest(self.CFG, [7, 8, 9])
        assert b.rows == ((7,) * 5, (8,) * 5, (9,) * 5)
        assert b.adversary_set == frozenset()

    def test_honest_encode_identity_code(self):
        gm = gen_systematic(FieldContext(P), 3, 3, seed=0)
        cfg = SystemConfig(N=3, K=3, beta=1, v=2, p=P)
        tr = encode_transcript(gm, behavior_honest(cfg, [7, 8, 9]), (0, 1, 2))
        assert tr.values == (7, 8, 9)

    def test_honest_encode_then_solve_any_k_subset(self):
        # Any K encoders of an MDS code pin the messages uniquely.
        gm = gen_random_linear(CTX, 6, 3, seed=3)
        cfg = SystemConfig(N=6, K=3, beta=1, v=2, p=P)
        msgs = [7, 8, 9]
        tr = encode_transcript(gm, behavior_honest(cfg, msgs), (1, 3, 5))
        sub = gm.matrix.submatrix((1, 3, 5), range(3))
        out = solve(sub, list(tr.values))
        assert out.consistent
        assert out.particular == (7, 8, 9)
        assert out.pinned_coordinates == frozenset({0, 1, 2})

    def test_v1_adversary_forced_constant(self):
        cfg = SystemConfig(N=5, K=3, beta=1, v=1, p=P)
        b = behavior_random_adversarial(cfg, [1, 2, 3], {0}, seed=0)
        assert len(set(b.rows[0])) == 1

    def test_adversarial_row_capped(self):
        b = behavior_random_adversarial(self.CFG, [1, 2, 3], {1}, seed=5)
        assert len(set(b.rows[1])) <= 2
        assert b.rows[0] == (1,) * 5 and b.rows[2] == (3,) * 5

    def test_distinct_value_cap_over_many_seeds(self):
        cfg = SystemConfig(N=7, K=4, beta=2, v=3, p=P)
        for seed in range(10_000):
            b = behavior_random_adversarial(cfg, [0, 1, 2, 3], {0, 2}, seed=seed)
            assert len(set(b.rows[0])) <= 3
            assert len(set(b.rows[2])) <= 3

    def test_too_many_adversaries(self):
        with pytest.raises(TooManyAdversaries):
            behavior_random_adversarial(self.CFG, [1, 2, 3], {0, 1}, seed=0)

    def test_honest_row_constancy_enforced(self):
        with pytest.raises(ValueError):
            SourceBehavior(self.CFG, ((1, 1, 1, 1, 2), (2,) * 5, (3,) * 5), frozenset())

    @pytest.mark.parametrize("bad", [1.7, True])
    def test_non_integer_value_rejected(self, bad):
        # A float would be truncated to the integer below it.
        with pytest.raises(BadParameter, match="source rows"):
            behavior_honest(self.CFG, [bad, 2, 3])
        with pytest.raises(BadParameter, match="source rows"):
            behavior_random_adversarial(self.CFG, [1, bad, 3], {0}, seed=0)
        with pytest.raises(BadParameter, match="source rows"):
            SourceBehavior(self.CFG, ((1,) * 5, (2,) * 4 + (bad,), (3,) * 5), frozenset({1}))
        # A float index matches no source, so every source would count as honest.
        with pytest.raises(BadParameter, match="adversary_set"):
            SourceBehavior(self.CFG, ((1,) * 5, (2,) * 5, (3,) * 5), frozenset({bad}))

    def test_json_roundtrip(self):
        b = behavior_random_adversarial(self.CFG, [1, 2, 3], {2}, seed=9)
        back = SourceBehavior.from_json(self.CFG, b.to_json())
        assert back == b

    @pytest.mark.parametrize("field", ["rows", "adversary_set"])
    def test_json_non_integer_entry_rejected(self, field):
        doc = behavior_random_adversarial(self.CFG, [1, 2, 3], {2}, seed=9).to_json()
        if field == "rows":
            doc["rows"][0][0] = 1.5
        else:
            doc["adversary_set"] = [2.0]
        with pytest.raises(ValueError, match=field):
            SourceBehavior.from_json(self.CFG, doc)


class TestEncodeTranscript:
    def test_full_honest_equals_matvec(self):
        gm = gen_random_linear(CTX, 5, 3, seed=1)
        cfg = SystemConfig(N=5, K=3, beta=1, v=2, p=P)
        msgs = [11, 22, 33]
        tr = encode_transcript(gm, behavior_honest(cfg, msgs), range(5))
        assert tr.values == matvec(gm.matrix.to_rows(), msgs, P)

    def test_zero_messages(self):
        gm = gen_random_linear(CTX, 5, 3, seed=1)
        cfg = SystemConfig(N=5, K=3, beta=1, v=2, p=P)
        tr = encode_transcript(gm, behavior_honest(cfg, [0, 0, 0]), range(5))
        assert tr.values == (0,) * 5

    def test_equivocation_routing(self):
        # First source sends one value to encoders 0,1 and another to 2,3,4;
        # each coded symbol must use the locally received value.
        gm = gen_random_linear(CTX, 5, 3, seed=6)
        cfg = SystemConfig(N=5, K=3, beta=1, v=2, p=P)
        x1, x1_alt, x2, x3 = 100, 200, 300, 400
        rows = ((x1_alt, x1_alt, x1, x1, x1), (x2,) * 5, (x3,) * 5)
        b = SourceBehavior(cfg, rows, frozenset({0}))
        tr = encode_transcript(gm, b, range(5))
        g = gm.matrix
        for n in range(5):
            lead = x1_alt if n < 2 else x1
            want = (g[n, 0] * lead + g[n, 1] * x2 + g[n, 2] * x3) % P
            assert tr.values[n] == want

    @pytest.mark.parametrize("p", [P, 2**61 - 1], ids=["p2^31-1", "p2^61-1"])
    def test_matches_the_per_node_loop(self, p):
        # Against sum_k G[n,k] * rows[k][n] on Python ints, on unordered and
        # empty node subsets; p = 2^61-1 encodes on object arrays.
        cfg = SystemConfig(N=7, K=4, beta=2, v=3, p=p)
        gm = gen_random_linear(FieldContext(p), 7, 4, seed=3)
        rng = random.Random(p)
        msgs = [rng.randrange(p) for _ in range(4)]
        b = behavior_random_adversarial(cfg, msgs, {1, 3}, seed=4)
        G = gm.matrix.to_rows()
        for nodes in ((6, 0, 3, 2), tuple(range(7)), ()):
            want = tuple(sum(G[n][k] * b.rows[k][n] for k in range(4)) % p for n in nodes)
            assert encode_transcript(gm, b, nodes).values == want

    def test_node_out_of_range(self):
        gm = gen_random_linear(CTX, 5, 3, seed=1)
        cfg = SystemConfig(N=5, K=3, beta=1, v=2, p=P)
        b = behavior_honest(cfg, [1, 2, 3])
        with pytest.raises(NodeOutOfRange):
            encode_transcript(gm, b, (0, 5))
        with pytest.raises(NodeOutOfRange):
            encode_transcript(gm, b, (1, 1))

    @pytest.mark.parametrize("bad", [0.5, True])
    def test_non_integer_node_rejected(self, bad):
        # A float node would be truncated and encoded at the node below it.
        gm = gen_random_linear(CTX, 5, 3, seed=1)
        cfg = SystemConfig(N=5, K=3, beta=1, v=2, p=P)
        with pytest.raises(BadParameter, match="nodes"):
            encode_transcript(gm, behavior_honest(cfg, [1, 2, 3]), (bad, 2, 3))

    @pytest.mark.parametrize("seed", range(5))
    def test_linearity_in_per_encoder_symbols(self, seed):
        # Encoding is linear in the full sent-symbol grid.  A cap of v = N
        # keeps the pointwise sum a valid behavior.
        rng = random.Random(seed)
        cfg = SystemConfig(N=5, K=3, beta=2, v=5, p=P)
        gm = gen_random_linear(CTX, 5, 3, seed=seed)

        def rand_behavior():
            rows = []
            for k in range(3):
                if k < 2:
                    rows.append(tuple(rng.randrange(P) for _ in range(5)))
                else:
                    rows.append((rng.randrange(P),) * 5)
            return SourceBehavior(cfg, tuple(rows), frozenset({0, 1}))

        b1, b2 = rand_behavior(), rand_behavior()
        sum_rows = tuple(
            tuple((a + b) % P for a, b in zip(r1, r2))
            for r1, r2 in zip(b1.rows, b2.rows)
        )
        bsum = SourceBehavior(cfg, sum_rows, frozenset({0, 1}))
        t1 = encode_transcript(gm, b1, range(5)).values
        t2 = encode_transcript(gm, b2, range(5)).values
        ts = encode_transcript(gm, bsum, range(5)).values
        assert ts == tuple((a + b) % P for a, b in zip(t1, t2))


class TestTranscript:
    def test_validation(self):
        with pytest.raises(ValueError):
            Transcript((0, 1), (5,))
        with pytest.raises(ValueError):
            Transcript((0, 0), (5, 6))

    @pytest.mark.parametrize("bad", [1.5, True])
    @pytest.mark.parametrize("field", ["node_set", "values"])
    def test_non_integer_entry_rejected(self, field, bad):
        args = {"node_set": [0, 1, 2, 3], "values": [2, 2, 3, 4]}
        args[field][0] = bad
        with pytest.raises(BadParameter, match=field):
            Transcript(tuple(args["node_set"]), tuple(args["values"]))

    def test_json_roundtrip(self):
        tr = Transcript((2, 4, 6), (10, 20, 30))
        assert Transcript.from_json(tr.to_json()) == tr
