import itertools
import logging
import pickle
import random
import re

import pytest

from distcode import (
    BadDimensions,
    BadParameter,
    DistcodeError,
    DuplicatePoints,
    ExperimentSpec,
    FieldContext,
    FieldMatrix,
    GeneratorMatrix,
    SelectionImpossible,
    SourceBehavior,
    TooManyAdversaries,
    Transcript,
    behavior_honest,
    behavior_random_adversarial,
    converse_attack,
    decode,
    diff_basis,
    draw_mds,
    emit_results,
    encode_transcript,
    enumerate_partitions,
    field_new,
    gen_random_linear,
    gen_reed_solomon,
    gen_systematic,
    is_mds,
    iter_converse_selections,
    rank,
    threshold,
)
from distcode.system import SystemConfig

from oracles import det_laplace

P = 2**31 - 1
CTX = field_new(P)
SMALL = FieldContext(101)


class TestRandomLinear:
    def test_deterministic_per_seed(self):
        a = gen_random_linear(CTX, 5, 3, seed=7)
        b = gen_random_linear(CTX, 5, 3, seed=7)
        c = gen_random_linear(CTX, 5, 3, seed=8)
        assert a.matrix.to_rows() == b.matrix.to_rows()
        assert a.matrix.to_rows() != c.matrix.to_rows()

    def test_bad_dimensions(self):
        with pytest.raises(BadDimensions):
            gen_random_linear(CTX, 2, 3, seed=0)

    def test_mds_over_many_seeds(self):
        # Failure odds per seed are about C(8,4)*4/p; 1000 draws all pass.
        for seed in range(1000):
            assert is_mds(gen_random_linear(CTX, 8, 4, seed=seed))

    def test_rows_never_zero(self):
        tiny = FieldContext(2)  # zero rows would be common without the redraw
        for seed in range(50):
            gm = gen_random_linear(tiny, 4, 2, seed=seed)
            assert all(any(x != 0 for x in gm.matrix.row(n)) for n in range(4))


class TestSystematic:
    def test_n_equals_k_is_identity(self):
        gm = gen_systematic(CTX, 3, 3, seed=0)
        assert gm.matrix.to_rows() == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_identity_pattern_row(self):
        gm = gen_systematic(CTX, 5, 3, seed=1)
        assert gm.matrix.row(1) == (0, 1, 0)

    def test_random_tail_rows_dense(self):
        # A uniform entry vanishes with probability 1/p, so the appended
        # rows have at least two nonzeros in every draw we make.
        for seed in range(200):
            gm = gen_systematic(CTX, 5, 3, seed=seed)
            for n in (3, 4):
                assert sum(1 for x in gm.matrix.row(n) if x != 0) >= 2

    def test_identity_roundtrip_encoding(self):
        gm = gen_systematic(CTX, 3, 3, seed=0)
        cfg = SystemConfig(N=3, K=3, beta=1, v=2, p=P)
        tr = encode_transcript(gm, behavior_honest(cfg, [7, 8, 9]), (0, 1, 2))
        assert tr.values == (7, 8, 9)


class TestReedSolomon:
    def test_explicit_points(self):
        gm = gen_reed_solomon(CTX, 3, 2, points=(1, 2, 3))
        assert gm.matrix.to_rows() == [[1, 1], [1, 2], [1, 3]]
        assert gm.rs_points == (1, 2, 3)

    def test_duplicate_points_rejected(self):
        with pytest.raises(DuplicatePoints):
            gen_reed_solomon(CTX, 3, 2, points=(1, 1, 3))

    @pytest.mark.parametrize(
        "kind, points, error, message",
        [
            # 1.5 would truncate to 1 and make a valid code.
            ("reed_solomon", (1.5, 2, 3), BadParameter, "points must hold only integers"),
            ("reed_solomon", (1, 2), BadDimensions, "3 in all, got 2"),
            ("reed_solomon", (1, 2, 3, 4), BadDimensions, "3 in all, got 4"),
            ("random", (1, 2, 3), BadParameter, "only apply to reed_solomon codes, not 'random'"),
            ("systematic", (1, 2, 3), BadParameter, "only apply to reed_solomon codes"),
        ],
    )
    def test_points_are_checked(self, kind, points, error, message):
        with pytest.raises(error, match=message):
            draw_mds(CTX, kind, 3, 2, seed=1, points=points)

    def test_default_points_distinct_and_seeded(self):
        a = gen_reed_solomon(CTX, 6, 3, seed=5)
        b = gen_reed_solomon(CTX, 6, 3, seed=5)
        assert a.rs_points == b.rs_points
        assert len(set(a.rs_points)) == 6

    def test_always_mds_exhaustive_small_sizes(self):
        # Vandermonde rows at distinct points: every instance with N <= 8.
        rng = random.Random(0)
        for N in range(1, 9):
            for K in range(1, N + 1):
                pts = rng.sample(range(P), N)
                assert is_mds(gen_reed_solomon(CTX, N, K, points=pts))
                assert is_mds(gen_reed_solomon(CTX, N, K, points=range(1, N + 1)))

    def test_small_field_mds(self):
        ctx = FieldContext(65537)
        for seed in range(20):
            assert is_mds(gen_reed_solomon(ctx, 7, 3, seed=seed))


class TestIsMds:
    def test_identity_square(self):
        gm = gen_systematic(CTX, 3, 3, seed=0)
        assert is_mds(gm)

    def test_repeated_row_fails(self):
        m = FieldMatrix(CTX, [[1, 2], [1, 2], [3, 4]])
        assert not is_mds(GeneratorMatrix(m, "random"))

    def test_systematic_with_tail_is_mds(self):
        # Identity rows plus generic tails keep every K x K minor nonsingular.
        gm = gen_systematic(CTX, 5, 3, seed=0)
        assert is_mds(gm)

    # The last case is past the int64-safe bound, so minors are taken on
    # object-dtype stacks.
    @pytest.mark.parametrize(
        "seed,p",
        [pytest.param(s, 101, id=str(s)) for s in range(5)]
        + [pytest.param(0, 2**61 - 1, id="p2^61-1")],
    )
    def test_matches_determinant_oracle(self, seed, p):
        rng = random.Random(seed)
        rows = [[rng.randrange(p) for _ in range(3)] for _ in range(6)]
        rows = [r if any(r) else [1, 0, 0] for r in rows]
        gm = GeneratorMatrix(FieldMatrix(FieldContext(p), rows), "random")
        want = all(
            det_laplace([rows[i] for i in combo], p) != 0
            for combo in itertools.combinations(range(6), 3)
        )
        assert is_mds(gm) == want


class TestDrawMds:
    def test_returns_mds_code(self):
        gm = draw_mds(CTX, "random", 9, 3, seed=0)
        assert is_mds(gm) and gm.kind == "random"

    def test_all_kinds(self):
        for kind in ("random", "systematic", "reed_solomon"):
            gm = draw_mds(CTX, kind, 5, 5, seed=0) if kind == "systematic" else draw_mds(
                CTX, kind, 6, 3, seed=0
            )
            assert is_mds(gm)

    def test_redraws_are_logged(self, caplog):
        # Over GF(7) the (4,2) random codes of seeds 0 and 1 are not MDS.
        with caplog.at_level(logging.WARNING, logger="distcode.codes"):
            gm = draw_mds(F7, "random", 4, 2, seed=0)
        assert gm == gen_random_linear(F7, 4, 2, seed=2) and is_mds(gm)
        assert caplog.messages == [
            "seed 0 produced a non-MDS random code, redrawing",
            "seed 1 produced a non-MDS random code, redrawing",
            "MDS draw needed 2 redraws (kind=random)",
        ]

    def test_gives_up_with_bad_parameter(self, caplog):
        # No [7,2] MDS code exists over GF(5): GF(5)^2 has only 6 directions,
        # so two of any 7 nonzero rows are proportional.
        with caplog.at_level(logging.WARNING, logger="distcode.codes"):
            with pytest.raises(BadParameter, match="^no MDS random code with N=7, K=2, p=5 in 16"):
                draw_mds(FieldContext(5), "random", 7, 2, seed=0)
        assert caplog.messages == [
            f"seed {s} produced a non-MDS random code, redrawing" for s in range(16)
        ]


class TestConverseSelection:
    def test_random_code_beta1(self):
        gm = gen_random_linear(CTX, 9, 3, seed=11)
        rows, cols = next(iter_converse_selections(gm, 1, 2))
        assert len(rows) == threshold(9, 3, 1, 2) - 1 == 4
        assert cols == (0,)
        # All entries nonzero, so the zero-row count on the column is 0.
        assert all(gm.matrix[n, 0] != 0 for n in rows)

    def test_systematic_boundary_case(self):
        gm = gen_systematic(CTX, 5, 3, seed=4)
        rows, cols = next(iter_converse_selections(gm, 1, 2))
        assert len(rows) == 4
        zero = [n for n in rows if all(gm.matrix[n, c] == 0 for c in cols)]
        univ = [n for n in rows if sum(x != 0 for x in gm.matrix.row(n)) == 1]
        assert len(zero) <= 1  # h - 1
        assert len(univ) <= 2  # K - 1

    def test_beta2_selection(self):
        gm = gen_random_linear(CTX, 12, 4, seed=5)
        rows, cols = next(iter_converse_selections(gm, 2, 2))
        assert len(rows) == threshold(12, 4, 2, 2) - 1 == 7
        assert len(cols) == 2

    def test_engineered_impossible(self):
        # Every column vanishes on three of five rows, so any four chosen
        # rows keep at least two zeros; also all rows are univariate.
        rows = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0], [0, 1, 0]]
        gm = GeneratorMatrix(FieldMatrix(CTX, rows), "random")
        assert list(iter_converse_selections(gm, 1, 2)) == []
        with pytest.raises(SelectionImpossible):
            converse_attack(gm, SystemConfig(5, 3, 1, 2, p=P), seed=0)

    def test_univariate_cap_binds(self):
        # Three rows read only source 0 and t*-1 = 6 rows are needed: the
        # third univariate row exceeds K-1 = 2, so the row ignoring source 0
        # (h-1 = 1 allowed) is taken in its place.
        rows = [[1, 0, 0], [2, 0, 0], [3, 0, 0], [0, 1, 1], [1, 1, 1], [1, 2, 4], [1, 3, 9]]
        gm = GeneratorMatrix(FieldMatrix(CTX, rows), "random")
        assert list(iter_converse_selections(gm, 1, 3)) == [((0, 1, 3, 4, 5, 6), (0,))]

    @pytest.mark.parametrize("kind", ["random", "systematic", "reed_solomon", "sparse"])
    @pytest.mark.parametrize(
        "N,K,beta,v", [(5, 3, 1, 2), (9, 3, 1, 2), (8, 4, 2, 2), (12, 4, 2, 2), (11, 5, 1, 3)]
    )
    def test_every_selection_respects_both_caps(self, kind, N, K, beta, v):
        # Systematic codes bring univariate rows and rows that vanish on the
        # chosen columns; "sparse" (not MDS) draws entries from GF(3), so
        # about a third of them are zero.
        if kind == "sparse":
            gm = gen_random_linear(FieldContext(3), N, K, seed=N + K)
        else:
            gm = draw_mds(CTX, kind, N, K, seed=N + K)
        rows = gm.matrix.to_rows()
        h = K - beta
        univ = {n for n, r in enumerate(rows) if sum(x != 0 for x in r) == 1}
        pairs = list(iter_converse_selections(gm, beta, v))
        assert pairs or kind == "sparse"
        for row_set, cols in pairs:
            assert len(row_set) == threshold(N, K, beta, v) - 1
            zero = [n for n in row_set if all(rows[n][c] == 0 for c in cols)]
            assert len(zero) <= h - 1
            assert len(univ & set(row_set)) <= K - 1


class TestSerialization:
    def test_roundtrip_random(self):
        gm = gen_random_linear(CTX, 6, 3, seed=9)
        doc = gm.to_json()
        back = GeneratorMatrix.from_json(doc)
        assert back.matrix == gm.matrix and back.kind == gm.kind

    def test_roundtrip_reed_solomon(self):
        gm = gen_reed_solomon(CTX, 5, 2, seed=10)
        back = GeneratorMatrix.from_json(gm.to_json())
        assert back.rs_points == gm.rs_points
        assert back.matrix == gm.matrix

    def test_json_fields(self):
        doc = gen_random_linear(CTX, 4, 2, seed=0).to_json()
        assert set(doc) == {"p", "N", "K", "kind", "rows"}
        assert doc["p"] == P and doc["N"] == 4 and doc["K"] == 2

    def test_vandermonde_invariant_enforced(self):
        gm = gen_reed_solomon(CTX, 3, 2, points=(1, 2, 3))
        doc = gm.to_json()
        doc["rows"][0][1] = 99  # no longer a power of the point
        with pytest.raises(ValueError):
            GeneratorMatrix.from_json(doc)


def _k_a_float():
    doc = gen_random_linear(CTX, 4, 2, seed=0).to_json()
    doc["K"] = 1.5
    return GeneratorMatrix.from_json(doc)


@pytest.mark.parametrize(
    "call",
    [
        lambda: GeneratorMatrix(FieldMatrix(FieldContext(7), [[1, 2], [0, 0], [3, 4]]), "random"),
        _k_a_float,
        lambda: list(enumerate_partitions((), 2)),
    ],
    ids=["zero-encoder-row", "json-K-a-float", "partition-empty-set"],
)
def test_library_checks_raise_distcode_errors(call):
    # Library callers can catch DistcodeError alone; ValueError still works.
    with pytest.raises(DistcodeError) as info:
        call()
    assert isinstance(info.value, ValueError)


F7 = FieldContext(7)
CFG = SystemConfig(N=4, K=2, beta=1, v=2, p=7)
ROWS = ((1, 1, 1, 1), (2, 2, 2, 2))


def _code(rows, kind="random", points=None):
    return GeneratorMatrix(FieldMatrix(F7, [list(r) for r in rows]), kind, points)


def _from_json(**changes):
    return GeneratorMatrix.from_json({**_code([[1, 0], [0, 1], [1, 1]]).to_json(), **changes})


def _behavior(rows=ROWS, adversaries=()):
    return SourceBehavior(CFG, rows, frozenset(adversaries))


# One row per check that no other test reaches: the call and the error it
# raises, type and message.
@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: _from_json(N=1, rows=[[1, 2]]), BadDimensions, "need N >= K >= 1, got N=1, K=2"),
        (lambda: _from_json(N=4), BadDimensions, "declared N/K disagree with the row grid"),
        (lambda: _code([[1, 1], [0, 1], [3, 4]], "systematic"), BadParameter,
         "systematic rows must form the identity pattern"),
        (lambda: _code([[1, 1], [1, 2], [1, 3]], "reed_solomon"), BadDimensions,
         "reed_solomon codes need one point per row"),
        (lambda: _code([[1, 1], [1, 1], [1, 3]], "reed_solomon", (1, 1, 3)), DuplicatePoints,
         "evaluation points must be distinct"),
        (lambda: _code([[1, 1], [1, 2], [1, 3]], "random", (1, 2, 3)), BadParameter,
         "rs_points only apply to reed_solomon codes"),
        (lambda: _code([[1, 1], [1, 2], [1, 3]], "bogus"), BadParameter,
         "unknown code kind 'bogus'"),
        (lambda: draw_mds(F7, "bogus", 3, 2, seed=1, points=(1, 2, 3)), BadParameter,
         "unknown code kind 'bogus'"),
        (lambda: gen_reed_solomon(F7, 8, 2, seed=1), BadDimensions,
         "cannot pick 8 distinct points in GF(7)"),
        (lambda: _behavior(adversaries=(0, 1)), TooManyAdversaries,
         "2 adversaries exceed beta=1"),
        (lambda: _behavior(adversaries=(2,)), BadParameter,
         "adversary indices must lie in [0, K)"),
        (lambda: _behavior(ROWS + ((3, 3, 3, 3),)), BadDimensions, "need 2 source rows, got 3"),
        (lambda: _behavior(((1, 1, 1), (2, 2, 2, 2))), BadDimensions,
         "source 0 row has length 3, need 4"),
        (lambda: _behavior(adversaries=(0,)).honest_message(0), BadParameter,
         "source 0 is adversarial"),
        (lambda: behavior_honest(CFG, [1]), BadDimensions, "need 2 messages, got 1"),
        (lambda: behavior_random_adversarial(CFG, [1, 2, 3], (0,), seed=1), BadDimensions,
         "need 2 messages, got 3"),
        (lambda: encode_transcript(_code([[1, 1], [1, 2], [1, 3]]), _behavior(), (0, 1)),
         BadDimensions, "generator and behavior disagree on system shape"),
        (lambda: diff_basis(2).coefficients(2, 0), BadParameter,
         "indices must lie in [0, 2)"),
        (lambda: list(iter_converse_selections(_code([[1, 0], [0, 1], [1, 1]]), 2, 2)),
         BadDimensions, "need 1 <= beta < K, got beta=2, K=2"),
        (lambda: ExperimentSpec(cells=((7, 3, 1, 2),), t_mode="bogus"), BadParameter,
         "unknown t_mode 'bogus'"),
        (lambda: ExperimentSpec(cells=((7, 3, 1, 2),), suite="bogus"), BadParameter,
         "unknown suite 'bogus'"),
        (lambda: emit_results([], "xml", "unused.xml"), BadParameter, "unknown format 'xml'"),
        # Each reader refuses a key it would otherwise drop without a word.
        (lambda: _from_json(kidn="systematic"), BadParameter, "unknown code keys: 'kidn'"),
        (lambda: Transcript.from_json({"node_set": [0], "values": [1], "node_sets": [0]}),
         BadParameter, "unknown transcript keys: 'node_sets'"),
        (lambda: SourceBehavior.from_json(CFG, {**_behavior().to_json(), "adversary_sets": []}),
         BadParameter, "unknown behavior keys: 'adversary_sets'"),
        # ... and a document without a key it needs.
        (lambda: GeneratorMatrix.from_json(
            {k: x for k, x in _from_json().to_json().items() if k != "kind"}),
         BadParameter, "missing code keys: 'kind'"),
        (lambda: GeneratorMatrix.from_json({"kind": "random"}), BadParameter,
         "missing code keys: 'p', 'N', 'K', 'rows'"),
        (lambda: Transcript.from_json({"node_set": [0]}), BadParameter,
         "missing transcript keys: 'values'"),
        (lambda: SourceBehavior.from_json(CFG, {"rows": [list(r) for r in ROWS]}),
         BadParameter, "missing behavior keys: 'adversary_set'"),
        (lambda: ExperimentSpec.from_json({"trials": 3}), BadParameter,
         "missing spec keys: 'cells'"),
        # Rows that are not a list.
        (lambda: _from_json(rows=5), BadParameter,
         "rows must be a list of integer lists, got 5"),
        (lambda: _from_json(rows=None), BadParameter,
         "rows must be a list of integer lists, got None"),
        (lambda: SourceBehavior.from_json(CFG, {"adversary_set": [], "rows": 5}),
         BadParameter, "rows must be a list of integer lists, got 5"),
        (lambda: SourceBehavior.from_json(CFG, {"adversary_set": [], "rows": None}),
         BadParameter, "rows must be a list of integer lists, got None"),
        # A FieldMatrix can be empty when it is a submatrix.
        (lambda: GeneratorMatrix(_code([[1, 0], [0, 1]]).matrix.submatrix([], []), "random"),
         BadDimensions, "need N >= K >= 1, got N=0, K=0"),
        # Integer lists that are not lists.
        (lambda: Transcript.from_json({"node_set": [0], "values": "1"}), BadParameter,
         "values must be a list of integers, got '1'"),
        (lambda: Transcript.from_json({"node_set": 0, "values": [1]}), BadParameter,
         "node_set must be a list of integers, got 0"),
        (lambda: SourceBehavior.from_json(CFG, {**_behavior().to_json(), "adversary_set": 0}),
         BadParameter, "adversary_set must be a list of integers, got 0"),
        (lambda: _from_json(kind="reed_solomon", rs_points={"0": 1}), BadParameter,
         "rs_points must be a list of integers, got {'0': 1}"),
        # Generators asked for more sources than encoders, or for none.
        (lambda: gen_systematic(F7, 2, 3, seed=1), BadDimensions,
         "need N >= K >= 1, got N=2, K=3"),
        (lambda: gen_systematic(F7, 3, 0, seed=1), BadDimensions,
         "need N >= K >= 1, got N=3, K=0"),
        (lambda: gen_reed_solomon(F7, 2, 3, seed=1), BadDimensions,
         "need N >= K >= 1, got N=2, K=3"),
        (lambda: gen_reed_solomon(F7, 3, 0, points=(1, 2, 3)), BadDimensions,
         "need N >= K >= 1, got N=3, K=0"),
    ],
    ids=[
        "json-n-below-k", "json-declared-n", "systematic-not-identity", "rs-without-points",
        "rs-duplicate-points", "rs-points-on-random", "unknown-kind", "draw-unknown-kind",
        "rs-n-above-p",
        "too-many-adversaries", "adversary-out-of-range", "row-count", "row-length",
        "honest-message-of-adversary", "honest-message-count", "random-message-count",
        "encode-shape-mismatch", "coefficients-out-of-range", "converse-beta-not-below-k",
        "unknown-t-mode", "unknown-suite", "unknown-format", "json-code-key-unknown",
        "json-transcript-key-unknown", "json-behavior-key-unknown", "json-code-key-missing",
        "json-code-keys-missing", "json-transcript-key-missing", "json-behavior-key-missing",
        "json-spec-key-missing", "json-code-rows-an-int", "json-code-rows-null",
        "json-behavior-rows-an-int", "json-behavior-rows-null", "code-from-empty-submatrix",
        "json-values-a-string", "json-node-set-an-int", "json-adversary-set-an-int",
        "json-rs-points-a-dict", "systematic-k-above-n", "systematic-k-zero",
        "rs-k-above-n", "rs-k-zero",
    ],
)
def test_unreached_checks_raise_their_error(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("kind", ["random", "reed_solomon"])
def test_the_memo_is_invisible(kind):
    # An attack and a decode fill the code's memo; equality, hash, repr,
    # JSON and pickles stay as they were, and a pickled copy starts empty.
    cfg = SystemConfig(N=9, K=3, beta=1, v=2, p=CTX.p)
    gm = draw_mds(CTX, kind, 9, 3, seed=4)
    before = (hash(gm), repr(gm), gm.to_json(), pickle.dumps(gm))
    atk = converse_attack(gm, cfg, seed=1)
    decode(gm, atk.node_set, encode_transcript(gm, atk.setup1, atk.node_set), cfg)
    assert sorted(gm._memo, key=str) == [("attack", 1, 2), "parity"]
    fresh = GeneratorMatrix.from_json(gm.to_json())
    assert gm == fresh and fresh == gm
    assert (hash(gm), repr(gm), gm.to_json(), pickle.dumps(gm)) == before
    copy = pickle.loads(pickle.dumps(gm))
    assert copy == gm and hash(copy) == hash(gm) and not copy._memo
    assert len(gm._memo) == 2


def test_mds_implies_every_k_submatrix_nonsingular():
    gm = draw_mds(CTX, "random", 7, 3, seed=1)
    for combo in itertools.combinations(range(7), 3):
        assert rank(gm.matrix.submatrix(combo, range(3))) == 3
