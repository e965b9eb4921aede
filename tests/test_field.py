import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distcode import (
    DEFAULT_PRIME,
    BadParameter,
    DimensionMismatch,
    FieldContext,
    FieldMatrix,
    ModulusTooSmall,
    NonPrimeModulus,
    field_new,
    is_prime,
    rank,
    solve,
)
from distcode.field import (
    _batch_eliminate,
    _batch_inverse,
    _read_reduced,
    batch_feasible,
    batch_rank,
)

from oracles import det_laplace, gauss_jordan, matvec, rank_naive, vandermonde_det

P = DEFAULT_PRIME
CTX = FieldContext(P)
SMALL = FieldContext(101)  # tests may build small fields directly


def rand_matrix(ctx, rng, rows, cols):
    return FieldMatrix(ctx, [[rng.randrange(ctx.p) for _ in range(cols)] for _ in range(rows)])


class TestContext:
    def test_default_prime_accepted(self):
        assert field_new(2**31 - 1).p == 2**31 - 1

    def test_even_modulus_rejected(self):
        with pytest.raises(NonPrimeModulus):
            field_new(2147483646)

    def test_small_prime_rejected_by_floor(self):
        with pytest.raises(ModulusTooSmall):
            field_new(101)

    def test_direct_context_allows_small_primes(self):
        assert FieldContext(101).p == 101
        with pytest.raises(NonPrimeModulus):
            FieldContext(100)

    def test_modulus_beyond_exact_primality_rejected(self):
        # Miller-Rabin with bases up to 41 is exact only below this number.
        with pytest.raises(BadParameter, match="3317044064679887385961981"):
            FieldContext(3317044064679887385961981)
        with pytest.raises(BadParameter):  # composite, yet passes every base
            is_prime(3317044064679887385961981)

    @pytest.mark.parametrize("p", [65537.9, 65537.0, True, "65537", None])
    def test_non_integer_modulus_rejected(self, p):
        with pytest.raises(BadParameter):
            FieldContext(p)
        with pytest.raises(BadParameter):
            is_prime(p)

    def test_numpy_integer_modulus_accepted(self):
        ctx = FieldContext(np.int64(65537))
        assert ctx == FieldContext(65537) and type(ctx.p) is int

    def test_is_prime_known_values(self):
        assert is_prime(2) and is_prime(65537) and is_prime(2**31 - 1)
        assert not is_prime(1) and not is_prime(2**31 - 2)
        # 798330580441 * 399165290221: a strong pseudoprime to bases 2..37.
        assert not is_prime(318665857834031151167461)

    def test_inv_of_two(self):
        # solve normalizes each pivot by its inverse.  Frozen:
        # 2 * 1073741824 = 2^31 = p + 1 = 1 mod p.
        (inv2,) = solve(FieldMatrix(CTX, [[2]]), [1]).particular
        assert inv2 == 1073741824
        assert 2 * inv2 % P == 1


@settings(max_examples=200, deadline=None)
@given(a=st.integers(min_value=1, max_value=P - 1))
def test_field_axioms(a):
    # Every nonzero a has an inverse: the solution of a * x = 1.
    (x,) = solve(FieldMatrix(CTX, [[a]]), [1]).particular
    assert a * x % P == 1


class TestSolve:
    def test_identity_system(self):
        out = solve(FieldMatrix(CTX, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), [4, 5, 6])
        assert out.consistent
        assert out.particular == (4, 5, 6)
        assert out.nullspace_basis == ()
        assert out.pinned_coordinates == frozenset({0, 1, 2})

    def test_inconsistent_system(self):
        out = solve(FieldMatrix(CTX, [[1, 1], [2, 2]]), [1, 3])
        assert not out.consistent
        assert out.particular is None

    def test_underdetermined_system(self):
        out = solve(FieldMatrix(CTX, [[1, 1]]), [5])
        assert out.consistent
        assert len(out.nullspace_basis) == 1
        assert out.pinned_coordinates == frozenset()

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve(FieldMatrix(CTX, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), [1, 2])

    @pytest.mark.parametrize("bad", [1.5, True])
    def test_non_integer_rhs_rejected(self, bad):
        with pytest.raises(BadParameter, match="b must"):
            solve(FieldMatrix(CTX, [[1, 0], [0, 1]]), [bad, 2])

    @pytest.mark.parametrize("seed", range(8))
    def test_solution_properties(self, seed):
        rng = random.Random(seed)
        rows, cols = rng.randrange(2, 7), rng.randrange(2, 7)
        A = rand_matrix(CTX, rng, rows, cols)
        x = [rng.randrange(P) for _ in range(cols)]
        b = matvec(A.to_rows(), x, P)  # guaranteed consistent
        out = solve(A, list(b))
        assert out.consistent
        assert matvec(A.to_rows(), out.particular, P) == b
        for nv in out.nullspace_basis:
            assert matvec(A.to_rows(), nv, P) == (0,) * rows
        assert rank(A) + len(out.nullspace_basis) == cols

    @pytest.mark.parametrize("kind", ["underdetermined", "inconsistent", "rank_deficient"])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_gauss_jordan_oracle(self, kind, seed):
        rng = random.Random(f"{kind}-{seed}")
        rows, cols = (3, 6) if kind == "underdetermined" else (5, 4)
        A = [[rng.randrange(101) if rng.random() > 0.3 else 0 for _ in range(cols)] for _ in range(rows)]
        if kind != "underdetermined":
            # Dependent last row and last column: rank at most 3 of 4.
            A[-1] = [(2 * x + 3 * y) % 101 for x, y in zip(A[0], A[1])]
            for row in A:
                row[-1] = (row[0] + 2 * row[1]) % 101
        b = list(matvec(A, [rng.randrange(101) for _ in range(cols)], 101))
        if kind == "inconsistent":
            b[-1] = (b[-1] + 1) % 101
        want = gauss_jordan(A, b, 101)
        assert want[0] == (kind != "inconsistent")
        assert want[2]  # every case has free variables
        out = solve(FieldMatrix(SMALL, A), b)
        got = (out.consistent, out.particular, out.nullspace_basis, out.pinned_coordinates)
        assert got == want

    @pytest.mark.parametrize("seed", range(6))
    def test_pinned_invariant_under_row_permutation(self, seed):
        rng = random.Random(100 + seed)
        A = rand_matrix(SMALL, rng, 4, 6)
        x = [rng.randrange(101) for _ in range(6)]
        b = list(matvec(A.to_rows(), x, 101))
        out = solve(A, b)
        perm = list(range(4))
        rng.shuffle(perm)
        Ap = FieldMatrix(SMALL, [A.row(i) for i in perm])
        outp = solve(Ap, [b[i] for i in perm])
        assert out.pinned_coordinates == outp.pinned_coordinates
        for c in out.pinned_coordinates:
            assert out.particular[c] == outp.particular[c]


class TestRank:
    def test_identity(self):
        eye = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        assert rank(FieldMatrix(CTX, eye)) == 4

    def test_zero_matrix(self):
        assert rank(FieldMatrix(CTX, [[0] * 5] * 3)) == 0

    @pytest.mark.parametrize("seed", range(5))
    def test_random_tall_full_rank_two_elimination_orders(self, seed):
        # A random 5x3 matrix has rank 3 except with probability about 3/p;
        # a second elimination under row and column permutation must agree.
        rng = random.Random(seed)
        A = rand_matrix(CTX, rng, 5, 3)
        r1 = rank(A)
        rows = list(range(5))
        cols = list(range(3))
        rng.shuffle(rows)
        rng.shuffle(cols)
        B = FieldMatrix(CTX, [[A[i, j] for j in cols] for i in rows])
        assert r1 == rank(B) == 3


class TestSubmatrixNonsingular:
    def test_identity_block(self):
        A = FieldMatrix(CTX, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert rank(A.submatrix([0, 1], [0, 1])) == 2

    def test_equal_rows(self):
        A = FieldMatrix(CTX, [[1, 2], [1, 2]])
        assert rank(A.submatrix([0, 1], [0, 1])) < 2

    def test_vandermonde_rows(self):
        # Distinct evaluation points: nonsingular by the product formula.
        points = [3, 7, 9, 2**20]
        A = FieldMatrix(CTX, [[pow(x, k, P) for k in range(4)] for x in points])
        assert vandermonde_det(points, P) != 0
        assert rank(A.submatrix(range(4), range(4))) == 4

    def test_exhaustive_small_entries_against_determinant(self):
        # Every 3x3 matrix with entries in {0,1,2} over GF(101), ranked as
        # one stack and checked against a cofactor-expansion determinant.
        flats = list(itertools.product(range(3), repeat=9))
        stack = np.array(flats, dtype=np.int64).reshape(-1, 3, 3)
        got = batch_rank(stack, 101) == 3
        for flat, nonsingular in zip(flats, got):
            rows = [list(flat[0:3]), list(flat[3:6]), list(flat[6:9])]
            assert nonsingular == (det_laplace(rows, 101) != 0)


class TestMatrixOps:
    def test_ragged_input_rejected(self):
        with pytest.raises(DimensionMismatch):
            FieldMatrix(CTX, [[1, 2], [3]])

    @pytest.mark.parametrize("bad", [1.5, True, "a", None])
    def test_non_integer_entry_rejected(self, bad):
        # A float would be truncated and a string would not reduce.
        with pytest.raises(BadParameter, match="matrix entries"):
            FieldMatrix(CTX, [[bad, 2]])

    def test_numpy_integers_accepted(self):
        assert FieldMatrix(CTX, [[np.int64(3), 2]])[0, 0] == 3

    def test_huge_python_ints_reduced(self):
        A = FieldMatrix(CTX, [[10**30, 1]])
        assert A[0, 0] == 10**30 % P

    def test_object_dtype_field(self):
        # A modulus past the int64-safe bound exercises the object path.
        big = FieldContext(2**61 - 1)
        assert big.dtype is object
        A = FieldMatrix(big, [[2**60, 1], [5, 2**60 + 9]])
        out = solve(A, [1, 2])
        assert out.consistent
        assert matvec(A.to_rows(), out.particular, big.p) == (1, 2)
        assert rank(A) == 2


class TestBatchKernels:
    @pytest.mark.parametrize("seed", range(10))
    def test_batch_rank_matches_scalar(self, seed):
        rng = random.Random(seed)
        mats = [
            [[rng.randrange(101) if rng.random() > 0.3 else 0 for _ in range(4)] for _ in range(5)]
            for _ in range(16)
        ]
        stack = np.array(mats, dtype=np.int64)
        got = batch_rank(stack.copy(), 101)
        want = [rank_naive(m, 101) for m in mats]
        assert list(got) == want

    @pytest.mark.parametrize("seed", range(10))
    def test_batch_feasible_matches_exact_solve(self, seed):
        rng = random.Random(1000 + seed)
        systems = []
        for _ in range(24):
            rows = [[rng.randrange(101) if rng.random() > 0.25 else 0 for _ in range(3)] for _ in range(5)]
            b = [rng.randrange(101) if rng.random() > 0.5 else 0 for _ in range(5)]
            systems.append((rows, b))
        aug = np.array(
            [[row + [bv] for row, bv in zip(rows, b)] for rows, b in systems],
            dtype=np.int64,
        )
        got = batch_feasible(aug, 101, 3)
        want = [gauss_jordan(rows, b, 101)[0] for rows, b in systems]
        assert list(got) == want

    # Lengths around the 32-value top of the product tree, and odd levels.
    @pytest.mark.parametrize("n", [1, 31, 32, 33, 64, 65, 257, 1537])
    @pytest.mark.parametrize(
        "p, dtype", [(2**31 - 1, np.int64), (2**61 - 1, object), (5, np.int64)]
    )
    def test_batch_inverse_matches_pow(self, n, p, dtype):
        # p = 5 repeats every residue many times; p = 2^61 - 1 runs on
        # object arrays of Python integers.
        rng = random.Random(f"{n}-{p}")
        vals = np.array([rng.randrange(1, p) for _ in range(n)], dtype=dtype)
        before = vals.copy()
        got = _batch_inverse(vals, p)
        assert got.shape == (n,)
        assert got.tolist() == [pow(x, -1, p) for x in vals.tolist()]
        assert vals.dtype == before.dtype and vals.tolist() == before.tolist()

    def test_nullspace_of_wide_matrix(self):
        A = FieldMatrix(CTX, [[1, 2, 3], [4, 5, 6]])
        basis = solve(A, [0, 0]).nullspace_basis
        assert len(basis) == 1
        assert matvec(A.to_rows(), basis[0], P) == (0, 0)


def _mixed_system(kind, rng, p, rows=6, nvars=5):
    """One ``(A, b)`` of the given kind; ``b`` is in the column space except
    for the inconsistent kinds."""
    A = [[rng.randrange(p) for _ in range(nvars)] for _ in range(rows)]
    if kind == "underdetermined":
        for row in A[3:]:
            row[:] = [0] * nvars
    elif kind.startswith("rank_deficient"):
        # The last column and the last row depend on the others.
        for row in A:
            row[-1] = (row[0] + 2 * row[1]) % p
        A[-1] = [(3 * x + y) % p for x, y in zip(A[0], A[1])]
    elif kind.startswith("zero"):
        A = [[0] * nvars for _ in range(rows)]
    b = list(matvec(A, [rng.randrange(p) for _ in range(nvars)], p))
    if kind.endswith("inconsistent"):
        b[-1] = (b[-1] + 1) % p
    return A, b


class TestBatchedReader:
    KINDS = ("full_rank", "underdetermined", "rank_deficient",
             "rank_deficient_inconsistent", "zero", "zero_inconsistent")

    @staticmethod
    def _read(systems, p, split=0):
        # Eliminate over the first ``split`` columns, then resume from there.
        dtype = FieldContext(p).dtype
        stack = np.array([[row + [y] for row, y in zip(A, b)] for A, b in systems], dtype=dtype)
        nvars = len(systems[0][0][0])
        pivots = _batch_eliminate(stack, p, split)
        before = stack.copy()
        assert (_batch_eliminate(stack, p, split, start=split) == pivots).all()
        assert (stack == before).all()
        _batch_eliminate(stack, p, nvars, start=split)
        red = _read_reduced(stack, nvars, p)
        for s in range(len(systems)):
            consistent = bool(red.consistent[s])
            basis = red.nullspace(s)
            yield (
                consistent,
                tuple(red.particular[s].tolist()) if consistent else None,
                tuple(map(tuple, basis.tolist())),
                frozenset(np.flatnonzero(red.pinned[s]).tolist()),
            )

    @pytest.mark.parametrize("p", [2, 3, 101, 2**31 - 1, 2**61 - 1],
                             ids=["p2", "p3", "p101", "p2^31-1", "p2^61-1"])
    @pytest.mark.parametrize("nsys", [1, 72])
    def test_every_system_matches_gauss_jordan(self, p, nsys):
        rng = random.Random(f"reader-{p}-{nsys}")
        if nsys == 1:
            stacks = [[_mixed_system(kind, rng, p)] for kind in self.KINDS]
        else:
            kinds = [self.KINDS[i % len(self.KINDS)] for i in range(nsys)]
            rng.shuffle(kinds)
            stacks = [[_mixed_system(kind, rng, p) for kind in kinds]]
        for systems in stacks:
            got = list(self._read(systems, p))
            want = [gauss_jordan(A, b, p) for A, b in systems]
            assert got == want

    @pytest.mark.parametrize("p", [5, 2**31 - 1, 2**61 - 1], ids=["p5", "p2^31-1", "p2^61-1"])
    def test_resumed_elimination_matches_gauss_jordan(self, p):
        # Every split of the elimination reads like one elimination, also
        # with a zero or a repeated column; at the split itself, resuming
        # changes nothing and returns the pivots found so far.
        rng = random.Random(f"resume-{p}")
        systems = []
        for kind in self.KINDS:
            for tweak in ("none", "zero_column", "repeated_column"):
                A, _ = _mixed_system(kind, rng, p)
                for row in A:
                    if tweak == "zero_column":
                        row[1] = 0
                    elif tweak == "repeated_column":
                        row[3] = row[0]
                b = list(matvec(A, [rng.randrange(p) for _ in A[0]], p))
                if kind.endswith("inconsistent"):
                    b[-1] = (b[-1] + 1) % p
                systems.append((A, b))
        want = [gauss_jordan(A, b, p) for A, b in systems]
        assert {w[0] for w in want} == {True, False}
        for split in range(len(systems[0][0][0]) + 1):
            assert list(self._read(systems, p, split)) == want
