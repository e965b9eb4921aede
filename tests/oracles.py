"""Independent reference implementations used to cross-check the package.

Everything here is deliberately naive (cofactor determinants, Gauss-Jordan
on Python-int lists, brute-force set partitions, labeled version-assignment
sweeps) so that agreement with the optimized code under test is meaningful.
"""

from __future__ import annotations

import itertools


def det_laplace(rows, p: int) -> int:
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0] % p
    total = 0
    for j in range(n):
        if rows[0][j] % p == 0:
            continue
        minor = [[row[c] for c in range(n) if c != j] for row in rows[1:]]
        sign = 1 if j % 2 == 0 else -1
        total = (total + sign * rows[0][j] * det_laplace(minor, p)) % p
    return total % p


def matvec(rows, x, p: int) -> tuple[int, ...]:
    """``A x`` mod p on Python ints."""
    return tuple(sum(a * b for a, b in zip(row, x)) % p for row in rows)


def gauss_jordan(rows, b, p: int):
    """Solve ``A x = b`` mod p by normalizing Gauss-Jordan on Python ints.

    Returns ``(consistent, particular, nullspace_basis, pinned)`` laid out
    like :class:`distcode.SolveOutcome`: free variables are zero in the
    particular solution, the basis has one vector per free column in column
    order, and ``pinned`` holds the pivot columns no basis vector touches.
    """
    n = len(rows[0])
    aug = [[x % p for x in row] + [y % p] for row, y in zip(rows, b)]
    pivots = []
    for c in range(n):
        r = len(pivots)
        pr = next((i for i in range(r, len(aug)) if aug[i][c]), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        inv = pow(aug[r][c], -1, p)
        aug[r] = [x * inv % p for x in aug[r]]
        for i in range(len(aug)):
            if i != r and aug[i][c]:
                f = aug[i][c]
                aug[i] = [(x - f * y) % p for x, y in zip(aug[i], aug[r])]
        pivots.append(c)
    consistent = all(row[n] == 0 for row in aug[len(pivots) :])
    free = [c for c in range(n) if c not in pivots]
    particular = None
    if consistent:
        x = [0] * n
        for i, c in enumerate(pivots):
            x[c] = aug[i][n]
        particular = tuple(x)
    basis = []
    for f in free:
        vec = [0] * n
        vec[f] = 1
        for i, c in enumerate(pivots):
            vec[c] = -aug[i][f] % p
        basis.append(tuple(vec))
    pinned = frozenset(
        c for i, c in enumerate(pivots) if all(aug[i][f] == 0 for f in free)
    )
    return consistent, particular, tuple(basis), pinned


def eliminate_inverse_free(rows, p: int, ncols: int):
    """Inverse-free Gauss-Jordan over the first ``ncols`` columns of one
    matrix, on Python ints, with every row kept in its place.

    For each column, the first row that is not yet a pivot row and is
    nonzero there becomes the column's pivot row.  Every row becomes
    ``row * pivot - pivot_row * row[c]`` mod p, and then the pivot row is
    put back as it was.  Returns the matrix and the pivot-row mask.
    """
    mat = [[x % p for x in row] for row in rows]
    pivotal = [False] * len(mat)
    for c in range(ncols):
        r = next((i for i, row in enumerate(mat) if not pivotal[i] and row[c]), None)
        if r is None:
            continue
        pivot_row = mat[r]
        mat = [[(x * pivot_row[c] - y * row[c]) % p for x, y in zip(row, pivot_row)] for row in mat]
        mat[r] = pivot_row
        pivotal[r] = True
    return mat, pivotal


def rank_naive(rows, p: int) -> int:
    """Rank mod p: column count minus the nullspace dimension."""
    return len(rows[0]) - len(gauss_jordan(rows, [0] * len(rows), p)[2])


def vandermonde_det(points, p: int) -> int:
    """prod_{i<j} (x_j - x_i) mod p."""
    d = 1
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = d * (points[j] - points[i]) % p
    return d


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind via the plain recurrence."""
    if n == 0 and k == 0:
        return 1
    if n == 0 or k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def restricted_growth_strings(t: int, v: int):
    """Every restricted-growth string of length t with at most v blocks, in
    lexicographic order: each label is at most one above the largest label
    before it (the first is 0) and below v.  Label i is at most i."""
    for labels in itertools.product(*(range(min(i + 1, v)) for i in range(t))):
        if all(x <= max(labels[:i], default=-1) + 1 for i, x in enumerate(labels)):
            yield list(labels)


def all_set_partitions(items):
    """Every set partition, built by inserting elements one at a time."""
    items = list(items)
    if not items:
        return
    first, rest = items[0], items[1:]
    if not rest:
        yield [[first]]
        return
    for smaller in all_set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[first] + smaller[i]] + smaller[i + 1 :]
        yield [[first]] + smaller


def labeled_feasible_projections(gm, nodes, transcript, cfg):
    """Reference decoder over labeled version assignments.

    For each presumed adversary set, every function T -> [v] is tried per
    adversary (v^t labeled assignments, empty version classes kept as free
    variables).  Returns {(presumed_adversaries, k): (pinned value set,
    any_unpinned flag)} over all feasible assignments.
    """
    nodes = tuple(nodes)
    t = len(nodes)
    K, beta, v, p = cfg.K, cfg.beta, cfg.v, cfg.p
    out: dict = {}
    for a_hat in itertools.combinations(range(K), beta):
        hs = [k for k in range(K) if k not in a_hat]
        for labelings in itertools.product(
            itertools.product(range(v), repeat=t), repeat=beta
        ):
            cols = []
            for k in hs:
                cols.append([gm.matrix[n, k] for n in nodes])
            for j, k in enumerate(a_hat):
                for ver in range(v):
                    cols.append(
                        [
                            gm.matrix[n, k] if labelings[j][i] == ver else 0
                            for i, n in enumerate(nodes)
                        ]
                    )
            mat = [list(row) for row in zip(*cols)]
            consistent, particular, _, pinned = gauss_jordan(
                mat, list(transcript.values), p
            )
            if not consistent:
                continue
            for i, k in enumerate(hs):
                key = (a_hat, k)
                values, unpinned = out.get(key, (set(), False))
                if i in pinned:
                    values.add(particular[i])
                else:
                    unpinned = True
                out[key] = (values, unpinned)
    return {
        key: (frozenset() if unp else frozenset(vals), unp)
        for key, (vals, unp) in out.items()
    }


def strict_result_projections(result):
    """Same aggregation computed from a strict DecodeResult."""
    out: dict = {}
    for sol in result.feasible:
        a_hat = sol.scenario.adversaries
        for k, val in sol.honest_values.items():
            key = (a_hat, k)
            values, unpinned = out.get(key, (set(), False))
            if k in sol.unpinned:
                unpinned = True
            else:
                values.add(val)
            out[key] = (values, unpinned)
    return {
        key: (frozenset() if unp else frozenset(vals), unp)
        for key, (vals, unp) in out.items()
    }


def strict_record(feasible, K: int, p: int):
    """Replay strict decoding's per-scenario recording over its feasible
    solutions, in sweep order.

    A coordinate's estimate is its first pinned value.  Its witness is found
    at the first solution that leaves it unpinned (the pair starts with that
    solution) or pins it to a value other than its first pinned one (the
    pair starts with the solution that pinned that first value).  Returns
    the estimates, the witness coordinates in the order found, and
    ``{coordinate: first member of its witness pair}``.
    """
    estimates = [None] * K
    first_pinned: dict = {}
    first_member: dict = {}
    for sol in feasible:
        for k in sorted(sol.honest_values):
            if k in sol.unpinned:
                first_member.setdefault(k, sol)
                continue
            val = sol.honest_values[k] % p
            if estimates[k] is None:
                estimates[k] = val
            seen_val, seen_sol = first_pinned.setdefault(k, (val, sol))
            if seen_val != val:
                first_member.setdefault(k, seen_sol)
    return estimates, list(first_member), first_member


def witness_events(rows, nodes, y, K: int, beta: int, v: int, p: int):
    """Each coordinate's first witness event, by rank tests on full systems.

    ``rows`` are the code rows of the observed ``nodes`` and ``y`` their
    values.  Scenarios run in sweep order: presumed-adversary sets in
    combinations order, then one restricted-growth partition per presumed
    adversary, the last fastest.  In a feasible scenario that presumes k
    honest, let M be its full system ``[D | X_q]`` without column ``g_k``:
    k is unpinned iff ``rank [M | g_k] = rank M``, and some solution gives k
    the value x iff ``rank [M | y - x g_k] = rank M``.  k's event is the
    first such scenario that leaves k unpinned or, once k has a first
    pinned value, cannot give k that value.  Returns ``{k: (A_hat,
    partitions)}`` in the order the events occur, then by coordinate.
    """
    labels = list(restricted_growth_strings(len(nodes), v))
    blocks = [
        tuple(tuple(n for n, b in zip(nodes, row) if b == c) for c in range(max(row) + 1))
        for row in labels
    ]
    first, events, pos = {}, {}, 0
    for A_hat in itertools.combinations(range(K), beta):
        hs = [k for k in range(K) if k not in A_hat]
        for choice in itertools.product(range(len(labels)), repeat=beta):
            pos += 1
            full = [
                [row[k] for k in hs]
                + [row[a] if labels[q][i] == c else 0 for a, q in zip(A_hat, choice) for c in range(v)]
                for i, row in enumerate(rows)
            ]
            consistent, particular, _, _ = gauss_jordan(full, y, p)
            if not consistent:
                continue
            for j, k in enumerate(hs):
                if k in events:
                    continue
                M = [r[:j] + r[j + 1 :] for r in full]
                base = rank_naive(M, p)
                g = [row[k] for row in rows]
                unpinned = rank_naive([m + [x] for m, x in zip(M, g)], p) == base
                if k not in first and not unpinned:
                    first[k] = particular[j]
                    continue
                if not unpinned:
                    z = [(a - first[k] * b) % p for a, b in zip(y, g)]
                    if rank_naive([m + [x] for m, x in zip(M, z)], p) == base:
                        continue
                events[k] = (pos, A_hat, tuple(blocks[q] for q in choice))
    return {k: ev[1:] for k, ev in sorted(events.items(), key=lambda e: (e[1][0], e[0]))}
