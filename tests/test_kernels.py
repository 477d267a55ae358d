import random
from collections import Counter
from fractions import Fraction

from fpoly import kernels

PRIMES = (2, 3, 5, 101)


def random_matrix(rng, rows, cols, p):
    return tuple(tuple(rng.randrange(p) for _ in range(cols))
                 for _ in range(rows))


def nullspace(mat, ncols, p):
    """RREF row basis of the right null space {x : mat @ x = 0}."""
    basis, pivots = kernels.rref(mat, ncols, p)
    out = []
    for free in (j for j in range(ncols) if j not in pivots):
        v = [0] * ncols
        v[free] = 1
        for brow, c in zip(basis, pivots):
            v[c] = (-brow[free]) % p
        out.append(tuple(v))
    return tuple(out)


def subspace_sum(b1, b2, ncols, p):
    """RREF basis of the sum of two row spaces."""
    return kernels.rref(tuple(b1) + tuple(b2), ncols, p)


def subspace_intersection(b1, b2, ncols, p):
    """RREF basis of the intersection of two row spaces."""
    if not b1 or not b2:
        return (), ()
    # x*b1 = y*b2  <=>  (x, y) in the null space of [b1^T | -b2^T].
    k1, k2 = len(b1), len(b2)
    stacked = []
    for j in range(ncols):
        row = [b1[i][j] for i in range(k1)] + [(-b2[i][j]) % p for i in range(k2)]
        stacked.append(tuple(row))
    combos = nullspace(tuple(stacked), k1 + k2, p)
    vecs = [kernels.matmul((c[:k1],), b1, p)[0] for c in combos]
    return kernels.rref(vecs, ncols, p)


def rank_fraction_oracle(mat):
    rows = [[Fraction(x) for x in r] for r in mat]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][col]:
                f = rows[i][col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
        col += 1
    return rank


def test_rref_shape_and_pivots():
    rng = random.Random(1)
    for p in PRIMES:
        for _ in range(25):
            m = random_matrix(rng, rng.randrange(5), rng.randrange(5), p)
            ncols = len(m[0]) if m else 0
            basis, pivots = kernels.rref(m, ncols, p)
            assert len(basis) == len(pivots)
            for i, (row, c) in enumerate(zip(basis, pivots)):
                assert row[c] == 1
                assert all(row[j] == 0 for j in range(c))
                # pivot column is zero elsewhere
                assert all(basis[k][c] == 0 for k in range(len(basis)) if k != i)
            assert list(pivots) == sorted(pivots)


def test_rref_idempotent_and_rank():
    rng = random.Random(2)
    for p in (2, 3, 5):
        for _ in range(40):
            m = random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6), p)
            ncols = len(m[0])
            basis, pivots = kernels.rref(m, ncols, p)
            again, pivots2 = kernels.rref(basis, ncols, p)
            assert again == basis and pivots2 == pivots
            assert kernels.rank(m, ncols, p) == len(basis)


def test_rank_matches_fraction_oracle_at_large_prime():
    # over p=101, random small integer matrices almost surely have the
    # same rank as over Q; use entries < 10 so no accidental divisibility
    rng = random.Random(3)
    for _ in range(30):
        m = tuple(tuple(rng.randrange(10) for _ in range(4)) for _ in range(4))
        assert kernels.rank(m, 4, 101) == rank_fraction_oracle(m)


def test_matmul_oracle():
    rng = random.Random(4)
    for p in PRIMES:
        a = random_matrix(rng, 3, 4, p)
        b = random_matrix(rng, 4, 2, p)
        c = kernels.matmul(a, b, p)
        for i in range(3):
            for j in range(2):
                assert c[i][j] == sum(a[i][k] * b[k][j] for k in range(4)) % p


def test_nullspace_annihilates():
    rng = random.Random(5)
    for p in (2, 3, 5):
        for _ in range(30):
            m = random_matrix(rng, 3, 5, p)
            null = nullspace(m, 5, p)
            assert len(null) == 5 - kernels.rank(m, 5, p)
            for v in null:
                for row in m:
                    assert sum(a * b for a, b in zip(row, v)) % p == 0


def test_residual_and_membership():
    rng = random.Random(6)
    p = 5
    basis, pivots = kernels.rref(random_matrix(rng, 3, 6, p), 6, p)
    for row in basis:
        assert kernels.in_rowspace(row, basis, pivots, p)
        assert not any(kernels.residual(row, basis, pivots, p))
    outside = tuple(rng.randrange(p) for _ in range(6))
    res = kernels.residual(outside, basis, pivots, p)
    # residual is zero on pivot columns
    assert all(res[c] == 0 for c in pivots)


def test_gauss_binom_values():
    # [n choose k]_q counts k-subspaces of F_q^n
    assert kernels.gauss_binom(4, 2, 2) == 35
    assert kernels.gauss_binom(3, 1, 3) == 13
    assert kernels.gauss_binom(5, 0, 7) == 1
    assert kernels.gauss_binom(2, 3, 5) == 0
    for n in range(5):
        for k in range(n + 1):
            assert kernels.gauss_binom(n, k, 2) == kernels.gauss_binom(n, n - k, 2)


def test_subspace_enumeration_count():
    for p in (2, 3):
        for n in range(4):
            for k in range(n + 1):
                subs = list(kernels.subspaces(n, k, p))
                assert len(subs) == kernels.gauss_binom(n, k, p)
                assert len(set(subs)) == len(subs)
                for basis, _ in subs:
                    assert len(basis) == k


def test_subspaces_containing():
    p = 2
    n, k = 4, 2
    fixed, piv = kernels.rref(((1, 0, 1, 0),), n, p)
    subs = list(kernels.subspaces_containing(n, k, p, fixed, piv))
    assert len(subs) == kernels.gauss_binom(n - 1, k - 1, p)
    for basis, _ in subs:
        bpiv = tuple(next(j for j, x in enumerate(row) if x) for row in basis)
        assert kernels.in_rowspace(fixed[0], basis, bpiv, p)


def test_subspaces_containing_is_subspaces_filtered_by_containment():
    """Differential: for each rref F, the quotient enumerator yields, as a
    multiset, the pairs of ``subspaces`` whose span contains F, and each
    pair is the rref of its rows.  F runs over 0, F_p^n and random spans,
    and k over every dimension, those below dim F included."""
    rng = random.Random(40)
    for p in (2, 3, 5):
        for n in range(6):
            by_k = [list(kernels.subspaces(n, k, p)) for k in range(n + 1)]
            for rows, pivots in (pair for subs in by_k for pair in subs):
                assert (rows, pivots) == kernels.rref(rows, n, p)
            spans = [((), ()), kernels.rref([[int(i == j) for j in range(n)]
                                              for i in range(n)], n, p)]
            spans += [kernels.rref(random_matrix(rng, rng.randrange(1, n + 1), n, p), n, p)
                      for _ in range(3) if n]
            for forced, forced_pivots in spans:
                for k, subs in enumerate(by_k):
                    got = list(kernels.subspaces_containing(n, k, p, forced, forced_pivots))
                    want = [(rows, pivots) for rows, pivots in subs
                            if all(kernels.in_rowspace(row, rows, pivots, p)
                                   for row in forced)]
                    assert Counter(got) == Counter(want), (n, k, p, forced)
                    assert all(pair == kernels.rref(pair[0], n, p) for pair in got)
                    assert got or k < len(forced)


def test_subspace_sum_and_intersection():
    rng = random.Random(8)
    p = 3
    n = 4
    for _ in range(30):
        b1, p1 = kernels.rref(random_matrix(rng, 2, n, p), n, p)
        b2, p2 = kernels.rref(random_matrix(rng, 2, n, p), n, p)
        from fpoly.rep import Subrep
        s, _ = subspace_sum(b1, b2, n, p)
        i, ipiv = subspace_intersection(b1, b2, n, p)
        assert len(s) + len(i) == len(b1) + len(b2)   # modular law on dims
        for row in i:
            assert kernels.in_rowspace(row, b1, p1, p)
            assert kernels.in_rowspace(row, b2, p2, p)
