"""Mod-p linear algebra kernels and subspace combinatorics.

Matrices are tuples of row tuples with entries already reduced mod p.
Everything downstream imports the numeric primitives (rref, matmul,
in_rowspace, ...) from here.  A subspace is the ``(rows, pivots)`` pair
that ``rref`` returns, and the subspace enumerators yield such pairs.
"""

import itertools

# Name of the kernel implementation, recorded in benchmark run metadata.
BACKEND = "python"


def rref(mat, ncols, p):
    """Reduced row echelon form of the row space.

    Returns (rows, pivots): a tuple of independent rref rows and the
    ascending tuple of their pivot columns.  Zero rows are dropped.
    """
    rows = [list(r) for r in mat]
    pivots = []
    col = 0
    r = 0
    nrows = len(rows)
    while r < nrows and col < ncols:
        piv = None
        for i in range(r, nrows):
            if rows[i][col]:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = pow(rows[r][col], p - 2, p)
        if inv != 1:
            row_r = rows[r]
            for j in range(col, ncols):
                row_r[j] = row_r[j] * inv % p
        row_r = rows[r]
        for i in range(nrows):
            if i != r and rows[i][col]:
                f = rows[i][col]
                row_i = rows[i]
                for j in range(col, ncols):
                    row_i[j] = (row_i[j] - f * row_r[j]) % p
        pivots.append(col)
        r += 1
        col += 1
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def rank(mat, ncols, p):
    return len(rref(mat, ncols, p)[0])


def matmul(a, b, p):
    """(r x m) times (m x c) mod p; b given as rows."""
    if not a:
        return ()
    m = len(b)
    c = len(b[0]) if b else 0
    out = []
    for arow in a:
        acc = [0] * c
        for k in range(m):
            x = arow[k]
            if x:
                brow = b[k]
                for j in range(c):
                    acc[j] += x * brow[j]
        out.append(tuple(v % p for v in acc))
    return tuple(out)


def residual(row, basis, pivots, p):
    """Reduce a row against an rref basis; the residual is zero iff the
    row lies in the basis' row space."""
    v = list(row)
    for brow, c in zip(basis, pivots):
        f = v[c]
        if f:
            for j in range(c, len(v)):
                v[j] = (v[j] - f * brow[j]) % p
    return tuple(v)


def in_rowspace(row, basis, pivots, p):
    return not any(residual(row, basis, pivots, p))


def transpose(mat, ncols):
    if not mat:
        return tuple(() for _ in range(ncols))
    return tuple(zip(*mat))


def gauss_binom(n, k, q):
    """Number of k-dimensional subspaces of F_q^n."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def meet(n, m, c, j, q):
    """Number of m-dimensional subspaces of F_q^n that meet a fixed
    c-dimensional subspace C in dimension j: the meet J is one of the
    [c j]_q subspaces of C, and U/J one of the q^((c-j)(m-j)) [n-c m-j]_q
    complements of C/J of dimension m - j in F_q^n/J."""
    if j < 0 or j > min(c, m):
        return 0
    return q ** ((c - j) * (m - j)) * gauss_binom(c, j, q) * gauss_binom(n - c, m - j, q)


def subspaces(n, k, p):
    """Iterate over all k-dim subspaces of F_p^n as ``(rows, pivots)``
    pairs, the same pair ``rref`` returns.

    Enumeration is by pivot pattern, then by the free entries; each
    subspace appears exactly once.
    """
    if k == 0:
        yield (), ()
        return
    for pivots in itertools.combinations(range(n), k):
        pivset = set(pivots)
        # Free slots: (row i, col j) with j > pivots[i] and j not a pivot.
        slots = [
            (i, j)
            for i in range(k)
            for j in range(pivots[i] + 1, n)
            if j not in pivset
        ]
        for vals in itertools.product(range(p), repeat=len(slots)):
            rows = [[0] * n for _ in range(k)]
            for i in range(k):
                rows[i][pivots[i]] = 1
            for (i, j), v in zip(slots, vals):
                rows[i][j] = v
            yield tuple(tuple(r) for r in rows), pivots


def subspaces_containing(n, k, p, sub_basis, sub_pivots):
    """All k-dim subspaces of F_p^n containing the given rref subspace, as
    ``(rows, pivots)`` pairs; for the zero subspace, exactly ``subspaces``.

    Works in the quotient by the subspace: non-pivot coordinates index
    the quotient, complements are lifted and re-reduced.
    """
    w = len(sub_basis)
    if not w:
        yield from subspaces(n, k, p)
        return
    if k < w:
        return
    if k == w:
        yield sub_basis, sub_pivots
        return
    pivset = set(sub_pivots)
    coords = [j for j in range(n) if j not in pivset]
    for qbasis, _ in subspaces(len(coords), k - w, p):
        rows = list(sub_basis)
        for qrow in qbasis:
            lift = [0] * n
            for c, v in zip(coords, qrow):
                lift[c] = v
            rows.append(tuple(lift))
        yield rref(rows, n, p)
