"""Exact linear algebra over the integers, without fractions.

One fraction-free Gauss-Jordan elimination, ``echelon``, serves the
polyhedral geometry of ``polytope`` (affine hulls, lineality spaces,
starting rays), the stable lattice of ``stabilization`` and the fit of
counting polynomials in ``polynomial``.  The rank of a matrix is the
number of pivots ``echelon`` returns.
"""

from math import gcd, lcm

from .errors import InvariantViolation


def primitive(v):
    """Divide an integer vector by the gcd of its entries."""
    g = gcd(*v)
    if g == 0:
        raise InvariantViolation("zero vector has no primitive form")
    return tuple(x // g for x in v)


def echelon(rows, ncols):
    """Reduced echelon form of an integer matrix.

    Rows are combined by integer cross-multiplication and divided by
    their content, so entries stay small.  Returns (rows, pivots): one
    primitive row per pivot column, in pivot order, positive at its own
    pivot, zero at every other pivot and zero left of its own.  The
    pivots are the leftmost columns that span the column space.
    """
    mat = [list(r) for r in rows if any(r)]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        i = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if i is None:
            continue
        mat[r], mat[i] = mat[i], mat[r]
        top = mat[r]
        a = top[col]
        for k, row in enumerate(mat):
            b = row[col]
            if b and k != r:
                row = [x * a - y * b for x, y in zip(row, top)]
                g = gcd(*row)
                mat[k] = [x // g for x in row] if g > 1 else row
        pivots.append(col)
        if len(pivots) == len(mat):
            break
    ech = [primitive(row if row[c] > 0 else [-x for x in row])
           for row, c in zip(mat, pivots)]
    return ech, tuple(pivots)


def nullspace(ech, pivots, ncols):
    """Primitive integer basis of {x : rows @ x = 0}, given the
    ``echelon`` form (ech, pivots) of the rows: one vector per non-pivot
    column, positive there and zero at the other such columns."""
    scale = lcm(*(row[c] for row, c in zip(ech, pivots)))
    out = []
    for free in range(ncols):
        if free in pivots:
            continue
        v = [0] * ncols
        v[free] = scale
        for row, c in zip(ech, pivots):
            v[c] = -row[free] * (scale // row[c])
        out.append(primitive(v))
    return out


def solver(rows, ncols):
    """Solve rows @ x = b for many b after one elimination.

    Returns None when the ``ncols`` columns are dependent.  Otherwise
    returns a function taking b to the integer x with rows @ x = b, or
    to None when no such x exists or it is not integral.
    """
    n = len(rows)
    # Each row of the echelon form of [rows | I] is c^T [rows | I] for
    # some c.  Row i < ncols reads d_i x_i = c.b; each later row has
    # c^T rows = 0, so c.b = 0 is a condition for a solution.
    ech, pivots = echelon([tuple(r) + tuple(int(i == j) for j in range(n))
                           for i, r in enumerate(rows)], ncols + n)
    if pivots[:ncols] != tuple(range(ncols)):
        return None
    heads = [ech[i][i] for i in range(ncols)]

    def solve(b):
        vals = [sum(c * y for c, y in zip(row[ncols:], b)) for row in ech]
        if any(vals[ncols:]) or any(v % d for v, d in zip(vals, heads)):
            return None
        return tuple(v // d for v, d in zip(vals, heads))
    return solve
