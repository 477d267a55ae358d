"""Independent correctness oracles for the benchmark workloads.

Nothing here imports fpoly: polynomials are plain ``{exponent: coef}``
dicts and all geometry is exact integer/rational arithmetic, so a fault
in the program under test cannot also hide in its own check.
"""

from fractions import Fraction
from itertools import product


class Poly:
    """Minimal sparse integer polynomial, only to write golden tables."""

    def __init__(self, terms):
        self.terms = {e: c for e, c in terms.items() if c}

    @classmethod
    def var(cls, nvars, i):
        return cls({tuple(int(j == i) for j in range(nvars)): 1})

    @classmethod
    def one(cls, nvars):
        return cls({(0,) * nvars: 1})

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return Poly(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return Poly({e: c * other for e, c in self.terms.items()})
        out = {}
        for (e1, c1), (e2, c2) in product(self.terms.items(), other.terms.items()):
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
        return Poly(out)

    __rmul__ = __mul__

    def __pow__(self, k):
        out = Poly.one(len(next(iter(self.terms))))
        for _ in range(k):
            out = out * self
        return out


def _vars(n):
    return [Poly.var(n, i) for i in range(n)] + [Poly.one(n)]


# 4-cycle quiver of acceptance criteria 1-3 (vertex ids 1..4, arrows as index pairs)
CYCLE4_ARROWS = ((0, 3), (1, 0), (1, 2), (1, 3), (2, 0), (3, 2))

Y1, Y2, Y3, Y4, ONE4 = _vars(4)
CYCLE4_17_TERMS = (ONE4 + Y3 + Y3 * Y4 + 2 * Y1 + 4 * Y1 * Y3
                   + 2 * Y1 * Y3 * Y4 + 2 * Y1 * Y3 ** 2
                   + 2 * Y1 * Y3 ** 2 * Y4 + Y1 ** 2 + 3 * Y1 ** 2 * Y3
                   + Y1 ** 2 * Y3 * Y4 + 3 * Y1 ** 2 * Y3 ** 2
                   + 2 * Y1 ** 2 * Y3 ** 2 * Y4 + Y1 ** 2 * Y3 ** 3
                   + Y1 ** 2 * Y3 ** 3 * Y4 + Y1 ** 2 * Y2 * Y3 ** 2 * Y4
                   + Y1 ** 2 * Y2 * Y3 ** 3 * Y4).terms

# Facet table of mutation sequence (3,4,1,2), slot with delta (-1,1,1,0):
# normal -> (dim t, dim t-check, face restriction).
CYCLE4_FACETS = {
    (-1, 2, 0, 0): ((0, 0, 0, 0), (2, 1, 3, 1),
                    ONE4 + Y3 + Y3 * Y4 + Y1 ** 2 * Y2 * Y3 ** 2 * Y4
                    + Y1 ** 2 * Y2 * Y3 ** 3 * Y4),
    (0, 1, 0, -1): ((0, 0, 0, 0), (2, 1, 3, 1),
                    (ONE4 + Y3) * (ONE4 + 2 * Y1 + Y1 ** 2 + 2 * Y1 * Y3
                                   + 2 * Y1 ** 2 * Y3 + Y1 ** 2 * Y3 ** 2
                                   + Y1 ** 2 * Y2 * Y3 ** 2 * Y4)),
    (0, -1, 0, 0): ((0, 0, 0, 0), (2, 0, 3, 1),
                    (ONE4 + Y1 + Y1 * Y3) ** 2 * (ONE4 + Y3 + Y3 * Y4)),
    (0, 1, -1, 1): ((0, 0, 0, 0), (2, 1, 2, 1),
                    ONE4 + 2 * Y1 + Y1 ** 2 + Y3 * Y4 + 2 * Y1 * Y3 * Y4
                    + Y1 ** 2 * Y3 * Y4 + Y1 ** 2 * Y2 * Y3 ** 2 * Y4),
    (1, 0, 0, 0): ((2, 0, 0, 0), (2, 1, 3, 1),
                   Y1 ** 2 * (ONE4 + Y3) * (ONE4 + 2 * Y3 + Y3 ** 2 + Y3 * Y4
                                            + Y3 ** 2 * Y4
                                            + Y2 * Y3 ** 2 * Y4)),
    (0, 0, 0, 1): ((0, 0, 1, 1), (2, 1, 3, 1),
                   Y3 * Y4 * (ONE4 + 2 * Y1 + 2 * Y1 * Y3 + Y1 ** 2
                              + 2 * Y1 ** 2 * Y3 + Y1 ** 2 * Y3 ** 2
                              + Y1 ** 2 * Y2 * Y3 + Y1 ** 2 * Y2 * Y3 ** 2)),
    (-1, 0, 1, 0): ((0, 0, 1, 0), (2, 1, 3, 1),
                    Y3 * (ONE4 + Y4 + 2 * Y1 * Y3 + 2 * Y1 * Y3 * Y4
                          + Y1 ** 2 * Y3 ** 2 + Y1 ** 2 * Y3 ** 2 * Y4
                          + Y1 ** 2 * Y2 * Y3 ** 2 * Y4)),
}

# Criterion 4: quiver 1=>2->3, dimension vector (2,4,1).
Z1, Z2, Z3, ONE3 = _vars(3)
CRIT4_F = (ONE3 + 3 * Z2 + 3 * Z2 ** 2 + Z2 ** 3 + Z3 + 4 * Z2 * Z3
           + 6 * Z2 ** 2 * Z3 + 4 * Z2 ** 3 * Z3 + Z2 ** 4 * Z3
           + 2 * Z1 * Z2 ** 2 * Z3 + 4 * Z1 * Z2 ** 3 * Z3
           + 2 * Z1 * Z2 ** 4 * Z3 + Z1 ** 2 * Z2 ** 4 * Z3).terms
CRIT4_FACETS = {
    (2, -1, 0): ONE3 + Z3 + 2 * Z1 * Z2 ** 2 * Z3 + Z1 ** 2 * Z2 ** 4 * Z3,
    (1, 0, -2): ONE3 + 3 * Z2 + 3 * Z2 ** 2 + Z2 ** 3 + Z1 ** 2 * Z2 ** 4 * Z3,
    (-1, 0, 0): (ONE3 + Z2) ** 3 * (ONE3 + Z3 + Z2 * Z3),
    (0, 0, 1): Z3 * (ONE3 + 2 * Z2 + Z2 ** 2 + Z1 * Z2 ** 2) ** 2,
    (0, 1, -1): Z2 ** 3 * (ONE3 + Z2 * Z3 + 2 * Z1 * Z2 * Z3
                           + Z1 ** 2 * Z2 * Z3),
}


def dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def rank_q(rows):
    """Rank over Q of a list of integer vectors."""
    mat = [[Fraction(x) for x in r] for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col] / mat[rank][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def affine_rank(points):
    points = list(points)
    if not points:
        return -1
    return rank_q([[a - b for a, b in zip(p, points[0])] for p in points[1:]])


def face_terms(terms, normal):
    """Terms of maximal weight in direction ``normal``: the face polynomial."""
    best = max(dot(normal, e) for e in terms)
    return {e: c for e, c in terms.items() if dot(normal, e) == best}


def facet_problem(terms, normal):
    """None if ``normal`` is a primitive facet normal of the Newton polytope
    of ``terms``, else the reason it is not."""
    from math import gcd
    g = 0
    for x in normal:
        g = gcd(g, x)
    if g != 1:
        return f"normal {normal} is not primitive"
    face = face_terms(terms, normal)
    if affine_rank(face) != affine_rank(terms) - 1:
        return f"face of {normal} is not a facet"
    return None


def hull_problem(points, vertices, facets, equations):
    """Self-consistency of a reported hull of ``points``.

    Every point satisfies every facet and equation, the vertices are among
    the points, and each facet is tight on an affinely full-rank subset.
    """
    points = set(points)
    dim = affine_rank(points)
    if not set(vertices) <= points:
        return "a vertex is not a support point"
    if len(equations) != len(next(iter(points))) - dim:
        return f"{len(equations)} equations for a {dim}-dimensional hull"
    for normal, h in equations:
        if any(dot(normal, p) != h for p in points):
            return f"equation {normal} violated"
    for normal, h in facets:
        if any(dot(normal, p) > h for p in points):
            return f"facet {normal} <= {h} violated"
        tight = [p for p in points if dot(normal, p) == h]
        if affine_rank(tight) != dim - 1:
            return f"facet {normal} is not tight on a full-rank set"
    if dim > 0 and len(facets) < dim + 1:
        return f"only {len(facets)} facets for a {dim}-dimensional hull"
    return None
