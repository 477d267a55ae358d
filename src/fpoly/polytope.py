"""Exact low-dimensional polyhedral geometry over the integers.

Hulls, vertex enumeration and dual cones all go through one integer
double description routine, ``_cone_rays`` (Motzkin et al. 1953;
Fukuda and Prodon, "Double description method revisited", 1996).
All arithmetic is integer/rational; facet normals are indivisible
integer vectors oriented outward (polytope = {x : n.x <= h}).
"""

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InvariantViolation
from .quiver import vec_dot, vec_sub


def primitive_vector(v):
    """Scale a rational vector to a primitive integer vector, same direction."""
    fracs = [Fraction(x) for x in v]
    denom = 1
    for f in fracs:
        denom = denom * f.denominator // gcd(denom, f.denominator)
    ints = [int(f * denom) for f in fracs]
    g = 0
    for x in ints:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(x // g for x in ints)


def rref_frac(rows, ncols):
    """Reduced row echelon form over Q; returns (rows, pivot columns)."""
    mat = [[Fraction(x) for x in r] for r in rows]
    pivots = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], tuple(pivots)


def rank_frac(rows, ncols):
    return len(rref_frac(rows, ncols)[0])


def nullspace_frac(rows, ncols):
    """Basis of {x : rows @ x = 0} over Q."""
    basis, pivots = rref_frac(rows, ncols)
    pivset = set(pivots)
    out = []
    for free in range(ncols):
        if free in pivset:
            continue
        v = [Fraction(0)] * ncols
        v[free] = Fraction(1)
        for brow, c in zip(basis, pivots):
            v[c] = -brow[free]
        out.append(tuple(v))
    return out


def solve_frac(rows, rhs, ncols):
    """Unique solution of rows @ x = rhs, or None if singular/inconsistent."""
    aug = [tuple(r) + (b,) for r, b in zip(rows, rhs)]
    basis, pivots = rref_frac(aug, ncols + 1)
    if ncols in pivots:
        return None  # inconsistent
    if len(pivots) < ncols:
        return None  # underdetermined
    x = [Fraction(0)] * ncols
    for brow, c in zip(basis, pivots):
        x[c] = brow[ncols]
    return tuple(x)


@dataclass(frozen=True)
class Polytope:
    """Lattice polytope with matching V- and H-representations.

    facets: (normal, offset) with the polytope inside n.x <= h.
    equations: affine-hull equalities n.x == h for lower-dimensional hulls.
    """

    ambient: int
    vertices: tuple
    facets: tuple
    equations: tuple = ()

    @property
    def dim(self):
        return self.ambient - len(self.equations)

    def contains(self, point):
        for n, h in self.equations:
            if vec_dot(n, point) != h:
                return False
        return all(vec_dot(n, point) <= h for n, h in self.facets)

    def to_json(self):
        out = {
            "vertices": [list(v) for v in self.vertices],
            "facets": [{"normal": list(n), "offset": h} for n, h in self.facets],
        }
        if self.equations:
            out["equations"] = [{"normal": list(n), "offset": h}
                                for n, h in self.equations]
        return out


def _affine_hull(points):
    """Pivot coordinates of the direction space and hull equations."""
    p0 = points[0]
    diffs = [vec_sub(p, p0) for p in points[1:]]
    n = len(p0)
    _, pivots = rref_frac(diffs, n) if diffs else ([], ())
    equations = []
    for a in nullspace_frac(diffs, n) if diffs else nullspace_frac([(0,) * n], n):
        normal = primitive_vector(a)
        equations.append((normal, vec_dot(normal, p0)))
    return tuple(pivots), tuple(equations)


def _int_det(rows):
    """Determinant of a small square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if m[i][k]), None)
            if piv is None:
                return 0
            m[k], m[piv] = m[piv], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _cofactor_normal(diffs, d):
    """Integer kernel vector of a (d-1) x d integer matrix via cofactors."""
    return tuple((-1) ** i * _int_det([row[:i] + row[i + 1:] for row in diffs])
                 for i in range(d))


def _primitive_int(v):
    g = gcd(*v)
    if g == 0:
        raise InvariantViolation("zero ray; the cone is not pointed")
    return tuple(x // g for x in v)


def _cone_rays(rows):
    """Extreme rays of the pointed cone {y : r.y >= 0 for every row r}.

    Integer double description: the simplicial cone of independent rows
    is cut by one row at a time, and each pair of adjacent rays on
    opposite sides of the cut is joined.  Two rays are adjacent when no
    third ray is tight on every row both are tight on.  Returns
    (primitive ray, bitmask of the rows tight on it) pairs.
    """
    dim = len(rows[0])
    basis, echelon = [], []
    for i, r in enumerate(rows):
        for e, c in echelon:
            if r[c]:
                r = [a * e[c] - b * r[c] for a, b in zip(r, e)]
        pivot = next((j for j, x in enumerate(r) if x), None)
        if pivot is not None:
            echelon.append((r, pivot))
            basis.append(i)
    if len(basis) < dim:
        raise ValueError("the rows do not span: the cone contains a line")
    rays = []
    for j in basis:
        y = _primitive_int(_cofactor_normal([rows[k] for k in basis if k != j], dim))
        rays.append((y if vec_dot(rows[j], y) > 0 else tuple(-x for x in y), 0))
    for i in basis + [i for i in range(len(rows)) if i not in basis]:
        bit = 1 << i
        scored = [(y, mask, vec_dot(rows[i], y)) for y, mask in rays]
        kept = [(y, mask | bit if s == 0 else mask) for y, mask, s in scored if s >= 0]
        neg = [r for r in scored if r[2] < 0]
        for yp, mp, sp in (r for r in scored if r[2] > 0):
            for yn, mn, sn in neg:
                # Adjacent rays span a 2-face: at least dim - 2 common rows.
                common = mp & mn
                if (common.bit_count() >= dim - 2 and
                        sum((m & common) == common for _, m in rays) == 2):
                    y = _primitive_int([sp * b - sn * a for a, b in zip(yp, yn)])
                    kept.append((y, common | bit))
        rays = kept
    return rays


def convex_hull(points):
    """Exact convex hull of integer points; see module docstring."""
    points = sorted(set(tuple(p) for p in points))
    if not points:
        raise ValueError("empty point set")
    ambient = len(points[0])
    coords, equations = _affine_hull(points)
    d = len(coords)
    if d == 0:
        return Polytope(ambient, (points[0],), (), equations)
    proj = [tuple(p[j] for j in coords) for p in points]

    # A facet n.x <= h is a ray y = (h, -n) of {y : y.(1, q) >= 0}.  The
    # ray is primitive and h = n.q at an integer tight point q, so n is
    # primitive too.
    facets = sorted((tuple(-x for x in y[1:]), y[0], mask)
                    for y, mask in _cone_rays([(1,) + q for q in proj]))
    tight = [sum(1 << k for k, f in enumerate(facets) if f[2] >> i & 1)
             for i in range(len(proj))]
    # A vertex is tight on a set of facets no other point is tight on.
    vertices = [points[i] for i, t in enumerate(tight)
                if not any((u & t) == t for j, u in enumerate(tight) if j != i)]

    lifted = []
    for normal, h, _ in facets:
        full = [0] * ambient
        for j, c in zip(coords, normal):
            full[j] = c
        lifted.append((tuple(full), h))
    return Polytope(ambient, tuple(vertices), tuple(lifted), equations)


def lattice_points(polytope):
    """All integer points, by bounding-box scan with facet filtering."""
    if not polytope.vertices:
        return []
    lo = [min(v[i] for v in polytope.vertices) for i in range(polytope.ambient)]
    hi = [max(v[i] for v in polytope.vertices) for i in range(polytope.ambient)]
    out = []
    for point in itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi))):
        if polytope.contains(point):
            out.append(point)
    return out


def maximizing_face(polytope, delta):
    """(max of delta over the polytope, vertices attaining it)."""
    if not polytope.vertices:
        raise ValueError("empty polytope")
    vals = [vec_dot(delta, v) for v in polytope.vertices]
    h = max(vals)
    face = tuple(v for v, x in zip(polytope.vertices, vals) if x == h)
    return h, face


@dataclass(frozen=True)
class Cone:
    """Polyhedral cone generated by the listed indivisible rays."""

    rays: tuple

    def __post_init__(self):
        if len(set(self.rays)) != len(self.rays):
            raise ValueError("duplicate rays")


MAX_CONE_DIM = 6


def dual_cone_rays(inequalities, ambient=None):
    """Generators of {delta : delta(v) <= 0 for all given v}.

    Returns the extremal rays of the pointed part (representatives in the
    span of the inequality vectors) plus +/- a basis of the lineality
    space.
    """
    inequalities = [tuple(v) for v in inequalities if any(v)]
    if ambient is None:
        if not inequalities:
            raise ValueError("ambient dimension required without inequalities")
        ambient = len(inequalities[0])
    if ambient > MAX_CONE_DIM:
        raise ValueError(f"cone dimension {ambient} exceeds cap {MAX_CONE_DIM}")

    rays = []
    lineality = nullspace_frac(inequalities or [(0,) * ambient], ambient)
    for direction in lineality:
        r = primitive_vector(direction)
        rays.append(r)
        rays.append(tuple(-x for x in r))

    # The pointed part lies in the span of the inequality vectors, where
    # each lineality ray r vanishes: r.y >= 0 and -r.y >= 0 are both rows.
    if inequalities:
        rows = [tuple(-x for x in v) for v in inequalities] + rays
        rays += [y for y, _ in _cone_rays(rows)]
    return Cone(tuple(sorted(set(rays))))


def polytope_from_inequalities(facets, ambient):
    """Bounded integer polytope from inequalities n.x <= h.

    Vertices are the rays (t, x) with t > 0 of the cone t.h - n.x >= 0,
    t >= 0, scaled to x/t; the result is rebuilt with convex_hull so the
    facet list is irredundant.  An empty or unbounded system raises
    ValueError.
    """
    rows = [(h,) + tuple(-c for c in n) for n, h in facets]
    vertices = set()
    for (t, *x), _ in _cone_rays(rows + [(1,) + (0,) * ambient]):
        if t == 0:
            raise ValueError("inequality system is unbounded or empty: "
                             f"recession direction {tuple(x)}")
        if any(c % t for c in x):
            raise ValueError(f"non-integral vertex {tuple(Fraction(c, t) for c in x)}; "
                             "not a lattice polytope")
        vertices.add(tuple(c // t for c in x))
    if not vertices:
        raise ValueError("inequality system has no vertices (empty or unbounded)")
    return convex_hull(vertices)
