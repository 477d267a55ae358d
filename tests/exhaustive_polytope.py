"""Exhaustive subset searches for three polyhedral conversions.

These are the original implementations of ``convex_hull``,
``polytope_from_inequalities`` and ``dual_cone_rays``: every d-subset of
points, every ``ambient``-subset of facets and every (d-1)-subset of
inequalities is tried.  They are kept here only as references for
``tests/test_differential.py``, on small random inputs: ``convex_hull``
for the library's double description routine, and the other two for the
round trip that the cones check replaced (dualize the hull's vertices at
0 and at alpha, rebuild a polytope from the rays, compare).  So that
round trip runs at 2,000 inputs in seconds, ``polytope_from_inequalities``
solves each subset by integer Cramer's rule, and like the library
function it stands for, it rejects an unbounded system.

The rational linear algebra they use (``rref_frac`` and the helpers on
it, ``_affine_hull`` and the cofactor normal) is kept here as well, in
``Fraction`` arithmetic, so that the library's integer echelon is
checked against an independent implementation and not against itself.
"""

import itertools
from fractions import Fraction
from math import gcd

from fpoly.polytope import Polytope
from fpoly.quiver import vec_dot, vec_sub

MAX_CONE_DIM = 6  # the subset search over inequalities is exponential


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


def convex_hull(points):
    """Exact convex hull of integer points by exhaustive facet search."""
    points = sorted(set(tuple(p) for p in points))
    if not points:
        raise ValueError("empty point set")
    ambient = len(points[0])
    coords, equations = _affine_hull(points)
    d = len(coords)
    if d == 0:
        return Polytope(ambient, (points[0],), (), equations)
    proj = [tuple(p[j] for j in coords) for p in points]

    facets = set()
    seen = set()
    for subset in itertools.combinations(range(len(proj)), d):
        pts = [proj[i] for i in subset]
        diffs = [[a - b for a, b in zip(q, pts[0])] for q in pts[1:]]
        normal = _cofactor_normal(diffs, d) if d > 1 else (1,)
        if not any(normal):
            continue
        normal = primitive_vector(normal)
        h = vec_dot(normal, pts[0])
        if (normal, h) in seen:
            continue
        seen.add((normal, h))
        seen.add((tuple(-x for x in normal), -h))
        above = below = False
        for q in proj:
            v = vec_dot(normal, q)
            if v > h:
                above = True
            elif v < h:
                below = True
            if above and below:
                break
        if above and below:
            continue
        if not above:
            facets.add((normal, h))
        if not below:
            facets.add((tuple(-x for x in normal), -h))

    vertices = []
    for i, q in enumerate(proj):
        active = [n for n, h in facets if vec_dot(n, q) == h]
        if rank_frac(active, d) == d:
            vertices.append(points[i])

    lifted = []
    for normal, h in sorted(facets):
        full = [0] * ambient
        for j, c in zip(coords, normal):
            full[j] = c
        lifted.append((tuple(full), h))
    return Polytope(ambient, tuple(sorted(vertices)), tuple(lifted), equations)


def dual_cone_rays(inequalities, ambient=None):
    """Generators of {delta : delta(v) <= 0}, by kernel lines of subsets."""
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

    # Pointed part lives in the span of the inequality vectors.
    span_basis, _ = rref_frac(inequalities, ambient) if inequalities else ([], ())
    d = len(span_basis)
    if d == 0:
        return tuple(sorted(set(rays)))
    if d == 1:
        candidates = [span_basis[0]]
    else:
        candidates = []
        for subset in itertools.combinations(inequalities, d - 1):
            # Kernel line within the span: x = c @ span_basis with subset @ x = 0.
            rows = [[vec_dot(v, b) for b in span_basis] for v in subset]
            kernel = nullspace_frac(rows, d)
            if len(kernel) != 1:
                continue
            c = kernel[0]
            candidates.append(tuple(sum(ci * b[j] for ci, b in zip(c, span_basis))
                                    for j in range(ambient)))
    seen = set(rays)
    for x in candidates:
        r = primitive_vector(x)
        if all(vec_dot(r, v) <= 0 for v in inequalities):
            pass
        elif all(vec_dot(r, v) >= 0 for v in inequalities):
            r = tuple(-a for a in r)
        else:
            continue
        if r not in seen:
            seen.add(r)
            rays.append(r)
    return tuple(sorted(set(rays)))


def _recession_direction(normals, ambient):
    """A nonzero d with n.d <= 0 for every normal n, or None.

    If the normals do not span, d is a lineality direction; otherwise the
    cone of such d, if not zero, has an extreme ray, the kernel line of
    some ambient - 1 of the normals.
    """
    lineality = nullspace_frac(normals or [(0,) * ambient], ambient)
    if lineality:
        return primitive_vector(lineality[0])
    for subset in itertools.combinations(normals, ambient - 1):
        d = _cofactor_normal(subset, ambient) if ambient > 1 else (1,)
        for r in (d, tuple(-x for x in d)):
            if any(r) and all(vec_dot(n, r) <= 0 for n in normals):
                return r
    return None


def polytope_from_inequalities(facets, ambient):
    """Polytope from inequalities n.x <= h, by solving every facet subset
    with Cramer's rule: x = nums / det.  A system with a recession
    direction is unbounded or empty, and raises ValueError."""
    facets = [(tuple(n), h) for n, h in facets]
    direction = _recession_direction([n for n, _ in facets], ambient)
    if direction is not None:
        raise ValueError(f"inequality system is unbounded or empty: "
                         f"recession direction {direction}")
    vertices = set()
    for subset in itertools.combinations(facets, ambient):
        det = _int_det([n for n, _ in subset])
        if det == 0:
            continue
        nums = [_int_det([n[:j] + (h,) + n[j + 1:] for n, h in subset])
                for j in range(ambient)]
        if det < 0:
            det, nums = -det, [-c for c in nums]
        if any(vec_dot(n, nums) > h * det for n, h in facets):
            continue
        if any(c % det for c in nums):
            raise ValueError(f"non-integral vertex {tuple(Fraction(c, det) for c in nums)}; "
                             "not a lattice polytope")
        vertices.add(tuple(c // det for c in nums))
    if not vertices:
        raise ValueError("inequality system has no vertices (empty or unbounded)")
    return convex_hull(vertices)
