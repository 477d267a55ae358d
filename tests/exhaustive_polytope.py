"""Exhaustive subset searches for the three polyhedral conversions.

These are the original implementations of ``convex_hull``,
``polytope_from_inequalities`` and ``dual_cone_rays``: every d-subset of
points, every ``ambient``-subset of facets and every (d-1)-subset of
inequalities is tried.  They are kept here only as the reference that
``tests/test_differential.py`` compares the double description routine
against, on small random inputs.
"""

import itertools

from fpoly.polytope import (Cone, MAX_CONE_DIM, Polytope, _affine_hull,
                            _cofactor_normal, nullspace_frac, primitive_vector,
                            rank_frac, rref_frac, solve_frac)
from fpoly.quiver import vec_dot


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
        return Cone(tuple(sorted(set(rays))))
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
    return Cone(tuple(sorted(set(rays))))


def polytope_from_inequalities(facets, ambient):
    """Polytope from inequalities n.x <= h, by solving every facet subset."""
    facets = [(tuple(n), h) for n, h in facets]
    vertices = set()
    for subset in itertools.combinations(facets, ambient):
        rows = [n for n, _ in subset]
        rhs = [h for _, h in subset]
        x = solve_frac(rows, rhs, ambient)
        if x is None:
            continue
        if any(vec_dot(n, x) > h for n, h in facets):
            continue
        if any(f.denominator != 1 for f in x):
            raise ValueError(f"non-integral vertex {x}; not a lattice polytope")
        vertices.add(tuple(int(f) for f in x))
    if not vertices:
        raise ValueError("inequality system has no vertices (empty or unbounded)")
    return convex_hull(vertices)
