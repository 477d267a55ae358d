"""Exact low-dimensional polyhedral geometry over the integers.

Hulls and their vertices come from one integer double description
routine, ``_cone_rays`` (Motzkin et al. 1953; Fukuda and Prodon, "Double
description method revisited", 1996), run on the cone over the points.
Affine hulls and starting rays come from the fraction-free echelon of
``intlinalg``.  All arithmetic is integer; facet normals are
indivisible integer vectors oriented outward (polytope = {x : n.x <= h}).
"""

import itertools
from dataclasses import dataclass

from .errors import InvariantViolation
from .intlinalg import echelon, nullspace, primitive
from .quiver import vec_dot, vec_sub


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
    ech, pivots = echelon([vec_sub(p, p0) for p in points[1:]], len(p0))
    equations = tuple((normal, vec_dot(normal, p0))
                      for normal in nullspace(ech, pivots, len(p0)))
    return pivots, equations


def _cone_rays(rows):
    """Extreme rays of the pointed cone {y : r.y >= 0 for every row r}.

    Integer double description: the simplicial cone of independent rows
    is cut by one row at a time, and each pair of adjacent rays on
    opposite sides of the cut is joined.  Two rays are adjacent when no
    third ray is tight on every row both are tight on.  Returns
    (primitive ray, bitmask of the rows tight on it) pairs.
    """
    n, dim = len(rows), len(rows[0])
    # Each row of the echelon form of [rows^T | I] is (rows @ y, y) for
    # some y.  Its pivots are the leftmost independent rows, and the row
    # with pivot j has rows[j].y > 0 and rows[k].y = 0 at the other
    # pivots k: y is the starting ray opposite row j.
    ech, basis = echelon([col + tuple(int(i == j) for j in range(dim))
                          for i, col in enumerate(zip(*rows))], n + dim)
    if basis[-1] >= n:
        raise ValueError("the rows do not span: the cone contains a line")
    rays = [(primitive(row[n:]), 0) for row in ech]
    for i in basis + tuple(i for i in range(n) if i not in basis):
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
                    y = [sp * b - sn * a for a, b in zip(yp, yn)]
                    if not any(y):
                        raise InvariantViolation("zero ray; the cone is not pointed")
                    kept.append((primitive(y), common | bit))
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
