import itertools
import random

import pytest

from exhaustive_polytope import dual_cone_rays, polytope_from_inequalities
from fpoly.errors import InvariantViolation
from fpoly.intlinalg import primitive
from fpoly.polytope import convex_hull, lattice_points
from fpoly.quiver import vec_dot


def test_primitive():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive([-3, 0, 9]) == (-1, 0, 3)
    assert primitive((0, -5)) == (0, -1)
    assert primitive((7,)) == (1,)
    with pytest.raises(InvariantViolation):
        primitive((0, 0))


def test_square_hull():
    pts = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
    hull = convex_hull(pts)
    assert hull.vertices == ((0, 0), (0, 2), (2, 0), (2, 2))
    assert set(hull.facets) == {((1, 0), 2), ((-1, 0), 0), ((0, 1), 2), ((0, -1), 0)}
    assert hull.dim == 2
    assert hull.contains((1, 2)) and not hull.contains((3, 1))


def test_lower_dimensional_hull():
    seg = convex_hull([(0, 0, 0), (1, 1, 0), (2, 2, 0)])
    assert seg.dim == 1
    assert seg.vertices == ((0, 0, 0), (2, 2, 0))
    assert len(seg.equations) == 2
    assert seg.contains((1, 1, 0)) and not seg.contains((1, 0, 0))


def test_point_hull():
    pt = convex_hull([(3, 4)])
    assert pt.dim == 0 and pt.vertices == ((3, 4),)
    assert pt.contains((3, 4)) and not pt.contains((3, 5))


def test_hull_vertices_minimal():
    rng = random.Random(0)
    for _ in range(20):
        pts = [tuple(rng.randrange(-3, 4) for _ in range(3)) for _ in range(8)]
        hull = convex_hull(pts)
        for p in pts:
            assert hull.contains(p)
        # every vertex is one of the input points and not a convex combination
        assert set(hull.vertices) <= set(pts)


def test_lattice_points_simplex():
    simplex = convex_hull([(0, 0), (3, 0), (0, 3)])
    pts = lattice_points(simplex)
    assert len(pts) == 10
    assert all(x >= 0 and y >= 0 and x + y <= 3 for x, y in pts)


# These check the oracle's dual cones and H-to-V conversion, in
# ``exhaustive_polytope``: ``test_differential`` rebuilds from them the
# round trip that ``verify_cones`` replaced, as its reference.

def test_dual_cone_rays_quadrant():
    # {delta : delta(v) <= 0 for v in {e1, e2}} is the negative quadrant
    rays = dual_cone_rays([(1, 0), (0, 1)])
    assert set(rays) == {(-1, 0), (0, -1)}


def test_dual_cone_rays_halfspace_has_lineality():
    rays = dual_cone_rays([(1, 0)], ambient=2)
    assert set(rays) == {(-1, 0), (0, 1), (0, -1)}
    for r in rays:
        assert vec_dot(r, (1, 0)) <= 0


def test_dual_cone_rays_are_valid_and_generate():
    rng = random.Random(1)
    for _ in range(20):
        ineqs = [tuple(rng.randrange(-2, 3) for _ in range(3)) for _ in range(4)]
        ineqs = [v for v in ineqs if any(v)]
        if not ineqs:
            continue
        rays = dual_cone_rays(ineqs, ambient=3)
        for r in rays:
            assert all(vec_dot(r, v) <= 0 for v in ineqs)
        assert len(set(rays)) == len(rays)


def test_polytope_from_inequalities_roundtrip():
    pts = [(0, 0), (2, 0), (0, 2), (2, 2)]
    hull = convex_hull(pts)
    rebuilt = polytope_from_inequalities(hull.facets, 2)
    assert rebuilt.vertices == hull.vertices
    assert rebuilt.facets == hull.facets


def test_polytope_from_inequalities_rejects_unbounded():
    # The strip 0 <= x <= 1, y <= 1 has vertices but is not bounded.
    with pytest.raises(ValueError):
        polytope_from_inequalities([((1, 0), 1), ((0, 1), 1), ((-1, 0), 0)], 2)
    # 0 <= x <= 1 contains a line.
    with pytest.raises(ValueError):
        polytope_from_inequalities([((1, 0), 1), ((-1, 0), 0)], 2)


def test_polytope_from_inequalities_rejects_fractional_vertex():
    # 2x <= 1, x >= 0 is the segment [0, 1/2].
    with pytest.raises(ValueError, match="non-integral vertex"):
        polytope_from_inequalities([((2,), 1), ((-1,), 0)], 1)
    # x + y <= 1, x - y <= 0, -x <= 0 has the vertex (1/2, 1/2).
    with pytest.raises(ValueError, match="non-integral vertex"):
        polytope_from_inequalities([((1, 1), 1), ((1, -1), 0), ((-1, 0), 0)], 2)
