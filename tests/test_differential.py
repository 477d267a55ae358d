"""Randomized differential checks of the vertex walk and the torsion paths.

``count_points``, ``has_subrep`` and ``enumerate_subreps`` share one
vertex walk, so they are checked against an independent oracle, the
brute-force count over every tuple of subspaces, and not only against
each other.  ``torsion_split`` reads L_min and L_max off the extreme
maximizing dimension vectors; it is checked against the fold of
intersections and sums over every maximizing subrepresentation.  All
cases are small random representations.  The 4-cycle has arrows that
close a cycle, so its walks take the deferred-arrow path.

``convex_hull``, ``polytope_from_inequalities`` and ``dual_cone_rays``
share one double description routine; they are checked for exact
equality against the exhaustive subset searches in
``exhaustive_polytope``, on random point sets (with duplicates and
lower-dimensional sets) and random inequality lists.
"""

import itertools
import random

import exhaustive_polytope
from fpoly import kernels
from fpoly.grassmannian import (count_points, enumerate_subreps, has_subrep,
                                maximizer_dims)
from fpoly.polytope import (convex_hull, dual_cone_rays,
                            polytope_from_inequalities)
from fpoly.quiver import Quiver, kronecker_quiver, vec_dot
from fpoly.rep import is_arrow_stable, random_representation
from fpoly.stabilization import torsion_split
from test_grassmannian import brute_force_count

QUIVERS = {
    "K2": kronecker_quiver(2),
    "A3": Quiver(("1", "2", "3"), ((0, 1), (2, 1))),
    "1=>2->3": Quiver(("1", "2", "3"), ((0, 1), (0, 1), (1, 2))),
    "4-cycle": Quiver(("1", "2", "3", "4"),
                      ((0, 3), (1, 0), (1, 2), (1, 3), (2, 0), (3, 2))),
}
TRIALS = 60


def _random_reps(quiver, rng):
    done = 0
    while done < TRIALS:
        dims = tuple(rng.randrange(3) for _ in range(quiver.n))
        if not any(dims) or sum(dims) > 5:
            continue
        yield random_representation(quiver, dims, rng.choice((2, 3)), rng)
        done += 1


def _folded_extremes(rep, delta):
    """Intersection and sum of every delta-maximizing subrepresentation."""
    low = high = None
    for gamma in maximizer_dims(rep, delta):
        for sub in enumerate_subreps(rep, gamma):
            if low is None:
                low, high = list(sub.bases), list(sub.bases)
                continue
            for v, n in enumerate(rep.dims):
                low[v] = kernels.subspace_intersection(low[v], sub.bases[v],
                                                       n, rep.p)[0]
                high[v] = kernels.subspace_sum(high[v], sub.bases[v],
                                               n, rep.p)[0]
    return tuple(low), tuple(high)


def test_has_subrep_agrees_with_point_count():
    assert not QUIVERS["4-cycle"].acyclic
    rng = random.Random(30)
    for name, quiver in QUIVERS.items():
        for rep in _random_reps(quiver, rng):
            for gamma in itertools.product(*(range(d + 1) for d in rep.dims)):
                where = (name, rep.p, rep.matrices, gamma)
                count = count_points(rep, gamma)
                subs = list(enumerate_subreps(rep, gamma))
                assert count == brute_force_count(rep, gamma), where
                assert len(subs) == count, where
                assert len(set(subs)) == len(subs), where
                for sub in subs:
                    assert sub.dims == gamma, where
                    assert is_arrow_stable(rep, sub.bases, sub.pivots), where
                assert has_subrep(rep, gamma) == (count > 0), where


def test_torsion_split_extremes_equal_fold_over_maximizers():
    rng = random.Random(31)
    for name, quiver in QUIVERS.items():
        for rep in _random_reps(quiver, rng):
            for _ in range(3):
                delta = tuple(rng.randrange(-2, 3) for _ in range(quiver.n))
                split = torsion_split(rep, delta)
                low, high = _folded_extremes(rep, delta)
                assert split.l_min.bases == low, (name, rep.matrices, delta)
                assert split.l_max.bases == high, (name, rep.matrices, delta)


def _random_points(rng, dim):
    # Points in the small box are often coplanar, which makes degenerate
    # cones whose rays share many tight rows without being adjacent.
    box = rng.choice((1, 3))
    points = [tuple(rng.randrange(-box, box + 1) for _ in range(dim))
              for _ in range(rng.randrange(1, 15))]
    if dim > 1 and rng.random() < 0.3:
        # Force a lower-dimensional set: the last coordinate is affine
        # in the others.
        coef = [rng.randrange(-2, 3) for _ in range(dim - 1)]
        points = [p[:-1] + (vec_dot(coef, p[:-1]) + 1,) for p in points]
    if rng.random() < 0.3:
        points += rng.sample(points, rng.randrange(len(points) + 1))
    rng.shuffle(points)
    return points


def test_polytope_conversions_equal_exhaustive_search():
    rng = random.Random(32)
    rebuilt = 0
    for trial in range(200):
        dim = trial % 5 + 1
        points = _random_points(rng, dim)
        expected = exhaustive_polytope.convex_hull(points)
        assert convex_hull(points) == expected, points
        # Each affine-hull equation enters as a pair of inequalities.
        ineqs = expected.facets + tuple(
            e for n, h in expected.equations
            for e in ((n, h), (tuple(-x for x in n), -h)))
        if expected.dim > 0 and len(ineqs) <= 9:
            rebuilt += 1
            assert (polytope_from_inequalities(ineqs, dim)
                    == exhaustive_polytope.polytope_from_inequalities(ineqs, dim)
                    == expected), ineqs
    assert rebuilt > 100


def test_dual_cone_rays_equal_exhaustive_search():
    rng = random.Random(33)
    for trial in range(300):
        ambient = trial % 6 + 1
        box = rng.choice((1, 2))
        ineqs = [tuple(rng.randrange(-box, box + 1) for _ in range(ambient))
                 for _ in range(rng.randrange(8))]
        assert (dual_cone_rays(ineqs, ambient=ambient)
                == exhaustive_polytope.dual_cone_rays(ineqs, ambient=ambient)), ineqs
