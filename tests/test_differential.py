"""Randomized differential checks of the vertex walk and the torsion paths.

``count_points``, ``has_subrep`` and ``enumerate_subreps`` share one
vertex walk, so they are checked against an independent oracle, the
brute-force count over every tuple of subspaces, and not only against
each other.  ``torsion_split`` reads L_min and L_max off the extreme
maximizing dimension vectors; it is checked against the fold of
intersections and sums over every maximizing subrepresentation.  All
cases are small random representations.  The 4-cycle has arrows that
close a cycle, so its walks take the deferred-arrow path.
"""

import itertools
import random

from fpoly import kernels
from fpoly.grassmannian import (count_points, enumerate_subreps, has_subrep,
                                maximizer_dims)
from fpoly.quiver import Quiver, kronecker_quiver
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
