"""Randomized structural properties, each checked on 200+ sampled instances.

Instances are small acyclic quivers (at most 4 vertices, per-vertex
dimensions at most 3) so each trial stays cheap; seeds are fixed so the
suite is deterministic.
"""

import itertools
import random

from fpoly.cluster import b_matrix, mutate, seed_from_quiver
from fpoly.grassmannian import (enumerate_subreps, subrep_counts,
                                subrep_dim_vectors, tropical_f, unique_subrep)
from fpoly.polynomial import f_polynomial
from fpoly.polytope import convex_hull
from fpoly.presentations import hom_e, random_presentation
from fpoly.quiver import Quiver, vec_add, vec_dot
from fpoly.rep import (RepRecipe, dual, ext_dim_hereditary, generic_hom_ext,
                       hom_dim, quotient, random_representation,
                       restrict_to_sub)
from fpoly.stabilization import is_semistable, torsion_split

TRIALS = 200


def random_acyclic_quiver(rng, max_vertices=4):
    n = rng.randrange(2, max_vertices + 1)
    arrows = []
    for s, t in itertools.combinations(range(n), 2):
        for _ in range(rng.randrange(3)):
            arrows.append((s, t))
    if not arrows:
        arrows.append((0, 1))
    return Quiver(tuple(str(i + 1) for i in range(n)), tuple(arrows))


def random_dims(rng, n, low=0, high=2):
    dims = tuple(rng.randrange(low, high + 1) for _ in range(n))
    return dims if any(dims) else random_dims(rng, n, low, high)


def _rigid_dims(q, dims, rng):
    # self-extensions of a single sampled representation; the pairwise
    # generic ext cannot see these (two independent general (1,1) Kronecker
    # modules land in different tubes and have no ext between them)
    m = random_representation(q, dims, 101, rng)
    return ext_dim_hereditary(m, m) == 0


def test_f_polynomial_multiplicative_on_generic_direct_sums():
    rng = random.Random(10)
    done = 0
    while done < TRIALS:
        q = random_acyclic_quiver(rng)
        a = random_dims(rng, q.n, high=1)
        b = random_dims(rng, q.n, high=2)
        if any(x + y > 3 for x, y in zip(a, b)):
            continue
        if not (_rigid_dims(q, a, rng) and _rigid_dims(q, b, rng)):
            continue
        if any(generic_hom_ext(q, x, y)[1] != 0 for x, y in ((a, b), (b, a))):
            continue
        fa = f_polynomial(RepRecipe(q, a, seed=done))
        fb = f_polynomial(RepRecipe(q, b, seed=done))
        fab = f_polynomial(RepRecipe(q, vec_add(a, b), seed=done))
        assert fab == fa * fb, (q.arrows, a, b)
        done += 1


def test_tropical_duality_identity():
    # f_M(delta) - f-check_M(-delta) = delta(dim M) for every M and delta,
    # with f-check_M, the maximum over quotients of M, counted as f of DM:
    # the subrepresentations of DM are the duals of the quotients of M
    rng = random.Random(11)
    done = 0
    while done < TRIALS:
        q = random_acyclic_quiver(rng)
        dims = random_dims(rng, q.n, high=3)
        if sum(dims) > 8:
            continue
        m = random_representation(q, dims, 3, rng)
        for _ in range(10):
            delta = tuple(rng.randrange(-3, 4) for _ in range(q.n))
            lhs = tropical_f(m, delta)
            rhs = tropical_f(dual(m), tuple(-x for x in delta))
            assert lhs - rhs == vec_dot(delta, dims)
            done += 1


def test_hom_minus_e_is_weight_pairing():
    rng = random.Random(12)
    p = 101
    done = 0
    while done < TRIALS:
        q = random_acyclic_quiver(rng)
        delta = tuple(rng.randrange(-2, 3) for _ in range(q.n))
        d = random_presentation(q, delta, p, rng)
        n = random_representation(q, random_dims(rng, q.n, high=3), p, rng)
        h, e = hom_e(d, n)
        assert h - e == vec_dot(delta, n.dims)
        done += 1


def test_torsion_split_invariants():
    # for every maximizer L: Hom(t(M), M/L) = 0 and Hom(L, M/L_max) = 0;
    # the subquotient L_max/L_min is delta-semistable
    rng = random.Random(13)
    done = 0
    while done < TRIALS:
        q = random_acyclic_quiver(rng, max_vertices=3)
        dims = random_dims(rng, q.n, high=2)
        if sum(dims) > 5:
            continue
        m = random_representation(q, dims, rng.choice((2, 3)), rng)
        delta = tuple(rng.randrange(-2, 3) for _ in range(q.n))
        split = torsion_split(m, delta)
        assert is_semistable(split.perp, delta)
        value = vec_dot(delta, split.l_min.dims)
        t = restrict_to_sub(m, split.l_min)
        f_check = quotient(m, split.l_max)
        for gamma in subrep_dim_vectors(m):
            if vec_dot(delta, gamma) != value:
                continue
            for sub in enumerate_subreps(m, gamma):
                quot = quotient(m, sub)
                assert hom_dim(t, quot) == 0
                l_rep = restrict_to_sub(m, sub)
                assert hom_dim(l_rep, f_check) == 0
                done += 1
        done += 1


def test_polytope_vertices_are_unique_points_with_no_forward_homs():
    rng = random.Random(14)
    done = 0
    while done < TRIALS:
        q = random_acyclic_quiver(rng, max_vertices=3)
        dims = random_dims(rng, q.n, high=2)
        if sum(dims) > 5:
            continue
        p = rng.choice((2, 3))
        m = random_representation(q, dims, p, rng)
        subdims = subrep_dim_vectors(m)
        for gamma in convex_hull(subdims).vertices:
            assert subrep_counts(m).get(gamma, 0) == 1
            sub = unique_subrep(m, gamma)
            l_rep = restrict_to_sub(m, sub)
            assert hom_dim(l_rep, quotient(m, sub)) == 0
            done += 1


def test_mutation_is_an_involution():
    rng = random.Random(15)
    for trial in range(TRIALS):
        q = random_acyclic_quiver(rng)
        seed = seed_from_quiver(q)
        for _ in range(rng.randrange(3)):
            seed = mutate(seed, rng.randrange(1, q.n + 1))
        k = rng.randrange(1, q.n + 1)
        assert mutate(mutate(seed, k), k) == seed
