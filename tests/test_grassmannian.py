import itertools
import random

import pytest

from fpoly import grassmannian, kernels, rep as rep_module
from fpoly.errors import CostCapExceeded, GenericityError
from fpoly.grassmannian import (enumerate_subreps, maximizer_dims,
                                sub_dim_vectors, subrep_counts,
                                subrep_dim_vectors, tropical_f,
                                unique_subrep)
from fpoly.polynomial import counted_primes, f_polynomial
from fpoly.quiver import Quiver, cycle_quiver, kronecker_quiver, unit_vector, vec_dot
from fpoly.rep import (RepRecipe, Representation, dual, is_arrow_stable,
                       random_representation)

A3 = Quiver(("1", "2", "3"), ((0, 1), (1, 2)))


def brute_force_count(rep, gamma):
    """Enumerate all tuples of subspaces directly and filter for stability."""
    per_vertex = [[rows for rows, _ in kernels.subspaces(rep.dims[v], gamma[v], rep.p)]
                  for v in range(rep.quiver.n)]
    total = 0
    for choice in itertools.product(*per_vertex):
        pivots = tuple(tuple(next(j for j, x in enumerate(row) if x)
                             for row in basis) for basis in choice)
        if is_arrow_stable(rep, choice, pivots):
            total += 1
    return total


def test_counts_match_brute_force():
    rng = random.Random(0)
    for p in (2, 3):
        for _ in range(10):
            dims = tuple(rng.randrange(3) for _ in range(3))
            m = random_representation(A3, dims, p, rng)
            for gamma in itertools.product(*(range(d + 1) for d in dims)):
                assert subrep_counts(m).get(gamma, 0) == brute_force_count(m, gamma)


def test_counts_match_brute_force_with_cycle():
    rng = random.Random(1)
    cyc = Quiver(("1", "2"), ((0, 1), (1, 0)))
    for p in (2, 3):
        for _ in range(10):
            dims = (rng.randrange(1, 3), rng.randrange(1, 3))
            m = random_representation(cyc, dims, p, rng)
            for gamma in itertools.product(range(dims[0] + 1), range(dims[1] + 1)):
                assert subrep_counts(m).get(gamma, 0) == brute_force_count(m, gamma)


def test_enumeration_agrees_with_count():
    rng = random.Random(2)
    p = 3
    m = random_representation(A3, (2, 2, 1), p, rng)
    for gamma in itertools.product(range(3), range(3), range(2)):
        subs = list(enumerate_subreps(m, gamma))
        assert len(subs) == subrep_counts(m).get(gamma, 0)
        assert len(set(subs)) == len(subs)
        for sub in subs:
            assert sub.dims == gamma
            assert is_arrow_stable(m, sub.bases, sub.pivots)


def test_simple_sub_dims():
    for i in range(3):
        s = random_representation(A3, unit_vector(3, i), 3, random.Random(0))
        assert subrep_dim_vectors(s) == {(0, 0, 0), unit_vector(3, i)}


def test_full_and_zero_always_present():
    rng = random.Random(3)
    m = random_representation(A3, (1, 2, 1), 2, rng)
    dims = subrep_dim_vectors(m)
    assert (0, 0, 0) in dims and (1, 2, 1) in dims


def test_special_extension_module_unique_middle_subrep():
    # non-split extension of general (1,1) bricks over the 3-arrow Kronecker:
    # exactly one subrepresentation of dimension (1,1)
    k3 = kronecker_quiver(3)
    mats = (((1, 0), (0, 0)), ((0, 0), (0, 1)), ((0, 1), (0, 0)))
    for p in (2, 3, 5):
        m = Representation(k3, p, (2, 2), mats)
        assert subrep_counts(m).get((1, 1), 0) == 1
        assert unique_subrep(m, (1, 1)) is not None


def test_sink_shortcut_consistency():
    # at a sink the closed-form count must agree with enumeration
    rng = random.Random(4)
    star = Quiver(("1", "2", "3"), ((0, 2), (1, 2)))
    m = random_representation(star, (2, 2, 3), 3, rng)
    for gamma in itertools.product(range(3), range(3), range(4)):
        assert subrep_counts(m).get(gamma, 0) == len(list(enumerate_subreps(m, gamma)))


def test_vertex_plan_is_memoized_and_immutable():
    # 1 -> 2 -> 1 closes a cycle; vertex 3 hangs off 2 and is free.
    def quiver():
        return Quiver(("1", "2", "3"), ((0, 1), (1, 0), (1, 2)))
    plan = grassmannian._frontier_plan(quiver())
    assert grassmannian._frontier_plan(quiver()) is plan
    order, free, positions, pushes, checks, kept, settle, start = plan
    assert order == positions == (0, 1, 2)
    assert free == frozenset({2})
    # Choosing 1 pushes arrow 0 into the span forced on 2, and choosing 2
    # pushes arrow 2 into the span forced on 3 ...
    assert pushes == (((1, (0,)),), ((2, (2,)),), ())
    # ... and the deferred arrow 1 (2 -> 1) is checked when 2 is chosen,
    # against the subspace that 1 keeps.
    assert checks == ((), ((1, 0),), ())
    assert kept == frozenset({0})
    assert settle == ((), (2,), ())       # 3 keeps a dimension once 2 is chosen
    assert start == (((), ()),) * 3
    hash(plan)  # every part is immutable


def test_cost_cap(monkeypatch):
    draws = []
    monkeypatch.setattr(rep_module, "random_representation",
                        lambda *args: draws.append(args))
    with pytest.raises(CostCapExceeded):
        subrep_dim_vectors(RepRecipe(kronecker_quiver(2), (9, 9), seed=0).at_prime(2))
    # An over-cap recipe cannot be built, so nothing is drawn for it.
    assert not draws
    zeros = tuple(tuple((0,) * 9 for _ in range(9)) for _ in range(2))
    with pytest.raises(CostCapExceeded):
        RepRecipe(kronecker_quiver(2), (9, 9), int_matrices=zeros)


@pytest.mark.parametrize("plan", [f_polynomial, counted_primes])
def test_cost_cap_comes_before_the_end_sample(monkeypatch, plan):
    # The rigidity test of a seeded recipe samples its generic End; an
    # over-cap recipe is refused before that sample draws anything.
    draws = []
    monkeypatch.setattr(rep_module, "random_representation",
                        lambda *args: draws.append(args))
    with pytest.raises(CostCapExceeded):
        plan(RepRecipe(kronecker_quiver(2), (9, 9), seed=0))
    assert not draws


def test_sub_dim_vectors_certified():
    r = RepRecipe(kronecker_quiver(2), (2, 3), seed=0)
    dims = sub_dim_vectors(r)
    assert dims == {(0, 0), (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}


def test_seeded_sub_dims_on_a_quiver_with_a_cycle_are_refused(monkeypatch):
    # Draws of the 3-cycle (1,1,1) mod 2 and 3 can agree on the set of a
    # module that is not general (seed 2 gives the vertex (1,0,1)), so no
    # seeded set is certified, and nothing is drawn or counted for it.
    calls = []
    monkeypatch.setattr(grassmannian, "subrep_dim_vectors", calls.append)
    for seed in range(40):
        with pytest.raises(GenericityError, match="explicit int_matrices"):
            sub_dim_vectors(RepRecipe(cycle_quiver(3), (1, 1, 1), seed=seed))
    assert not calls


def test_explicit_sub_dims_on_a_quiver_with_a_cycle_are_certified(monkeypatch):
    # 1 -> 2 -> 3 -> 1 with the last map zero: a uniserial module, whose
    # sets mod 2 and 3 agree.
    primes, real = [], grassmannian.subrep_dim_vectors
    monkeypatch.setattr(grassmannian, "subrep_dim_vectors",
                        lambda rep: primes.append(rep.p) or real(rep))
    recipe = RepRecipe(cycle_quiver(3), (1, 1, 1),
                       int_matrices=(((1,),), ((1,),), ((0,),)))
    assert sub_dim_vectors(recipe) == {(0, 0, 0), (0, 0, 1), (0, 1, 1), (1, 1, 1)}
    assert primes == [2, 3]


def test_tropical_duality_identity():
    # f-check_M, the maximum over quotients of M, is f of DM
    rng = random.Random(5)
    r = RepRecipe(kronecker_quiver(2), (2, 3), seed=0)
    m = r.at_prime(3)
    for _ in range(20):
        delta = tuple(rng.randrange(-3, 4) for _ in range(2))
        assert (tropical_f(m, delta) - tropical_f(dual(m), tuple(-x for x in delta))
                == vec_dot(delta, m.dims))


def test_maximizers():
    r = RepRecipe(kronecker_quiver(2), (2, 3), seed=0)
    m = r.at_prime(3)
    assert maximizer_dims(m, (1, -1)) == {(0, 0)}
    assert maximizer_dims(m, (1, 0)) == {(2, 3)}
    assert (1, 2) in subrep_dim_vectors(m) and (1, 1) not in subrep_dim_vectors(m)
