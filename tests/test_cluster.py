import random

import pytest

from fpoly.cluster import (b_matrix, find_by_delta, initial_seed, mutate,
                           run_sequence, seed_from_quiver)
from fpoly.polynomial import MultiPoly, f_polynomial
from fpoly.polytope import convex_hull
from fpoly.quiver import Quiver, kronecker_quiver
from fpoly.rep import RepRecipe

# 4-vertex quiver with a 3-cycle, the running potential example:
# arrows 1->4, 2->1, 2->3, 2->4, 3->1, 4->3
CYCLE4 = Quiver(("1", "2", "3", "4"),
                ((0, 3), (1, 0), (1, 2), (1, 3), (2, 0), (3, 2)))


def test_b_matrix_convention():
    q = kronecker_quiver(2)
    assert b_matrix(q) == ((0, -2), (2, 0))
    assert b_matrix(CYCLE4)[0] == (0, 1, 1, -1)   # row i: arrows (j -> i) - (i -> j)


@pytest.mark.parametrize("arrows", [((0, 1), (1, 0), (0, 1)), ((0, 0), (0, 1))])
def test_b_matrix_refuses_loops_and_2_cycles(arrows):
    # B would cancel 1 -> 2 -> 1 plus 1 -> 2 to A2 and drop a loop.
    with pytest.raises(ValueError, match="loop|2-cycle"):
        b_matrix(Quiver(("1", "2"), arrows))


def test_initial_seed_validation():
    with pytest.raises(ValueError):
        initial_seed(((0, 1), (1, 0)))   # not skew-symmetric


def test_mutation_involution():
    rng = random.Random(0)
    seed0 = seed_from_quiver(CYCLE4)
    seed = seed0
    for _ in range(5):
        seed = mutate(seed, rng.randrange(1, 5))
    for k in range(1, 5):
        assert mutate(mutate(seed, k), k) == seed


def test_a3_finite_type():
    # A3 has 7 distinct F-polynomials: one per positive root, plus the
    # constant 1 shared by the three initial cluster variables
    a3 = Quiver(("1", "2", "3"), ((0, 1), (1, 2)))
    seen = set()
    rng = random.Random(1)
    for _ in range(60):
        seed = seed_from_quiver(a3)
        for _ in range(8):
            seed = mutate(seed, rng.randrange(1, 4))
        seen.update(seed.f)
    assert len(seen) == 7


def find_by_top_dim(seed, dims):
    """F-polynomial of the unique slot whose top exponent matches dims."""
    dims = tuple(dims)
    matches = [i for i in range(seed.n)
               if max(seed.f[i].terms, key=sum, default=None) == dims]
    if not matches:
        raise KeyError(f"no cluster variable with top dimension {dims}")
    if len(matches) > 1:
        raise KeyError(f"top dimension {dims} is ambiguous (slots {matches})")
    return seed.f[matches[0]]


def test_kronecker_preprojective_chain():
    # alternating mutations walk through the (1,2), (2,3), (3,4) modules;
    # each F-polynomial must match the point-counting one
    seed = seed_from_quiver(kronecker_quiver(2))
    found = {}
    for k in (2, 1, 2, 1):
        seed = mutate(seed, k)
        for f in seed.f:
            found[max(f.terms, key=sum)] = f
    for dims in ((1, 2), (2, 3), (3, 4)):
        r = RepRecipe(kronecker_quiver(2), dims, seed=0)
        assert found[dims] == f_polynomial(r)
    # the final seed holds the last two of them, retrievable by top dim
    assert find_by_top_dim(seed, (3, 4)) == found[(3, 4)]


def test_potential_example_17_terms():
    seed = run_sequence(b_matrix(CYCLE4), (3, 4, 1, 2))
    f = find_by_delta(seed, (-1, 1, 1, 0))
    assert len(f) == 17
    assert max(f.terms, key=sum) == (2, 1, 3, 1)
    y1, y2, y3, y4 = (MultiPoly.monomial(4, e) for e in
                      ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
    one = MultiPoly.one(4)
    printed = (one + y3 + y3 * y4 + 2 * y1 + 4 * y1 * y3 + 2 * y1 * y3 * y4
               + 2 * y1 * y3 ** 2 + 2 * y1 * y3 ** 2 * y4 + y1 ** 2
               + 3 * y1 ** 2 * y3 + y1 ** 2 * y3 * y4 + 3 * y1 ** 2 * y3 ** 2
               + 2 * y1 ** 2 * y3 ** 2 * y4 + y1 ** 2 * y3 ** 3
               + y1 ** 2 * y3 ** 3 * y4 + y1 ** 2 * y2 * y3 ** 2 * y4
               + y1 ** 2 * y2 * y3 ** 3 * y4)
    assert f == printed


def test_dual_delta_examples():
    # sequence (2,3,4,1,2,3): dual delta (1,-1,1,1), dims (2,5,2,2)
    seed = run_sequence(b_matrix(CYCLE4), (2, 3, 4, 1, 2, 3))
    f = find_by_delta(seed, (1, -1, 1, 1), dual=True)
    assert max(f.terms, key=sum) == (2, 5, 2, 2)
    # sequence (2,3,4,1,2): dual delta (1,-1,2,0); its polytope has a
    # facet with normal (0,1,-1,-1)
    seed = run_sequence(b_matrix(CYCLE4), (2, 3, 4, 1, 2))
    f = find_by_delta(seed, (1, -1, 2, 0), dual=True)
    normals = {n for n, _ in convex_hull(f.support()).facets}
    assert (0, 1, -1, -1) in normals


def test_criterion_3_sequence_product_count(monkeypatch):
    # Work-count guard on the exchange relation: powering without a
    # product by one or a squaring past the top bit takes the 51
    # polynomial products of this sequence down to 19.
    products = []
    real_mul = MultiPoly.__mul__

    def spy(self, other):
        products.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", spy)
    run_sequence(b_matrix(CYCLE4), (2, 3, 4, 1, 2, 3))
    assert len(products) == 19


def test_f_polynomials_have_unit_constant_and_positive_coeffs():
    rng = random.Random(2)
    seed = seed_from_quiver(CYCLE4)
    for _ in range(12):
        seed = mutate(seed, rng.randrange(1, 5))
        for f in seed.f:
            assert f.constant_term() == 1
            assert all(c > 0 for c in f.terms.values())


def test_find_by_delta_errors():
    seed = seed_from_quiver(kronecker_quiver(2))
    with pytest.raises(KeyError):
        find_by_delta(seed, (5, 5))


def test_categorification_matches_counting():
    # mutation F-polynomials equal point-counting F-polynomials for the
    # generic module of the matching dimension vector (acyclic case)
    a3 = Quiver(("1", "2", "3"), ((0, 1), (2, 1)))   # another orientation
    rng = random.Random(3)
    seed = seed_from_quiver(a3)
    for _ in range(6):
        seed = mutate(seed, rng.randrange(1, 4))
    for f in seed.f:
        top = max(f.terms, key=sum)
        if sum(top) == 0:
            continue
        assert f == f_polynomial(RepRecipe(a3, top, seed=0))
