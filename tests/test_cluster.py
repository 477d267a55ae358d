import dataclasses
import heapq
import json
import math
import random

import pytest

from fpoly import cluster, polynomial
from fpoly.cli import main
from fpoly.cluster import (b_matrix, find_by_delta, initial_seed, mutate,
                           run_sequence, seed_from_quiver)
from fpoly.errors import InvariantViolation
from fpoly.polynomial import MultiPoly, f_polynomial
from fpoly.polytope import convex_hull
from fpoly.quiver import Quiver, euler_form, kronecker_quiver, unit_vector
from fpoly.rep import RepRecipe

# 4-vertex quiver with a 3-cycle, the running potential example:
# arrows 1->4, 2->1, 2->3, 2->4, 3->1, 4->3
CYCLE4 = Quiver(("1", "2", "3", "4"),
                ((0, 3), (1, 0), (1, 2), (1, 3), (2, 0), (3, 2)))
A3 = Quiver(("1", "2", "3"), ((0, 1), (1, 2)))
A4 = Quiver(("1", "2", "3", "4"), ((0, 1), (1, 2), (2, 3)))
D4 = Quiver(("1", "2", "3", "4"), ((0, 3), (1, 3), (2, 3)))
Q123 = Quiver(("1", "2", "3"), ((0, 1), (0, 1), (1, 2)))   # 1 => 2 -> 3


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


def test_one_elimination_per_seed_query(monkeypatch, tmp_path, capsys):
    # G = (C^T)^-1 holds the dual g-vector of every slot, so a query
    # eliminates C^T once, not once per slot.
    calls = []

    def spy(*args, real=cluster.solver):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(cluster, "solver", spy)
    seed = run_sequence(b_matrix(CYCLE4), (3, 4, 1, 2))
    assert len(find_by_delta(seed, (-1, 1, 1, 0))) == 17
    assert len(calls) == 1
    path = tmp_path / "cycle4.json"
    path.write_text(json.dumps(CYCLE4.to_json()))
    assert main(["mutate", "--quiver", str(path), "--seq", "3,4,1,2"]) == 0
    assert len(json.loads(capsys.readouterr().out)["slots"]) == 4
    assert len(calls) == 2


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
    # polynomial products of this sequence down to 19, counted in the
    # engine's one product loop.
    products = []
    real_times = polynomial._times

    def spy(a, b):
        products.append(1)
        return real_times(a, b)

    monkeypatch.setattr(polynomial, "_times", spy)
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


def _start(start):
    return initial_seed(start) if isinstance(start, tuple) else seed_from_quiver(start)


def _walk(start, length, rng):
    """(k, seed) along a random walk from the initial seed of a quiver or
    an exchange matrix that never mutates one slot twice in a row."""
    seed, prev = _start(start), None
    for _ in range(length):
        prev = rng.choice([k for k in range(1, seed.n + 1) if k != prev])
        seed = mutate(seed, prev)
        yield prev, seed


@pytest.mark.parametrize("quiver, variables", [(A3, 9), (A4, 14), (D4, 16)])
def test_delta_is_a_function_of_the_cluster_variable(quiver, variables):
    # A cluster variable is determined by its g-vector, and on an acyclic
    # quiver delta = -g is the Euler row (<d, e_i>)_i of its dimension
    # vector d, or -e_i for an initial variable x_i, in whichever slot.
    n, rng = quiver.n, random.Random(6)
    initial = {tuple(-x for x in unit_vector(n, v)) for v in range(n)}
    f_of, delta_of = {}, {}
    for _, seed in _walk(quiver, 400, rng):
        for f, delta in zip(seed.f, seed.deltas()):
            top = max(f.terms, key=sum)
            assert f_of.setdefault(delta, f) == f
            if any(top):
                assert delta_of.setdefault(f, delta) == delta
                assert delta == tuple(euler_form(quiver, top, unit_vector(n, v))
                                      for v in range(n))
            else:
                assert delta in initial
    assert len(f_of) == variables


def test_delta_is_a_function_of_f_on_the_4_cycle():
    # Walks longer than six steps soon reach F-polynomials of many
    # thousands of terms.
    rng, f_of, delta_of = random.Random(7), {}, {}
    for _ in range(60):
        for _, seed in _walk(CYCLE4, 6, rng):
            for f, delta in zip(seed.f, seed.deltas()):
                assert f_of.setdefault(delta, f) == f
                if len(f) > 1:
                    assert delta_of.setdefault(f, delta) == delta
    assert len(delta_of) > 50


def test_inexact_exchange_is_an_invariant_violation():
    seed = run_sequence(b_matrix(A3), (1, 2))
    y1 = MultiPoly.monomial(3, (1, 0, 0))
    broken = dataclasses.replace(seed, f=(y1 + 2,) + seed.f[1:])
    with pytest.raises(InvariantViolation, match="not exact"):
        mutate(broken, 1)


# A reference exchange step on exponent tuples, apart from the packed engine:
# term dicts, products term by term, powers by repeated products and the
# heap division keyed by (-degree, exponent).

def _tuple_product(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _tuple_divide(num, den):
    dexp = max(den, key=lambda e: (sum(e), tuple(-x for x in e)))
    dcoef, tail = den[dexp], [(e, c) for e, c in den.items() if e != dexp]
    rem, quot = dict(num), {}
    heap = [(-sum(e), e) for e in rem]
    heapq.heapify(heap)
    while rem:
        exp = heapq.heappop(heap)[1]
        if exp not in rem:
            continue
        coef = rem.pop(exp)
        qexp = tuple(a - b for a, b in zip(exp, dexp))
        assert min(qexp) >= 0 and coef % dcoef == 0
        qcoef = quot[qexp] = coef // dcoef
        for e2, c2 in tail:
            key = tuple(a + b for a, b in zip(qexp, e2))
            c = rem.get(key, 0) - qcoef * c2
            if not c:
                del rem[key]
                continue
            if key not in rem:
                heapq.heappush(heap, (-sum(key), key))
            rem[key] = c
    return quot


def _tuple_mutate(b, c, gc, f, k0):
    """(B, C, dual g-vectors, F term dicts) mutated at slot k0."""
    n, pos = len(b), lambda x: max(x, 0)

    def rows(mat, is_b):
        return tuple(tuple(-row[j] if (is_b and i == k0) or j == k0 else
                           row[j] + pos(row[k0]) * pos(b[k0][j])
                           - pos(-row[k0]) * pos(-b[k0][j]) for j in range(n))
                     for i, row in enumerate(mat))

    eps = 1 if any(c[i][k0] > 0 for i in range(n)) else -1
    gck = tuple(-gc[k0][j] + sum(pos(-eps * b[i][k0]) * gc[i][j] for i in range(n))
                for j in range(n))
    sides = []
    for sign in (1, -1):
        side = {tuple(pos(sign * c[i][k0]) for i in range(n)): 1}
        for j in range(n):
            for _ in range(pos(sign * b[j][k0])):
                side = _tuple_product(side, f[j])
        sides.append(side)
    num = dict(sides[0])
    for e, coef in sides[1].items():
        num[e] = num.get(e, 0) + coef
    fk = _tuple_divide(num, f[k0])
    return (rows(b, True), rows(c, False), gc[:k0] + (gck,) + gc[k0 + 1:],
            f[:k0] + (fk,) + f[k0 + 1:])


K3 = kronecker_quiver(3)
MARKOV = Quiver(("1", "2", "3"), ((0, 1), (0, 1), (1, 2), (1, 2), (2, 0), (2, 0)))
# These walks reach thousands of terms within a few steps, so each stops
# after the first step whose largest F passes its bound.
WALK_TERMS = {K3: 300, MARKOV: 300}


def _times(a, b):
    """The product of integer matrices given as row tuples."""
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*b))
                 for row in a)


@pytest.mark.parametrize("start, walks, length", [
    (A3, 1, 60), (D4, 1, 60), (A4, 1, 60),
    (kronecker_quiver(2), 1, 18),     # up to 172 terms
    (Q123, 8, 7),                     # up to 3,295 terms
    (CYCLE4, 12, 6),                  # up to 249 terms
    (((0, -300), (300, 0)), 1, 2),    # 302 terms, exponents up to 300
    (((0, -17), (17, 0)), 1, 3),      # 2,602 terms, exponent 288, divided by 1 + y_i
    (K3, 4, 20),                      # up to 617 terms
    (MARKOV, 12, 20)])                # up to 892 terms
def test_mutate_equals_the_tuple_arithmetic(start, walks, length):
    # The reference keeps the B, C and dual-g recurrences, so each step
    # also checks tropical duality: B = C^T B0 C and G^T C = I.
    rng = random.Random(8)
    for _ in range(walks):
        seed = _start(start)
        old = (seed.b, seed.c, seed.c, tuple(f.terms for f in seed.f))   # G = C = I
        for k, seed in _walk(start, length, rng):
            old = _tuple_mutate(*old, k - 1)
            b, c, gc = old[:3]
            assert (seed.b, seed.c) == (b, c)
            assert tuple(tuple(-x for x in d) for d in seed.deltas(dual=True)) == gc
            assert b == _times(tuple(zip(*c)), _times(seed.b0, c))
            assert _times(gc, c) == _start(start).c     # gc holds the rows of G^T
            assert [f.terms for f in seed.f] == list(old[3])
            if max(map(len, seed.f)) > WALK_TERMS.get(start, math.inf):
                break


@pytest.mark.parametrize("c", [((1, 0), (1, 0)), ((2, 0), (0, 1))])
def test_a_c_matrix_that_is_not_unimodular_is_an_invariant_violation(c):
    seed = dataclasses.replace(run_sequence(b_matrix(kronecker_quiver(2)), (1,)), c=c)
    for dual in (False, True):
        with pytest.raises(InvariantViolation, match="not unimodular"):
            seed.deltas(dual)
