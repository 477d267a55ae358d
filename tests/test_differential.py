"""Randomized differential checks of the Grassmannian walks and the
torsion paths.

``subrep_counts`` counts every gamma in one memoized walk, on M or on
DM and with some vertices counted by rank, and ``unique_subrep`` reads
its table; ``enumerate_subreps`` runs the same
step depth first.  All are checked against an independent oracle, the
brute-force count over every tuple of subspaces, and not only against
each other.  ``torsion_split`` reads L_min and L_max off the extreme
maximizing dimension vectors; it is checked against the fold of
intersections and sums over every maximizing subrepresentation.
``stable_factors`` takes the first point of the least delta-null
dimension vector as each stable factor; it is checked against the
stability search it replaced, which tests every candidate with the
reference ``is_stable`` of ``test_stabilization``.
All cases are small random representations, some with sparse matrices.
The 4-cycle has arrows that close a cycle, so its walks take the
deferred-arrow path; the loop quiver's loop is a deferred arrow that
its own vertex checks.

``convex_hull`` runs one double description routine; it is checked for
exact equality against the exhaustive subset search in
``exhaustive_polytope``, on random point sets (with duplicates and
lower-dimensional sets).  The oracle keeps its own ``Fraction``
elimination, affine hull and cofactor normals and imports only
``Polytope`` from the library, so a fault in the library's integer
echelon (``intlinalg``) cannot reach both sides.  That echelon, with its
rank, null space and solver, is also compared directly with the
oracle's ``Fraction`` elimination.

``verify_cones`` passes when every facet of the hull passes through 0 or
alpha.  The round trip it replaced, rebuilt on the oracle's dual cones
and H-to-V conversion, is its reference on random point sets that
contain 0 and alpha, with 1-4 coordinates, some of them
lower-dimensional: the same pass or fail (a rebuild that raises is a
fail), and a witness naming exactly the facets through neither.

``RepRecipe.at_prime`` and ``subrep_counts`` are memoized by value;
their cached results are checked against the uncached computations, and
the cost cap against a cache hit.

For certified-rigid input, ``f_polynomial`` and ``graded_semistable_f``
fit their count tables, through the one ``polynomial.fit_tables``, as
palindromic counting polynomials of degree <gamma, alpha - gamma> from
fewer primes.  The box-bound fit, forced by patching the two rigidity
gates, is their reference on the rigid instances of acceptance criteria
7 and 8.  Both plan their primes through ``polynomial.plan_fit``.  A
test-local copy of the two plans it replaced is its reference on
certified-rigid seeded recipes and on explicit recipes rigid mod 2 and
3: the recipe's plan (the generic End sampled at large primes, each
explicit reduction, and the sub-dimension sets at p = 2 and 3) and the
graded plan (W rigid at every prime of the plan, else the box primes)
read the same primes.  The references, and the fits of single keys
below, size and degree their fits by test-local formulas over the
test-local ``first_primes``, so a fault in ``plan_fit`` or
``polynomial._fit_size`` cannot reach both sides.

Any other recipe is fitted at the box bound from one count table per
prime.  ``fit_tables`` reads the tables in prime order and stops at the
first prime where a Newton divided difference of some key's counts is a
fraction.  The box fit's outcome, F or the error type, is checked
against a test-local fit of one gamma at a time, from its counts at
every box prime, on random non-rigid seeded and explicit recipes of K1,
K2, K3, A3 and 1=>2->3.  The early stop is checked against the full fit of
``_chi_fit`` on the same points, plain and palindromic: it never fires
on the values of an integer polynomial, and fires on random counts only
where that fit fails.  ``_chi_fit`` itself is one integer elimination,
shared by every key of one degree; a test-local copy of the rational
Newton fit it replaced (with the p + 1/p node map for palindromes) is
its reference on random point sets: exact, perturbed, random, all-zero
and integer-valued but non-integral counts, with too few points or up
to two spare ones.

``graded_semistable_f`` runs the stable filtration at the base prime
only when the stable dimension vectors are independent, and reuses its
classes at the later primes.  A test-local copy of the loop that
filtered the perp at every counted prime is its reference on every
facet of random certified-rigid recipes of K2, K3, A3, 1=>2->3 and D4:
the same graded data, and at every prime read the same perp dimension
vector and stable dimension vectors.  The copy grades its counts itself,
by its own solve of each delta-null gamma or its own matching of stable
factors, so a fault in ``graded_counts`` cannot reach both sides.  A sum
of two (1,1) bricks over K2, whose stable classes are dependent, still
filters at every prime, once per prime: each point is graded by its own
factors, not by a filtration into classes of its own.

``verify_saturation`` skips the support half of a seeded recipe that is
not rigid, and reuses the hull and lattice points of the sub-dimension
set when the support equals it.  A test-local copy of the check it
replaced, which counted every support and built its hull apart, is its
reference on the rigid instances of acceptance criterion 8 and on
explicit matrices, some random and one sum of two bricks that is not
rigid and is still counted: the same report or error type, from one
hull whenever the support equals the sub-dimension set.

``presentations.generic_hom_e`` and the generic End take the least hom
over seeded draws through one sampler, which stops at the first draw
that reaches the Euler-form floor.  The loops it replaced left only the
loop of one prime at the floor and drew on at the later primes.
Test-local copies of those loops are the reference, on random dimension
vectors, weights and seeds over K2, K3, A3 and 1=>2->3.

``generic_hom_ext`` and ``generic_sub_dims`` are exact, from Schofield's
recursion on the Euler form, and draw nothing.  The test-local loop of
the seeded sampler that ``generic_hom_ext`` replaced is its reference on
random pairs of dimension vectors (entries up to 3) over K2, K3, A3,
1=>2->3 and D4.  The sub-dimension sets enumerated at p = 2 and 3 of
certified-rigid seeded recipes of the same quivers are the reference of
``generic_sub_dims``.
"""

import itertools
import math
import random
import sys
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import pytest

import exhaustive_polytope
from fpoly import grassmannian, polynomial, stabilization, rep as rep_module
from fpoly.errors import (CostCapExceeded, FpolyError, InvariantViolation,
                          NonPolynomialCount)
from fpoly.grassmannian import (CERTIFY_PRIMES, enumerate_subreps,
                                maximizer_dims, sub_dim_vectors, subrep_counts,
                                subrep_dim_vectors, unique_subrep)
from fpoly.intlinalg import echelon, nullspace, solver
from fpoly.polynomial import MultiPoly
from fpoly.polytope import convex_hull, lattice_points
from fpoly.presentations import generic_hom_e, hom_e, random_presentation
from fpoly.quiver import (MAX_VERTEX_DIM, Quiver, euler_form, kronecker_quiver,
                          vec_dot, vec_sub)
from fpoly.rep import (Representation, RepRecipe, generic_hom_ext,
                       generic_sub_dims, hom_dim, is_arrow_stable,
                       random_representation, restrict_to_sub, stable_rng)
from fpoly.stabilization import (BASE_PRIME, graded_semistable_f,
                                 stable_factors, torsion_split)
from test_acceptance import RIGID_INSTANCES
from test_grassmannian import brute_force_count
from test_polynomial import chi_from_counts, first_primes
from test_kernels import subspace_intersection, subspace_sum
from test_stabilization import K22_BRICKS, K33_EXTENSION, is_stable

QUIVERS = {
    "K2": kronecker_quiver(2),
    "A3": Quiver(("1", "2", "3"), ((0, 1), (2, 1))),
    "1=>2->3": Quiver(("1", "2", "3"), ((0, 1), (0, 1), (1, 2))),
    "4-cycle": Quiver(("1", "2", "3", "4"),
                      ((0, 3), (1, 0), (1, 2), (1, 3), (2, 0), (3, 2))),
    "loop": Quiver(("1", "2"), ((0, 0), (0, 1), (1, 0))),
}
D4 = Quiver(("1", "2", "3", "4"), ((0, 1), (2, 1), (3, 1)))
TRIALS = 60


def _random_reps(quiver, rng):
    done = 0
    while done < TRIALS:
        dims = tuple(rng.randrange(3) for _ in range(quiver.n))
        if not any(dims) or sum(dims) > 5:
            continue
        yield random_representation(quiver, dims, rng.choice((2, 3)), rng)
        done += 1


def _sparse(rep, rng):
    """``rep`` with most matrix entries zeroed: sparse matrices give
    special, non-generic Grassmannians."""
    return Representation(rep.quiver, rep.p, rep.dims, tuple(
        tuple(tuple(x if rng.random() < 0.3 else 0 for x in row) for row in mat)
        for mat in rep.matrices))


def _folded_extremes(rep, delta):
    """Intersection and sum of every delta-maximizing subrepresentation."""
    low = high = None
    for gamma in maximizer_dims(rep, delta):
        for sub in enumerate_subreps(rep, gamma):
            if low is None:
                low, high = list(sub.bases), list(sub.bases)
                continue
            for v, n in enumerate(rep.dims):
                low[v] = subspace_intersection(low[v], sub.bases[v],
                                               n, rep.p)[0]
                high[v] = subspace_sum(high[v], sub.bases[v], n, rep.p)[0]
    return tuple(low), tuple(high)


def test_enumeration_agrees_with_point_count():
    assert not QUIVERS["4-cycle"].acyclic
    rng = random.Random(30)
    for name, quiver in QUIVERS.items():
        for rep in _random_reps(quiver, rng):
            for gamma in itertools.product(*(range(d + 1) for d in rep.dims)):
                where = (name, rep.p, rep.matrices, gamma)
                count = subrep_counts(rep).get(gamma, 0)
                subs = list(enumerate_subreps(rep, gamma))
                assert count == brute_force_count(rep, gamma), where
                assert len(subs) == count, where
                assert len(set(subs)) == len(subs), where
                for sub in subs:
                    assert sub.dims == gamma, where
                    assert is_arrow_stable(rep, sub.bases, sub.pivots), where


def test_count_table_equals_brute_force():
    rng = random.Random(35)
    for name, quiver in QUIVERS.items():
        for p in (2, 3, 5):
            for trial in range(12):
                dims = tuple(rng.randrange(3) for _ in range(quiver.n))
                rep = random_representation(quiver, dims, p, rng)
                if trial % 2:
                    rep = _sparse(rep, rng)
                table = subrep_counts(rep)
                where = (name, p, rep.matrices)
                box = itertools.product(*(range(d + 1) for d in dims))
                expected = {}
                for gamma in box:
                    count = table.get(gamma, 0)
                    assert count == brute_force_count(rep, gamma), (where, gamma)
                    if count:
                        expected[gamma] = count
                    sub = unique_subrep(rep, gamma)
                    assert (sub is not None) == (count == 1), (where, gamma)
                    # The zero and the whole one, taken as they stand, are
                    # the walk's points too.
                    assert sub is None or sub == next(enumerate_subreps(rep, gamma)), (
                        where, gamma)
                assert dict(table) == expected, where
                assert list(table) == sorted(expected), where


def test_torsion_split_extremes_equal_fold_over_maximizers():
    # A trivial extreme (L_min = 0 or L_max = M) is taken as it stands by
    # unique_subrep, with no walk; every mix of trivial and not is met.
    rng = random.Random(31)
    trivial = Counter()
    for name, quiver in QUIVERS.items():
        for rep in _random_reps(quiver, rng):
            for _ in range(3):
                delta = tuple(rng.randrange(-2, 3) for _ in range(quiver.n))
                split = torsion_split(rep, delta)
                low, high = _folded_extremes(rep, delta)
                where = (name, rep.matrices, delta)
                assert split.l_min.bases == low, where
                assert split.l_max.bases == high, where
                trivial[not any(split.l_min.dims), split.l_max.dims == rep.dims] += 1
    assert all(trivial[key] >= 10 for key in itertools.product((False, True), repeat=2)), trivial


def _searched_minimal_stable_sub(w_rep, delta):
    """The stability search: every point of every delta-null nonzero
    sub-dimension vector, by (total dimension, gamma), until one is
    stable by its own count table."""
    for gamma in sorted(subrep_dim_vectors(w_rep), key=lambda g: (sum(g), g)):
        if sum(gamma) == 0 or vec_dot(delta, gamma) != 0:
            continue
        for sub in enumerate_subreps(w_rep, gamma):
            cand = restrict_to_sub(w_rep, sub)
            if is_stable(cand, delta):
                return sub, cand
    return None


def test_stable_factors_equal_the_stability_search(monkeypatch):
    rng = random.Random(36)
    cases = []
    for name in ("K2", "A3", "1=>2->3"):
        quiver = QUIVERS[name]
        for trial in range(TRIALS):
            dims = tuple(rng.randrange(3) for _ in range(quiver.n))
            rep = random_representation(quiver, dims, rng.choice((2, 3)), rng)
            if trial % 2:
                rep = _sparse(rep, rng)
            # Small weights tie often, so perp is often nonzero.
            delta = tuple(rng.randrange(-1, 2) for _ in range(quiver.n))
            cases.append((name, torsion_split(rep, delta).perp, delta))
    found = [stable_factors(perp, delta) for _, perp, delta in cases]
    monkeypatch.setattr(stabilization, "_minimal_stable_sub",
                        _searched_minimal_stable_sub)
    for (name, perp, delta), data in zip(cases, found):
        assert stable_factors(perp, delta) == data, (name, perp.matrices, delta)
    lengths = Counter(sum(data.multiplicities) for data in found)
    assert lengths[0] and lengths[1] and sum(
        n for length, n in lengths.items() if length > 1) >= 20, lengths


def _degree(quiver, alpha, palindromic):
    """gamma -> the degree of a fit of Gr_gamma of an alpha-dimensional M:
    <gamma, alpha - gamma> if ``palindromic``, else the box bound
    sum gamma_v (alpha_v - gamma_v)."""
    if palindromic:
        return lambda gamma: euler_form(quiver, gamma, vec_sub(alpha, gamma))
    return lambda gamma: sum(g * (a - g) for g, a in zip(gamma, alpha))


def _fit_primes(degree, palindromic):
    """The first primes of a fit at ``degree``: D // 2 + 1 unknowns if
    palindromic, else D + 1, and VERIFY_PRIMES more that check it."""
    return first_primes((max(degree, 0) // 2 if palindromic else degree) + 1
                        + polynomial.VERIFY_PRIMES)


def _box_primes(alpha):
    """The primes of a box-bound fit of every gamma <= alpha: the bound
    sum gamma_v (alpha_v - gamma_v) peaks at gamma = alpha // 2."""
    return _fit_primes(sum((a // 2) * (a - a // 2) for a in alpha), palindromic=False)


def _old_split_at_prime(recipe, delta, p):
    """The torsion split of M mod p and the stable classes of its perp's
    own filtration, as every prime found them before the later primes
    reused the base prime's classes."""
    split = torsion_split(recipe.at_prime(p), delta)
    return split, stable_factors(split.perp, delta).stables


def _old_graded_counts(perp, delta, stables):
    """Semistable subrepresentations of ``perp`` per multiplicity vector in
    ``stables``, graded here and not by ``stabilization.graded_counts``:
    with independent stable dimension vectors each delta-null gamma of
    ``subrep_counts`` is solved on their own rows, and a gamma outside
    their cone is a bug at the base prime and a mismatch at a later one;
    else the stable factors of each point are matched to ``stables`` by
    dimension vector and a nonzero Hom."""
    rows = [[s.dims[v] for s in stables] for v in range(len(perp.dims))]
    solve = solver(rows, len(stables))
    counts = {}
    for gamma, count in subrep_counts(perp).items():
        if vec_dot(delta, gamma) != 0:
            continue
        if solve is not None:
            m = solve(gamma)
            if m is None or any(x < 0 for x in m):
                error = InvariantViolation if perp.p == BASE_PRIME else NonPolynomialCount
                raise error(f"gamma={gamma} is outside the stable cone at p={perp.p}")
            counts[m] = counts.get(m, 0) + count
            continue
        for sub in enumerate_subreps(perp, gamma):
            data = stable_factors(restrict_to_sub(perp, sub), delta)
            m = [0] * len(stables)
            for rep, cnt in zip(data.stables, data.multiplicities):
                match = [i for i, s in enumerate(stables)
                         if s.dims == rep.dims and hom_dim(rep, s) != 0]
                if not match:
                    raise InvariantViolation("stable factor not among the expected classes")
                m[match[0]] += cnt
            counts[tuple(m)] = counts.get(tuple(m), 0) + 1
    return counts


def _old_graded_semistable_f(recipe, delta):
    """``graded_semistable_f`` as it was when every counted prime ran the
    stable filtration of its own perp."""
    base_split, base_stables = _old_split_at_prime(recipe, delta, BASE_PRIME)
    stable_dims = tuple(s.dims for s in base_stables)
    w_dims = base_split.perp.dims
    per_prime = {}

    def counts_at(p):
        if p not in per_prime:
            split, stables = ((base_split, base_stables) if p == BASE_PRIME
                              else _old_split_at_prime(recipe, delta, p))
            if tuple(s.dims for s in stables) != stable_dims:
                raise NonPolynomialCount(f"stable classes at p={p} do not match")
            per_prime[p] = (_old_graded_counts(split.perp, delta, stables),
                            rep_module._is_rigid_rep(split.perp))
        return per_prime[p]

    def grade_degree(palindromic):
        degree = _degree(recipe.quiver, w_dims, palindromic)
        return lambda m: degree(tuple(sum(mi * d[v] for mi, d in zip(m, stable_dims))
                                      for v in range(len(w_dims))))

    base_counts, palindromic = counts_at(BASE_PRIME)
    palindromic = palindromic and _independent(stable_dims)
    if palindromic:
        primes = _fit_primes(max(map(grade_degree(True), base_counts)), palindromic=True)
        palindromic = all(counts_at(p)[1] for p in primes)
    if not palindromic:
        primes = _box_primes(w_dims)
    terms = polynomial.fit_tables(((p, counts_at(p)[0]) for p in primes),
                                  grade_degree(palindromic), palindromic)
    return stabilization.GradedData(MultiPoly(len(stable_dims), terms), stable_dims,
                                    base_split.l_min.dims, base_split.l_max.dims)


def _independent(stable_dims):
    n = len(stable_dims[0]) if stable_dims else 0
    return solver([[d[v] for d in stable_dims] for v in range(n)],
                  len(stable_dims)) is not None


def _certified_rigid(recipe):
    """Whether the recipe is rigid mod every CERTIFY_PRIMES, as the rigid
    fit and the vertex report ask."""
    return all(map(recipe.is_rigid_at, CERTIFY_PRIMES))


def _rigid_recipes(rng, count, explicit=False):
    """Certified-rigid recipes of total dimension 6 at most: seeded, or
    with explicit matrices (entries from -3 to 7) rigid mod 2 and 3."""
    quivers = [QUIVERS["K2"], kronecker_quiver(3), QUIVERS["A3"],
               QUIVERS["1=>2->3"], D4]
    found = 0
    while found < count:
        quiver = rng.choice(quivers)
        dims = tuple(rng.randrange(4) for _ in range(quiver.n))
        if not 0 < sum(dims) <= 6:
            continue
        recipe = (RepRecipe(quiver, dims, int_matrices=tuple(
            tuple(tuple(rng.randrange(-3, 8) for _ in range(dims[s]))
                  for _ in range(dims[t])) for s, t in quiver.arrows)) if explicit
            else RepRecipe(quiver, dims, seed=rng.randrange(100)))
        if _certified_rigid(recipe):
            found += 1
            yield recipe


def _graded_with_primes(monkeypatch, recipe, delta):
    """``graded_semistable_f`` or its error type, the primes at which it
    split M and those at which it ran a stable filtration."""
    split_at, filtered_at = [], []

    def spy_split(m_rep, delta, real=torsion_split):
        split_at.append(m_rep.p)
        return real(m_rep, delta)

    def spy_filter(w_rep, delta, real=stable_factors):
        filtered_at.append(w_rep.p)
        return real(w_rep, delta)

    with monkeypatch.context() as patched:
        patched.setattr(stabilization, "torsion_split", spy_split)
        patched.setattr(stabilization, "stable_factors", spy_filter)
        try:
            graded = graded_semistable_f(recipe, delta)
        except FpolyError as exc:
            graded = type(exc)
    return graded, split_at, filtered_at


def _check_against_the_per_prime_filtration(monkeypatch, recipe, delta):
    graded, split_at, filtered_at = _graded_with_primes(monkeypatch, recipe, delta)
    assert graded == _outcome(lambda r: _old_graded_semistable_f(r, delta), recipe)
    assert split_at[0] == BASE_PRIME and len(set(split_at)) == len(split_at)
    if isinstance(graded, type):
        return graded, split_at, filtered_at
    w = tuple(b - a for a, b in zip(graded.dim_t, graded.dim_t_check))
    for p in split_at:
        old_split, old_stables = _old_split_at_prime(recipe, delta, p)
        assert old_split.perp.dims == w, (recipe, delta, p)
        assert tuple(s.dims for s in old_stables) == graded.stable_dims, (recipe, delta, p)
    return graded, split_at, filtered_at


def test_base_prime_stables_equal_the_per_prime_filtration(monkeypatch):
    later, facets = 0, 0
    for recipe in _rigid_recipes(random.Random(21), 30):
        f = polynomial.f_polynomial(recipe)
        for delta, _ in convex_hull(f.support()).facets:
            graded, split_at, filtered_at = _check_against_the_per_prime_filtration(
                monkeypatch, recipe, delta)
            # Rigid perps have independent stable classes, filtered once.
            assert _independent(graded.stable_dims), (recipe, delta)
            assert filtered_at == [BASE_PRIME], (recipe, delta)
            facets, later = facets + 1, later + len(split_at) - 1
    assert facets >= 60 and later >= facets, (facets, later)
    # Two non-isomorphic (1,1) bricks have dependent stable dimension
    # vectors, so every prime still filters its own perp.
    bricks = RepRecipe(QUIVERS["K2"], (2, 2),
                       int_matrices=(((1, 0), (0, 1)), ((0, 0), (0, 1))))
    graded, split_at, filtered_at = _check_against_the_per_prime_filtration(
        monkeypatch, bricks, (1, -1))
    assert graded.stable_dims == ((1, 1), (1, 1)) and len(split_at) > 1
    # One filtration per split prime: each point is graded by its own
    # factors, not by a filtration of its own classes.
    assert filtered_at == split_at, (split_at, filtered_at)


def test_per_prime_caches_return_the_uncached_values():
    draw, dims_of = rep_module._generic_draw, grassmannian.subrep_counts
    draw.cache_clear()
    dims_of.cache_clear()
    k2 = QUIVERS["K2"]
    recipes = [RepRecipe(k2, (2, 3), seed=s) for s in (0, 1)]
    reps = {}
    for recipe in recipes:
        for p in (2, 3):
            cold = recipe.at_prime(p)
            assert recipe.at_prime(p) is cold
            assert cold == draw.__wrapped__(recipe, p)
            assert cold.p == p and cold.dims == recipe.dims
            reps[recipe.seed, p] = cold
            expected = set(dims_of.__wrapped__(cold))
            assert subrep_dim_vectors(cold) == expected
            assert subrep_dim_vectors(cold) == expected
    # Distinct seeds and primes are distinct draws, each its own entry.
    assert len(set(reps.values())) == 4
    assert draw.cache_info().misses == 4
    assert dims_of.cache_info().misses == 4

    # Equal representations built apart share one entry.
    dims_of.cache_clear()
    mats = random_representation(k2, (2, 2), 3, random.Random(34)).matrices
    first, second = (Representation(k2, 3, (2, 2), mats) for _ in range(2))
    assert first == second and first is not second
    assert subrep_dim_vectors(first) == subrep_dim_vectors(second)
    assert dims_of.cache_info()[:2] == (1, 1)   # hits, misses


def test_cost_cap_is_checked_on_every_call():
    one_vertex = Quiver(("1",), ())
    big = Representation(one_vertex, 2, (MAX_VERTEX_DIM + 1,), ())
    grassmannian.subrep_counts.cache_clear()
    for _ in range(2):
        with pytest.raises(CostCapExceeded):
            subrep_dim_vectors(big)
    # The table raises before its walk, so nothing is cached and each
    # call misses.
    info = grassmannian.subrep_counts.cache_info()
    assert (info.misses, info.currsize) == (2, 0)
    # S(alpha) of a seeded recipe needs no walk, and still checks the cap.
    with pytest.raises(CostCapExceeded):
        sub_dim_vectors(RepRecipe(QUIVERS["K2"], (MAX_VERTEX_DIM + 1,) * 2))


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
    for trial in range(200):
        dim = trial % 5 + 1
        points = _random_points(rng, dim)
        assert convex_hull(points) == exhaustive_polytope.convex_hull(points), points


def _cones_round_trip(points, alpha):
    """The cones check that ``verify_cones`` replaced, on the oracle: the
    hull's vertices dualized at 0 and at alpha give the two weight cones,
    whose rays cut out a polytope that must be the hull.  Returns the hull
    and whether the check passed (None where the rebuild raises)."""
    hull = exhaustive_polytope.convex_hull(points)
    hom_rays = exhaustive_polytope.dual_cone_rays(hull.vertices, len(alpha))
    e_rays = exhaustive_polytope.dual_cone_rays(
        [vec_sub(v, alpha) for v in hull.vertices], len(alpha))
    ineqs = {(r, 0) for r in hom_rays} | {(r, vec_dot(r, alpha)) for r in e_rays}
    try:
        rebuilt = exhaustive_polytope.polytope_from_inequalities(sorted(ineqs), len(alpha))
    except ValueError:
        return hull, None
    return hull, (rebuilt.vertices, rebuilt.facets) == (hull.vertices, hull.facets)


def test_cones_check_equals_the_round_trip(monkeypatch):
    monkeypatch.setattr(stabilization, "sub_dim_vectors", lambda recipe: recipe.points)
    rng = random.Random(35)
    outcomes = Counter()
    for trial in range(2000):
        dim = trial % 4 + 1
        alpha = tuple(rng.randrange(rng.choice((1, 2, 3)) + 1) for _ in range(dim))
        low = rng.choice((0, -1))
        points = [tuple(rng.randrange(low, a + 1) for a in alpha)
                  for _ in range(rng.randrange(5))] + [(0,) * dim, alpha]
        if dim > 1 and rng.random() < 0.3:
            # A lower-dimensional set through 0: the last coordinate is
            # linear in the others.
            coef = [rng.randrange(-2, 3) for _ in range(dim - 1)]
            points = [p[:-1] + (vec_dot(coef, p[:-1]),) for p in points]
            alpha = points[-1]
        hull, passed = _cones_round_trip(points, alpha)
        report = stabilization.verify_cones(SimpleNamespace(dims=alpha, points=points))
        assert report["pass"] == bool(passed), (points, alpha)
        if passed:
            assert report["polytope"] == hull.to_json()
        else:
            stray = [(n, h) for n, h in hull.facets if h not in (0, vec_dot(n, alpha))]
            assert report["witnesses"] == [f"facets through neither 0 nor dim M: {stray}"]
        outcomes[passed] += 1
    assert min(outcomes[True], outcomes[False], outcomes[None]) > 20, outcomes


def _random_matrix(rng, ncols):
    box = rng.choice((1, 3, 9))
    rows = [[rng.randrange(-box, box + 1) for _ in range(ncols)]
            for _ in range(rng.randrange(ncols + 3))]
    if rows and rng.random() < 0.3:
        rows.append([0] * ncols)
    if rows and rng.random() < 0.3:
        rows.append(list(rng.choice(rows)))
    if len(rows) > 1 and rng.random() < 0.3:
        # A dependent row that is neither zero nor a repeat.
        a, b = rng.sample(rows, 2)
        rows.append([2 * x - 3 * y for x, y in zip(a, b)])
    rng.shuffle(rows)
    return rows


def _solve_kind(rows, rhs, ncols):
    """How the oracle's rational solve of rows @ x = rhs turns out."""
    aug = [tuple(r) + (b,) for r, b in zip(rows, rhs)]
    if ncols in exhaustive_polytope.rref_frac(aug, ncols + 1)[1]:
        return "inconsistent"
    if exhaustive_polytope.rank_frac(rows, ncols) < ncols:
        return "underdetermined"
    x = exhaustive_polytope.solve_frac(rows, rhs, ncols)
    return "integral" if all(f.denominator == 1 for f in x) else "non-integral"


def test_integer_echelon_equals_rational_elimination():
    oracle = exhaustive_polytope
    rng = random.Random(34)
    fixed = [([], 3), ([[0, 0, 0]], 3), ([[-2, 4, 6], [-2, 4, 6]], 3),
             ([[0, -3], [-2, 1]], 2), ([[1, 2], [3, 4], [5, 6]], 2)]
    cases = fixed + [(_random_matrix(rng, n), n) for n in
                     (trial % 5 + 1 for trial in range(600))]
    kinds = Counter()
    for rows, ncols in cases:
        ech, pivots = echelon(rows, ncols)
        frac_rows, frac_pivots = oracle.rref_frac(rows, ncols)
        assert pivots == frac_pivots, rows
        assert len(pivots) == oracle.rank_frac(rows, ncols)
        assert ech == [oracle.primitive_vector(r) for r in frac_rows], rows
        assert nullspace(ech, pivots, ncols) == [
            oracle.primitive_vector(v) for v in oracle.nullspace_frac(rows, ncols)]
        solve = solver(rows, ncols)
        assert (solve is None) == (len(pivots) < ncols), rows
        for _ in range(3):
            if rng.random() < 0.5:
                x = [rng.randrange(-3, 4) for _ in range(ncols)]
                rhs = [vec_dot(r, x) for r in rows]
            else:
                rhs = [rng.randrange(-5, 6) for _ in rows]
            kind = _solve_kind(rows, rhs, ncols)
            kinds[kind] += 1
            if solve is not None:
                sol = oracle.solve_frac(rows, rhs, ncols)
                expected = tuple(int(f) for f in sol) if kind == "integral" else None
                assert solve(rhs) == expected, (rows, rhs)
    assert min(kinds[k] for k in ("inconsistent", "underdetermined",
                                  "non-integral", "integral")) >= 20, kinds


def _f_and_facets(recipe, deltas=None):
    """F-polynomial and the graded data of each facet, or the error type."""
    try:
        f = polynomial.f_polynomial(recipe)
    except FpolyError as exc:
        return type(exc).__name__, {}
    if deltas is None:
        deltas = [delta for delta, _ in convex_hull(f.support()).facets]
    graded = {}
    for delta in deltas:
        try:
            graded[delta] = graded_semistable_f(recipe, delta)
        except FpolyError as exc:
            graded[delta] = type(exc).__name__
    return f, graded


def test_rigid_fit_equals_box_bound_fit(monkeypatch):
    # Every fit runs a count fit of polynomial._chi_fit; each is counted
    # for its run and for the innermost of its two callers on the stack.
    callers = ("f_polynomial", "graded_semistable_f")
    fits, run = Counter(), ["fast"]

    def spy(primes, degree, palindromic, real=polynomial._chi_fit):
        frame = sys._getframe(1)
        while frame.f_code.co_name not in callers:
            frame = frame.f_back
        fit, caller = real(primes, degree, palindromic), frame.f_code.co_name

        def counted(counts):
            fits[run[0], caller, palindromic] += 1
            return fit(counts)
        return counted

    monkeypatch.setattr(polynomial, "_chi_fit", spy)
    for quiver, alpha in RIGID_INSTANCES:
        recipe = RepRecipe(quiver, alpha, seed=0)
        run[0] = "fast"
        fast = _f_and_facets(recipe)
        with monkeypatch.context() as box_bound:
            box_bound.setattr(RepRecipe, "is_rigid_at", lambda recipe, p: False)
            box_bound.setattr(stabilization, "_is_rigid_rep", lambda w_rep: False)
            run[0] = "box"
            box = _f_and_facets(recipe, list(fast[1]))
        assert fast == box, (quiver.arrows, alpha)
    # Both callers took the fast path on most of their fits, and only the
    # box-bound fit once the gates were patched.
    for caller in callers:
        assert fits["fast", caller, True] >= fits["fast", caller, False], fits
        assert fits["box", caller, False] > 0 == fits["box", caller, True], fits


def test_non_rigid_recipes_stay_on_the_box_bound(monkeypatch):
    k2 = kronecker_quiver(2)
    # (2,2) is isotropic: two independent draws have no homs between
    # them, but a general module has a 2-dimensional End.
    assert not RepRecipe(k2, (2, 2), seed=1).is_rigid_at(2)
    tables = []

    def spy(m_rep):
        tables.append(m_rep.p)
        return subrep_counts(m_rep)

    monkeypatch.setattr(polynomial, "subrep_counts", spy)
    # Counted at the box bound, seed 1 is not polynomial: Gr_(1,1) has
    # 1, 1, 1, 2 points at p = 2, 3, 5, 7, and f[5, 7] = 1/2.  A
    # palindromic fit at degree <gamma, alpha - gamma> = 0 would read
    # p = 2, 3 only and return a polynomial.
    with pytest.raises(NonPolynomialCount, match=r"\(7, 2\)\] of Gr_\(1, 1\)"):
        polynomial.f_polynomial(RepRecipe(k2, (2, 2), seed=1))
    assert tables == [2, 3, 5, 7]


def _old_rigid_primes(recipe):
    """The recipe's rigid primes as planned before ``plan_fit``, or None:
    the generic End sampled at large primes must equal <alpha, alpha>,
    explicit matrices must be rigid mod 2 and 3 and skip the later primes
    where they are not, and the degree bound reads the sub-dimension sets
    at p = 2 and 3, which must agree."""
    quiver, alpha = recipe.quiver, recipe.dims

    def rigid_at(p):
        return recipe.int_matrices is None or rep_module._is_rigid_rep(recipe.at_prime(p))

    if not (quiver.acyclic and rep_module._generic_end_dim(quiver, alpha)
            == euler_form(quiver, alpha, alpha) and all(map(rigid_at, (2, 3)))):
        return None
    sets = {subrep_dim_vectors(recipe.at_prime(p)) for p in (2, 3)}
    assert len(sets) == 1, recipe
    degree = _degree(quiver, alpha, True)
    need = len(_fit_primes(max(map(degree, sets.pop())), palindromic=True))
    # The first 60 primes run to 281, past any plan of these small recipes.
    return list(itertools.islice(filter(rigid_at, first_primes(60)), need))


def _old_graded_primes(quiver, w_dims, rigid_at, base_dims):
    """The graded fit's primes as planned before ``plan_fit``: the first
    primes that the base grades need if W is rigid at each of them, else
    every box prime."""
    if rigid_at(BASE_PRIME):
        degree = _degree(quiver, w_dims, True)
        primes = _fit_primes(max(map(degree, base_dims())), palindromic=True)
        if all(map(rigid_at, primes)):
            return primes
    return _box_primes(w_dims)


def test_plan_fit_primes_equal_the_plans_it_replaced(monkeypatch):
    plans = []

    def spy(quiver, alpha, rigid_at, base_dims, real=polynomial.plan_fit):
        plan = real(quiver, alpha, rigid_at, base_dims)
        plans.append((plan[0], _old_graded_primes(quiver, alpha, rigid_at, base_dims)))
        return plan

    monkeypatch.setattr(stabilization, "plan_fit", spy)
    rng = random.Random(29)
    # K3 (1,3) with these matrices is rigid mod 2 and 3 but not mod 5.
    split_mod_5 = RepRecipe(kronecker_quiver(3), (1, 3), int_matrices=(
        ((1,), (0,), (0,)), ((0,), (1,), (0,)), ((1,), (1,), (5,))))
    skipped = 0
    for recipe in [*_rigid_recipes(rng, 30), *_rigid_recipes(rng, 30, explicit=True),
                   split_mod_5]:
        primes = polynomial.counted_primes(recipe)
        assert primes == _old_rigid_primes(recipe), recipe
        skipped += primes != first_primes(len(primes))
        for delta, _ in convex_hull(polynomial.f_polynomial(recipe).support()).facets:
            graded_semistable_f(recipe, delta)
    assert len(plans) >= 100 and all(new == old for new, old in plans), plans
    # Some graded plan reads more than two primes, and some recipe skips a
    # prime where its reduction is not rigid.
    assert max(len(new) for new, _ in plans) > 2 and skipped, (plans, skipped)


def test_graded_plan_skips_a_prime_where_the_perp_is_not_rigid(monkeypatch):
    # K2 (2,3) at delta = (-1, 0) has the perp of dimension (0, 3), whose
    # rigid fit reads p = 2, 3, 5.  A perp that is not rigid at 5 alone
    # takes the next prime, not the box primes, and gives the same data,
    # with no graded counts at 5.
    recipe, delta = RepRecipe(QUIVERS["K2"], (2, 3), seed=0), (-1, 0)
    read, graded_at, rigid_read = [], [], []

    def spy_fit(tables, degree, palindromic, real=polynomial.fit_tables):
        def reading():
            for p, table in tables:
                read.append((p, palindromic))
                yield p, table
        return real(reading(), degree, palindromic)

    def spy_graded(w_rep, *args, real=stabilization.graded_counts):
        graded_at.append(w_rep.p)
        return real(w_rep, *args)

    def rigid_but_at_5(w_rep, real=stabilization._is_rigid_rep):
        rigid_read.append(w_rep.p)
        return w_rep.p != 5 and real(w_rep)

    monkeypatch.setattr(stabilization, "fit_tables", spy_fit)
    monkeypatch.setattr(stabilization, "graded_counts", spy_graded)
    expected = graded_semistable_f(recipe, delta)
    assert read == [(2, True), (3, True), (5, True)]
    del read[:], graded_at[:]
    monkeypatch.setattr(stabilization, "_is_rigid_rep", rigid_but_at_5)
    assert graded_semistable_f(recipe, delta) == expected
    assert read == [(2, True), (3, True), (7, True)]
    assert graded_at == [2, 3, 7] and rigid_read == [2, 3, 5, 7], (graded_at, rigid_read)
    # Dependent stable classes take the box fit, which reads no rigidity.
    del rigid_read[:]
    graded_semistable_f(K22_BRICKS, (1, -1))
    assert rigid_read == [], rigid_read


def _fit_one_gamma_at_a_time(recipe):
    """The box-bound fit of F with no early stop: each gamma in box order,
    its counts read from the count table at every box prime and fitted
    by the test-local ``chi_from_counts``."""
    terms = {}
    for gamma in itertools.product(*(range(d + 1) for d in recipe.dims)):
        degree = sum(g * (a - g) for g, a in zip(gamma, recipe.dims))
        points = [(p, subrep_counts(recipe.at_prime(p)).get(gamma, 0))
                  for p in _box_primes(recipe.dims)]
        terms[gamma] = chi_from_counts(points, degree, palindromic=False)
    poly = MultiPoly(len(recipe.dims), terms)
    if poly.constant_term() != 1 or poly.coefficient(recipe.dims) != 1:
        raise NonPolynomialCount("no unit constant or top term")
    return poly


def _outcome(fit, recipe):
    try:
        return fit(recipe)
    except FpolyError as exc:
        return type(exc)


def _non_rigid_recipes(rng):
    """Seeded and explicit recipes, of total dimension 6 at most, that
    ``f_polynomial`` fits at the box bound."""
    quivers = [kronecker_quiver(1), kronecker_quiver(2), kronecker_quiver(3),
               QUIVERS["A3"], QUIVERS["1=>2->3"]]
    per_kind = {}
    while min(per_kind.get(kind, 0) for kind in ("seeded", "explicit")) < 60:
        quiver = rng.choice(quivers)
        dims = tuple(rng.randrange(4) for _ in range(quiver.n))
        if not 0 < sum(dims) <= 6:
            continue
        if rng.random() < 0.5:
            kind, recipe = "seeded", RepRecipe(quiver, dims, seed=rng.randrange(100))
        else:
            density = rng.choice((0.3, 0.6, 1.0))
            kind, recipe = "explicit", RepRecipe(quiver, dims, int_matrices=tuple(
                tuple(tuple(rng.randrange(-2, 4) if rng.random() < density else 0
                            for _ in range(dims[s])) for _ in range(dims[t]))
                for s, t in quiver.arrows))
        if _certified_rigid(recipe):
            continue
        per_kind[kind] = per_kind.get(kind, 0) + 1
        if per_kind[kind] <= 60:
            yield recipe


def test_box_fit_from_tables_equals_the_fit_of_one_gamma_at_a_time():
    outcomes = Counter()
    for recipe in _non_rigid_recipes(random.Random(2017)):
        new = _outcome(polynomial.f_polynomial, recipe)
        assert new == _outcome(_fit_one_gamma_at_a_time, recipe), recipe
        outcomes[new if isinstance(new, type) else MultiPoly] += 1
    # Both a polynomial and a non-polynomial count occur, and nothing else.
    assert set(outcomes) == {MultiPoly, NonPolynomialCount}, outcomes


def _spy_full_fits(patch):
    """The points of every count fit of ``_chi_fit``, in call order."""
    fits = []

    def spy(primes, degree, palindromic, real=polynomial._chi_fit):
        fit = real(primes, degree, palindromic)

        def recorded(counts):
            fits.append(list(zip(primes, counts)))
            return fit(counts)
        return recorded

    patch.setattr(polynomial, "_chi_fit", spy)
    return fits


def _stop_or_fit(monkeypatch, degree, counts, palindromic):
    """``fit_tables`` of one key of ``degree`` with ``counts[p]`` points at
    the primes of its fit: its chi, ``"stopped"`` if it raised before the
    full fit started, or ``"failed"`` if the full fit raised."""
    tables = ((p, {(1,): counts[p]}) for p in _fit_primes(degree, palindromic))
    with monkeypatch.context() as patched:
        fits = _spy_full_fits(patched)
        try:
            return polynomial.fit_tables(tables, lambda key: degree, palindromic).get((1,), 0)
        except NonPolynomialCount:
            return "failed" if fits else "stopped"


def test_fit_tables_stops_before_reading_the_next_table(monkeypatch):
    # On one vertex of dimension 3, gamma = (0,) has box degree 0 and (1,)
    # degree 2, and the box primes are 2, 3, 5, 7.  The counts 1, 1, 2 of
    # (0,) at 2, 3, 5 give f[3, 5] = 1/2, so the fit stops there: it never
    # reads the table at 7 and fits nothing.
    fits = _spy_full_fits(monkeypatch)
    counts = {p: {(0,): 1 if p < 5 else 2, (1,): p * p + p + 1} for p in (2, 3, 5, 7)}
    read = []

    def tables():
        for p in _box_primes((3,)):
            read.append(p)
            yield p, counts[p]

    with pytest.raises(NonPolynomialCount,
                       match=r"\[\(2, 1\), \(3, 1\), \(5, 2\)\] of Gr_\(0,\) fit no"):
        polynomial.fit_tables(tables(), _degree(None, (3,), False), False)
    assert read == [2, 3, 5] and fits == []


def test_fit_tables_counts_a_key_as_0_before_its_first_table():
    # p - 2 is 0, 1, 3 at p = 2, 3, 5: fitted at degree 1 from all three
    # points, the first one a table that lacks the key.
    assert polynomial.fit_tables(iter([(2, {}), (3, {(0,): 1}), (5, {(0,): 3})]),
                                 lambda key: 1, False) == {(0,): -1}
    # 0, 1, 1 at p = 2, 3, 5: f[2, 3, 5] = -1/3, though 1, 1 alone fit.
    with pytest.raises(NonPolynomialCount, match=r"\[\(2, 0\), \(3, 1\), \(5, 1\)\]"):
        polynomial.fit_tables(iter([(2, {}), (3, {(0,): 1}), (5, {(0,): 1})]),
                              lambda key: 0, False)


def test_fit_tables_stops_early_only_where_the_full_fit_fails(monkeypatch):
    for palindromic in (False, True):
        _check_early_stop(monkeypatch, palindromic)


def _check_early_stop(monkeypatch, palindromic):
    rng = random.Random(11)
    primes = first_primes(10)

    def coefficients(length):
        """Random integer coefficients, a palindrome if the fit is one."""
        coeffs = [rng.randint(-50, 50) for _ in range(length)]
        if palindromic:
            coeffs[length // 2:] = coeffs[:(length + 1) // 2][::-1]
        return coeffs

    def values(coeffs):
        return {p: sum(c * p ** k for k, c in enumerate(coeffs)) for p in primes}

    def spare(degree):
        """The index of the first prime past those that fit ``degree``."""
        return len(_fit_primes(degree, palindromic)) - 1

    # Counts of an integer polynomial never stop the fit early; at a degree
    # bound at least theirs (exactly theirs if palindromic) they are fitted.
    for _ in range(150):
        coeffs = coefficients(rng.randint(1, 9))
        for degree in range(9):
            got = _stop_or_fit(monkeypatch, degree, values(coeffs), palindromic)
            assert got != "stopped", (coeffs, degree)
            if degree == len(coeffs) - 1 or degree > len(coeffs) - 1 and not palindromic:
                assert got == sum(coeffs), (coeffs, degree)
    # All-zero counts fit 0.
    assert _stop_or_fit(monkeypatch, 3, dict.fromkeys(primes, 0), palindromic) == 0
    # An integral interpolant that misses its verify point: no early stop,
    # and the full fit fails.
    for degree in range(9):
        counts = values(coefficients(degree + 1))
        k = spare(degree)
        counts[primes[k]] += rng.choice((-1, 1)) * math.prod(
            primes[k] - p for p in primes[:k])
        assert _stop_or_fit(monkeypatch, degree, counts, palindromic) == "failed", degree
    # Random counts, and counts polynomial at the first primes only: an
    # early stop only where the full fit on the same points fails.
    outcomes = Counter()
    for _ in range(400):
        degree = rng.randrange(9)
        counts = values(coefficients(rng.randint(1, 9)))
        for p in primes[rng.randrange(spare(degree) + 1):]:
            counts[p] = rng.randrange(200) if rng.random() < 0.8 else counts[p]
        got = _stop_or_fit(monkeypatch, degree, counts, palindromic)
        outcomes[got if isinstance(got, str) else "fitted"] += 1
        if got == "stopped":
            with pytest.raises(NonPolynomialCount):
                chi_from_counts(
                    [(p, counts[p]) for p in primes[:spare(degree) + 1]],
                    degree, palindromic)
    assert outcomes["stopped"] > outcomes["failed"] > 0 and outcomes["fitted"] > 0, outcomes


def _fraction_chi(points, degree, palindromic):
    """The rational fit that ``_chi_fit`` replaced: Newton divided
    differences over ``Fraction`` through the first points, expanded to the
    monomial basis, checked at every later point and then for integrality.
    A palindromic P of degree D is q^h R(q + 1/q) (1 + q)^(D - 2h) with
    h = D // 2, so R is fitted at the nodes p + 1/p and P(1) = R(2),
    doubled when D is odd."""
    if all(y == 0 for _, y in points):
        return 0
    half, odd = divmod(degree, 2)
    need = (half if palindromic else degree) + 1
    if degree < 0 or len(points) <= need:
        raise NonPolynomialCount("too few points")
    if palindromic:
        points = [(Fraction(p * p + 1, p), Fraction(y, p ** half * (1 + p) ** odd))
                  for p, y in points]
    xs = [x for x, _ in points[:need]]
    dd = [Fraction(y) for _, y in points[:need]]
    for j in range(1, need):
        for i in range(need - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    coeffs = [Fraction(0)] * need
    basis = [Fraction(1)] + [Fraction(0)] * (need - 1)  # (x - x_0)...(x - x_{j-1})
    for j in range(need):
        coeffs = [c + dd[j] * b for c, b in zip(coeffs, basis)]
        basis = [(basis[k - 1] if k else 0) - xs[j] * basis[k] for k in range(need)]
    for x, y in points[need:]:
        if sum(c * x ** k for k, c in enumerate(coeffs)) != y:
            raise NonPolynomialCount("a point off the fit")
    if any(c.denominator != 1 for c in coeffs):
        raise NonPolynomialCount("not integral")
    if not palindromic:
        return int(sum(coeffs))
    return int(sum(c * 2 ** k for k, c in enumerate(coeffs)) * (1 + odd))


def _random_counts(rng, kind, degree, palindromic, primes):
    """Counts at ``primes`` of one kind for a fit at ``degree``."""
    def values(window, symmetric, factor=lambda p: 1):
        """factor(p) times a random integer polynomial of degree at most
        ``window`` at each prime, a palindrome of window ``window`` if
        ``symmetric``."""
        coeffs = [rng.randint(-30, 30) for _ in range(window + 1)]
        if symmetric:
            coeffs[(window + 1) // 2:] = coeffs[:(window + 2) // 2][::-1]
        return [factor(p) * sum(c * p ** k for k, c in enumerate(coeffs)) for p in primes]

    if kind == "zero":
        return [0] * len(primes)
    if kind == "random":
        return [rng.randrange(-5, 200) for _ in primes]
    if kind == "integer-valued" and degree >= 2 + palindromic:
        # q(q + 1)/2 times an integer polynomial, a palindrome of window
        # D - 3 if the fit is palindromic (q + q^2 is one of window 3):
        # integer values, half-integral coefficients unless the factor is even.
        return values(degree - 2 - palindromic, palindromic, lambda p: p * (p + 1) // 2)
    # An integer polynomial: a palindrome of window D (mostly) if the fit is
    # palindromic, else of degree at most D, possibly with one count moved.
    counts = (values(degree, rng.random() < 0.8) if palindromic
              else values(rng.randint(min(degree, 0), degree), False))
    if kind == "perturbed" and counts:
        counts[rng.randrange(len(counts))] += rng.choice((-2, -1, 1, 2))
    return counts


def test_integer_solve_equals_the_fraction_fit():
    rng = random.Random(20)
    kinds = ("exact", "perturbed", "random", "zero", "integer-valued")
    outcomes = Counter()
    for _ in range(5000):
        degree, palindromic, kind = rng.randint(-1, 12), rng.random() < 0.5, rng.choice(kinds)
        unknowns = (degree // 2 if palindromic else degree) + 1
        # 0, 1 or 2 spare points past the one that checks the fit, or one too few.
        n = max(unknowns + polynomial.VERIFY_PRIMES + rng.choice((-1, 0, 1, 2)), 0)
        primes = (sorted(rng.sample(first_primes(20), n)) if rng.random() < 0.3
                  else first_primes(n))
        points = list(zip(primes, _random_counts(rng, kind, degree, palindromic, primes)))
        got = _outcome(lambda pts: chi_from_counts(pts, degree, palindromic),
                       points)
        assert got == _outcome(lambda pts: _fraction_chi(pts, degree, palindromic),
                               points), (points, degree, palindromic)
        outcomes[kind, "raised" if isinstance(got, type) else "fitted"] += 1
    # Every kind but the all-zero counts both fits and raises somewhere.
    for kind in kinds:
        assert outcomes[kind, "fitted"] > 0, outcomes
        assert (outcomes[kind, "raised"] > 0) == (kind != "zero"), outcomes


# The large primes, and the draws per prime of a hom and of an End, of
# the loops below.
LOOP_PRIMES, LOOP_TRIALS, LOOP_END_TRIALS = (101, 103, 107), 8, 6


def _looped_hom_ext(quiver, a, b, seed):
    """``generic_hom_ext`` as one loop per prime: at the floor it breaks
    out of its prime only."""
    best = None
    for p in LOOP_PRIMES:
        for i in range(LOOP_TRIALS):
            rng = stable_rng(seed, p, i)
            m = random_representation(quiver, a, p, rng)
            n = random_representation(quiver, b, p, rng)
            h = hom_dim(m, n)
            best = h if best is None else min(best, h)
            if best == max(0, euler_form(quiver, a, b)):
                break
    return best, best - euler_form(quiver, a, b)


def _looped_hom_e(quiver, delta, recipe, seed):
    """``generic_hom_e`` as one loop per prime, in the same way."""
    best = None
    for p in LOOP_PRIMES:
        n_rep = recipe.at_prime(p)
        for i in range(LOOP_TRIALS):
            d = random_presentation(quiver, delta, p, stable_rng(seed, p, i))
            h, _ = hom_e(d, n_rep)
            best = h if best is None else min(best, h)
            if best == max(0, vec_dot(delta, recipe.dims)):
                break
    return best, best - vec_dot(delta, recipe.dims)


def _looped_end_dim(quiver, dims):
    """The generic End as one loop per prime that returns at its floor."""
    floor = max(euler_form(quiver, dims, dims), 1) if any(dims) else 0
    best = None
    for p in LOOP_PRIMES:
        for i in range(LOOP_END_TRIALS):
            rep = random_representation(quiver, dims, p,
                                        stable_rng(0, p, 1_000_000 + i))
            h = hom_dim(rep, rep)
            best = h if best is None else min(best, h)
            if best == floor:
                return best
    return best


def test_generic_samplers_equal_the_loops_they_replaced():
    rng = random.Random(18)
    quivers = [kronecker_quiver(2), kronecker_quiver(3),
               QUIVERS["A3"], QUIVERS["1=>2->3"]]
    at_floor = Counter()
    for _ in range(240):
        quiver = rng.choice(quivers)
        a, b = (tuple(rng.randrange(3) for _ in range(quiver.n)) for _ in "ab")
        seed = rng.randrange(100)
        assert rep_module._generic_end_dim.__wrapped__(quiver, a) == \
            _looped_end_dim(quiver, a), (quiver, a)

        delta = tuple(rng.randrange(-2, 3) for _ in range(quiver.n))
        if rng.random() < 0.5:
            recipe = RepRecipe(quiver, b, seed=seed)
        else:
            recipe = RepRecipe(quiver, b, int_matrices=tuple(
                tuple(tuple(rng.randrange(-2, 3) for _ in range(b[s]))
                      for _ in range(b[t])) for s, t in quiver.arrows))
        hom, e = generic_hom_e(quiver, delta, recipe, seed=seed)
        assert (hom, e) == _looped_hom_e(quiver, delta, recipe, seed), \
            (quiver, delta, recipe)
        at_floor["hom_e", hom == max(0, vec_dot(delta, b))] += 1
    # The exact generic (hom, ext) against the seeded sampler it replaced.
    for _ in range(300):
        quiver = rng.choice(quivers + [D4])
        a, b = (tuple(rng.randrange(4) for _ in range(quiver.n)) for _ in "ab")
        seed = rng.randrange(100)
        hom, ext = generic_hom_ext(quiver, a, b)
        assert (hom, ext) == _looped_hom_ext(quiver, a, b, seed), (quiver, a, b, seed)
        at_floor["hom_ext", hom == max(0, euler_form(quiver, a, b))] += 1
    # Each sampler meets cases that stop at the floor and cases that never
    # reach it, and so does the exact hom.
    assert all(at_floor[kind, reached] > 0
               for kind in ("hom_ext", "hom_e") for reached in (True, False)), at_floor


def test_generic_sub_dims_equal_the_enumerated_sets():
    # The vertex and cones reports read only the set, so equal sets also
    # keep those reports of certified-rigid recipes unchanged.
    for recipe in _rigid_recipes(random.Random(23), 100):
        for p in CERTIFY_PRIMES:
            assert generic_sub_dims(recipe.quiver, recipe.dims) == \
                subrep_dim_vectors(recipe.at_prime(p)), (recipe, p)


def _two_hull_saturation(recipe):
    """The saturation check before it skipped seeded recipes that are not
    rigid: it counted every recipe's support and built its hull apart."""
    dims = sub_dim_vectors(recipe)
    hull = convex_hull(dims)
    missing_sub = [list(point) for point in lattice_points(hull) if point not in dims]
    try:
        support = polynomial.f_polynomial(recipe).support()
    except NonPolynomialCount as exc:
        return {"check": "saturation", "pass": not missing_sub,
                "support_witnesses": None, "support_skipped": str(exc),
                "sublattice_witnesses": missing_sub}
    missing_support = [list(point) for point in lattice_points(convex_hull(support))
                       if point not in support]
    return {"check": "saturation",
            "pass": not missing_support and not missing_sub,
            "support_witnesses": missing_support,
            "sublattice_witnesses": missing_sub}


def _report_or_error(check, recipe):
    try:
        return check(recipe)
    except FpolyError as exc:
        return type(exc)


def test_saturation_equals_the_two_hull_check(monkeypatch):
    hulls = []

    def spy(points, real=stabilization.convex_hull):
        hulls.append(points)
        return real(points)

    monkeypatch.setattr(stabilization, "convex_hull", spy)
    k2, rng = kronecker_quiver(2), random.Random(37)
    # K22_BRICKS is not rigid, and explicit matrices still count it; the
    # K2 (2,2) module with invariant lines x^2 = 3 has counts 1, 1, 0 at
    # 2, 3, 5, so its support half is skipped on both sides.
    explicit = [K22_BRICKS, K33_EXTENSION,
                RepRecipe(k2, (1, 2), int_matrices=(((1,), (0,)), ((0,), (1,)))),
                RepRecipe(k2, (2, 2), int_matrices=(((1, 0), (0, 1)), ((0, 1), (3, 0))))]
    for _ in range(16):
        quiver = rng.choice([k2, QUIVERS["A3"], QUIVERS["1=>2->3"]])
        dims = tuple(rng.randrange(3) for _ in range(quiver.n))
        explicit.append(RepRecipe(quiver, dims, int_matrices=tuple(
            tuple(tuple(rng.randrange(-2, 3) for _ in range(dims[s]))
                  for _ in range(dims[t])) for s, t in quiver.arrows)))
    assert not K22_BRICKS.is_rigid_at(2)
    counted = Counter()
    for recipe in [RepRecipe(q, a, seed=0) for q, a in RIGID_INSTANCES] + explicit:
        hulls.clear()
        report = _report_or_error(stabilization.verify_saturation, recipe)
        assert report == _report_or_error(_two_hull_saturation, recipe), recipe
        if isinstance(report, dict) and report["support_witnesses"] is not None:
            same = polynomial.f_polynomial(recipe).support() == sub_dim_vectors(recipe)
            assert len(hulls) == (1 if same else 2), recipe
            counted[recipe.int_matrices is None, same] += 1
    # Every rigid instance has support S(alpha) (Caldero-Reineke 2008).
    assert counted[True, True] == len(RIGID_INSTANCES)
    assert counted[False, True] > 1, counted
    assert stabilization.verify_saturation(K22_BRICKS)["support_witnesses"] == []
