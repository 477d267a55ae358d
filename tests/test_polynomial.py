import itertools
import math
import random

import pytest

from fpoly import grassmannian, polynomial, rep as rep_module
from fpoly.errors import NonPolynomialCount
from fpoly.grassmannian import subrep_counts
from fpoly.polynomial import MultiPoly, counted_primes, f_polynomial, restrict_to_face
from fpoly.quiver import Quiver, kronecker_quiver
from fpoly.rep import RepRecipe
from fpoly.stabilization import verify_vertex_theorems


def rand_poly(rng, nvars, nterms, bound=3):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randrange(bound) for _ in range(nvars))
        terms[exp] = rng.randrange(-5, 6)
    return MultiPoly(nvars, terms)


def test_ring_axioms_randomized():
    rng = random.Random(0)
    for _ in range(50):
        a = rand_poly(rng, 2, 4)
        b = rand_poly(rng, 2, 4)
        c = rand_poly(rng, 2, 4)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a) == MultiPoly(2)
        assert a * MultiPoly.one(2) == a


def _grlex(exp):
    return (sum(exp), tuple(-x for x in exp))


def _max_scan_div(num, den):
    """Long division that rescans the remainder for each leading term."""
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    dexp = max(den.terms, key=_grlex)
    dcoef = den.terms[dexp]
    rem, quot = dict(num.terms), {}
    while rem:
        exp = max(rem, key=_grlex)
        qexp = tuple(a - b for a, b in zip(exp, dexp))
        if any(e < 0 for e in qexp) or rem[exp] % dcoef:
            raise ArithmeticError("polynomial division is not exact")
        qcoef = rem[exp] // dcoef
        quot[qexp] = quot.get(qexp, 0) + qcoef
        for e2, c2 in den.terms.items():
            key = tuple(a + b for a, b in zip(qexp, e2))
            rem[key] = rem.get(key, 0) - qcoef * c2
            if not rem[key]:
                del rem[key]
    return MultiPoly(num.nvars, quot)


def _tuple_product(a, b):
    """Product on exponent tuples, term by term."""
    out = {}
    for e1, c1 in a.terms.items():
        for e2, c2 in b.terms.items():
            exp = tuple(x + y for x, y in zip(e1, e2))
            out[exp] = out.get(exp, 0) + c1 * c2
    return MultiPoly(a.nvars, out)


def _square_and_multiply(base, k):
    """Binary powering that starts from one and squares past the top bit."""
    result = MultiPoly.one(base.nvars)
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


def _packed_div(num, den):
    """num / den by the engine's one exact division, ``polynomial._divide``,
    on the packing of both operands."""
    degree = max(map(sum, [*num.terms, *den.terms]), default=0)
    units, guard, width = polynomial._packing(num.nvars, degree)
    quot = polynomial._divide(polynomial._pack(num.terms, units),
                              polynomial._pack(den.terms, units), guard)
    return polynomial._unpack(quot, num.nvars, width)


def _quotient_or_error(num, den, divide):
    try:
        return divide(num, den)
    except ArithmeticError as exc:
        return type(exc)


def test_pow_and_exact_div():
    rng = random.Random(1)
    for _ in range(30):
        a = rand_poly(rng, 2, 3) + 1   # nonzero
        b = rand_poly(rng, 2, 3) + 1
        assert _packed_div(a * b, b) == a
        assert a ** 3 == a * a * a
    with pytest.raises(ArithmeticError):
        _packed_div(MultiPoly.monomial(1, (1,)) + 1, MultiPoly.monomial(1, (1,), 2))
    # Differential test against the max-scan division and the plain
    # square-and-multiply loop, exact and non-exact dividends alike.
    exact = inexact = 0
    for _ in range(400):
        nvars = rng.randint(1, 4)
        a = rand_poly(rng, nvars, rng.randint(1, 10))
        b = rand_poly(rng, nvars, rng.randint(1, 6)) + 1
        for num in (a * b, a * b + rand_poly(rng, nvars, 2), a):
            expect = _quotient_or_error(num, b, _max_scan_div)
            assert _quotient_or_error(num, b, _packed_div) == expect
            if expect is ArithmeticError:
                inexact += 1
            else:
                exact += 1
        for k in range(5):
            assert b ** k == _square_and_multiply(b, k)
        with pytest.raises(ZeroDivisionError):
            _packed_div(a, MultiPoly(nvars))
    assert exact > 400 and inexact > 100
    with pytest.raises(ValueError):
        MultiPoly.one(1) ** -1


def test_packed_fields_wider_than_a_byte():
    # Exponents past 255 take fields of more than 8 bits plus the guard.
    rng = random.Random(4)
    outcomes = set()
    for _ in range(60):
        nvars = rng.randint(1, 3)
        a = rand_poly(rng, nvars, rng.randint(1, 6), bound=300)
        b = rand_poly(rng, nvars, rng.randint(1, 4), bound=300) + 1
        assert a * b == _tuple_product(a, b)
        for num in (a * b, a * b + rand_poly(rng, nvars, 2, bound=300), a):
            expect = _quotient_or_error(num, b, _max_scan_div)
            assert _quotient_or_error(num, b, _packed_div) == expect
            outcomes.add(expect is ArithmeticError)
    assert outcomes == {True, False}
    with pytest.raises(ValueError, match="negative exponent"):
        MultiPoly.monomial(1, (-1,)) * MultiPoly.one(1)


def test_pow_makes_the_minimal_number_of_products(monkeypatch):
    products = []
    real_mul = MultiPoly.__mul__

    def spy(self, other):
        products.append(1)
        return real_mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", spy)
    base = MultiPoly.monomial(2, (1, 0)) + MultiPoly.monomial(2, (0, 1)) + 1
    counts = []
    for k in range(9):
        products.clear()
        power = base ** k
        counts.append(len(products))
        assert power == _square_and_multiply(base, k)
    # bit_length(k) - 1 squarings and popcount(k) - 1 further products;
    # squaring once past the top bit and starting from one made
    # 0, 2, 3, 4, 4, 5, 5, 6, 5.
    assert counts == [0, 0, 1, 2, 2, 3, 3, 4, 3]


def test_substitute_monomial_is_ring_hom():
    rng = random.Random(2)
    images = [(1, 0, 1), (0, 2, 1)]
    for _ in range(20):
        a = rand_poly(rng, 2, 3)
        b = rand_poly(rng, 2, 3)
        fa = a.substitute_monomial(images)
        fb = b.substitute_monomial(images)
        assert (a * b).substitute_monomial(images) == fa * fb
        assert (a + b).substitute_monomial(images) == fa + fb


def test_str():
    p = MultiPoly(2, {(0, 0): 1, (1, 0): 2, (1, 1): -1})
    assert str(p) == "1 + 2*y1 - y1*y2"
    assert str(MultiPoly(2)) == "0"


def test_json_roundtrip():
    p = MultiPoly(3, {(0, 0, 0): 1, (2, 1, 0): 7, (0, 0, 3): -2})
    assert MultiPoly.from_json(p.to_json()) == p


def first_primes(n):
    """The first n primes, by trial division of each integer from 2 on."""
    return list(itertools.islice((k for k in itertools.count(2)
                                  if all(k % d for d in range(2, math.isqrt(k) + 1))),
                                 max(n, 0)))


def test_first_primes():
    # ``polynomial._primes()`` is the one sequence every fit draws its nodes from.
    assert first_primes(6) == [2, 3, 5, 7, 11, 13] and first_primes(-1) == []
    assert list(itertools.islice(polynomial._primes(), 100)) == first_primes(100)


def chi_from_counts(points, degree, palindromic):
    """P(1) for the counting polynomial through ``points`` (p, count), by
    the fit ``fit_tables`` shares across the keys of one degree."""
    fit = polynomial._chi_fit([p for p, _ in points], degree, palindromic)
    return fit([y for _, y in points])


def test_interpolation_exact_and_verified():
    pts = [(p, 2 * p * p - p + 3) for p in first_primes(5)]
    assert chi_from_counts(pts, 2, False) == 4
    # Every point past the first three is checked, the last one too.
    for bad in (pts[:3] + [(7, 999)], pts[:4] + [(11, 999)]):
        with pytest.raises(NonPolynomialCount):
            chi_from_counts(bad, 2, False)
    # At least one point is left to check.
    with pytest.raises(NonPolynomialCount, match="cannot fit and check"):
        chi_from_counts(pts[:3], 2, False)
    # q(q+1)/2 has integer values at every prime but is no integer polynomial.
    with pytest.raises(NonPolynomialCount, match="fit no integer polynomial"):
        chi_from_counts(list(zip((2, 3, 5, 7), (3, 6, 15, 28))), 2, False)
    # Palindromic fits take D // 2 + 2 points: 1 + q + q^2, then 1 + q.
    assert chi_from_counts([(p, 1 + p + p * p) for p in (2, 3, 5)], 2, True) == 3
    assert chi_from_counts([(p, 1 + p) for p in (2, 3)], 1, True) == 2


def test_f_polynomial_known_small_cases():
    # single vertex, dim 1: 1 + y1
    pt = Quiver(("1",), ())
    assert f_polynomial(RepRecipe(pt, (1,), seed=0)) == MultiPoly(1, {(0,): 1, (1,): 1})
    # A2 quiver, dims (1,1): subreps 0, S2, M
    a2 = Quiver(("1", "2"), ((0, 1),))
    f = f_polynomial(RepRecipe(a2, (1, 1), seed=0))
    assert f == MultiPoly(2, {(0, 0): 1, (0, 1): 1, (1, 1): 1})
    # Kronecker (1,2): 1 + 2y2 + y2^2 + y1y2^2
    f = f_polynomial(RepRecipe(kronecker_quiver(2), (1, 2), seed=0))
    assert f == MultiPoly(2, {(0, 0): 1, (0, 1): 2, (0, 2): 1, (1, 2): 1})


def test_euler_characteristic_grassmannian_of_vector_space():
    # plain Grassmannian chi = binomial(n, k)
    pt = Quiver(("1",), ())
    f = f_polynomial(RepRecipe(pt, (4,), seed=0))
    assert [f.coefficient((k,)) for k in range(5)] == [1, 4, 6, 4, 1]
    # Beyond the dimension there is no point.
    assert [f.coefficient((k,)) for k in (5, 7)] == [0, 0]


def _spy_counts(monkeypatch):
    """``("table", p)`` per count-table read of ``polynomial``."""
    counted = []

    def spy_table(m_rep):
        counted.append(("table", m_rep.p))
        return subrep_counts(m_rep)

    monkeypatch.setattr(polynomial, "subrep_counts", spy_table)
    return counted


def test_criterion_4_counts_at_few_small_primes(monkeypatch):
    # The box bound counted 130 times here, at primes up to 17, and the
    # fit of one gamma at a time 33 times.
    counted = _spy_counts(monkeypatch)
    # The degree bound is read off the tables at 2 and 3, not off S(alpha).
    monkeypatch.setattr(grassmannian, "generic_sub_dims", None)
    q231 = Quiver(("1", "2", "3"), ((0, 1), (0, 1), (1, 2)))
    recipe = RepRecipe(q231, (2, 4, 1), seed=0)
    assert len(f_polynomial(recipe)) == 13
    # One count table per rigid prime.
    assert counted_primes(recipe) == [2, 3, 5, 7]
    assert counted == [("table", p) for p in counted_primes(recipe)]


def test_explicit_recipe_is_fitted_as_rigid_only_where_each_reduction_is(
        monkeypatch):
    k2, k3 = kronecker_quiver(2), kronecker_quiver(3)
    general = RepRecipe(k2, (1, 2), int_matrices=(((1,), (0,)), ((0,), (1,))))
    # Mod 2 both arrows send the vertex-1 vector to (1, 0), so that
    # reduction splits off S2 and is not rigid: the box bound is used, and
    # Gr_(1,1), with 1, 0, 0 points at p = 2, 3, 5, stops it at p = 5.
    split_mod_2 = RepRecipe(k2, (1, 2),
                            int_matrices=(((1,), (0,)), ((1,), (2,))))
    # Rigid mod 2 and 3 but not mod 5, where the third arrow's image joins
    # the span of the first two (Gr_(1,2) has a point mod 5 only): the
    # rigid fit skips that prime of bad reduction and takes the next one.
    split_mod_5 = RepRecipe(k3, (1, 3), int_matrices=(
        ((1,), (0,), (0,)), ((0,), (1,), (0,)), ((1,), (1,), (5,))))
    counted = _spy_counts(monkeypatch)
    # Explicit matrices are rigid by their own reductions alone, so neither
    # the fit nor the vertex report draws a representation, not even to
    # sample the generic End of the dimension vector.
    draws = []

    def spy_draw(quiver, dims, p, rng, real=rep_module.random_representation):
        draws.append((dims, p))
        return real(quiver, dims, p, rng)

    rep_module._generic_end_dim.cache_clear()
    with monkeypatch.context() as patched:
        patched.setattr(rep_module, "random_representation", spy_draw)
        fitted = f_polynomial(general)
        assert counted_primes(general) == [2, 3]
        del counted[:]
        with pytest.raises(NonPolynomialCount, match=r"of Gr_\(1, 1\)"):
            f_polynomial(split_mod_2)
        assert counted == [("table", 2), ("table", 3), ("table", 5)]
        assert counted_primes(split_mod_2) == [2, 3, 5]
        assert counted_primes(split_mod_5) == [2, 3, 7]
        del counted[:]
        assert f_polynomial(split_mod_5) == MultiPoly(
            2, {(0, 0): 1, (0, 1): 3, (0, 2): 3, (0, 3): 1, (1, 3): 1})
        assert counted == [("table", 2), ("table", 3), ("table", 7)]
        reports = [verify_vertex_theorems(r) for r in (general, split_mod_5)]
    assert draws == []
    assert [(r["rigid"], r["pass"]) for r in reports] == [(True, True)] * 2
    assert fitted == f_polynomial(RepRecipe(k2, (1, 2), seed=0))
    assert counted_primes(RepRecipe(k3, (1, 3), seed=0)) == [2, 3, 5]
    assert f_polynomial(split_mod_5) == f_polynomial(RepRecipe(k3, (1, 3), seed=0))


def test_restrict_to_face():
    f = f_polynomial(RepRecipe(kronecker_quiver(2), (2, 3), seed=0))
    # delta = (0,1) picks the terms with maximal second exponent
    top = restrict_to_face(f, (0, 1))
    assert set(top.terms) == {(0, 3), (1, 3), (2, 3)}
    assert restrict_to_face(f, (0, 0)) == f
    assert restrict_to_face(f, (-1, -1)).terms == {(0, 0): 1}
