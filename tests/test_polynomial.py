import random

import pytest

from fpoly import polynomial
from fpoly.errors import NonPolynomialCount
from fpoly.grassmannian import count_points, subrep_counts
from fpoly.polynomial import (MultiPoly, counted_primes, euler_characteristic,
                              f_polynomial, first_primes,
                              interpolate_integer_polynomial, restrict_to_face)
from fpoly.quiver import Quiver, kronecker_quiver
from fpoly.rep import RepRecipe


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


def _max_scan_div(num, den):
    """Long division that rescans the remainder for each leading term."""
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    dexp, dcoef = den.leading()
    rem, quot = dict(num.terms), {}
    while rem:
        exp = max(rem, key=lambda e: (sum(e), tuple(-x for x in e)))
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


def _square_and_multiply(base, k):
    """Binary powering that starts from one and squares past the top bit."""
    result = MultiPoly.one(base.nvars)
    while k:
        if k & 1:
            result = result * base
        base = base * base
        k >>= 1
    return result


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
        assert (a * b).exact_div(b) == a
        assert a ** 3 == a * a * a
    with pytest.raises(ArithmeticError):
        (MultiPoly.monomial(1, (1,)) + 1).exact_div(MultiPoly.monomial(1, (1,), 2))
    # Differential test against the max-scan division and the plain
    # square-and-multiply loop, exact and non-exact dividends alike.
    exact = inexact = 0
    for _ in range(400):
        nvars = rng.randint(1, 4)
        a = rand_poly(rng, nvars, rng.randint(1, 10))
        b = rand_poly(rng, nvars, rng.randint(1, 6)) + 1
        for num in (a * b, a * b + rand_poly(rng, nvars, 2), a):
            expect = _quotient_or_error(num, b, _max_scan_div)
            assert _quotient_or_error(num, b, MultiPoly.exact_div) == expect
            if expect is ArithmeticError:
                inexact += 1
            else:
                exact += 1
        for k in range(5):
            assert b ** k == _square_and_multiply(b, k)
        with pytest.raises(ZeroDivisionError):
            a.exact_div(MultiPoly(nvars))
    assert exact > 400 and inexact > 100
    with pytest.raises(ValueError):
        MultiPoly.one(1) ** -1


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


def test_evaluate_and_str():
    p = MultiPoly(2, {(0, 0): 1, (1, 0): 2, (1, 1): -1})
    assert p.evaluate((1, 1)) == 2
    assert p.evaluate((2, 3)) == 1 + 4 - 6
    assert str(p) == "1 + 2*y1 - y1*y2"
    assert str(MultiPoly(2)) == "0"


def test_json_roundtrip():
    p = MultiPoly(3, {(0, 0, 0): 1, (2, 1, 0): 7, (0, 0, 3): -2})
    assert MultiPoly.from_json(p.to_json()) == p


def test_first_primes():
    assert first_primes(6) == [2, 3, 5, 7, 11, 13]


def test_interpolation_exact_and_verified():
    pts = [(p, 2 * p * p - p + 3) for p in first_primes(5)]
    assert interpolate_integer_polynomial(pts, 2, verify=2) == [3, -1, 2]
    bad = pts[:3] + [(7, 999)]
    with pytest.raises(NonPolynomialCount):
        interpolate_integer_polynomial(bad, 2, verify=1)


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
    r = RepRecipe(pt, (4,), seed=0)
    assert [euler_characteristic(r, (k,)) for k in range(5)] == [1, 4, 6, 4, 1]


def _spy_counts(monkeypatch):
    """Primes of the point counts and count-table reads of ``polynomial``."""
    counted = []

    def spy_count(m_rep, gamma):
        counted.append(m_rep.p)
        return count_points(m_rep, gamma)

    def spy_table(m_rep):
        counted.append(m_rep.p)
        return subrep_counts(m_rep)

    monkeypatch.setattr(polynomial, "count_points", spy_count)
    monkeypatch.setattr(polynomial, "subrep_counts", spy_table)
    return counted


def test_criterion_4_counts_at_few_small_primes(monkeypatch):
    # The box bound counted 130 times here, at primes up to 17.
    counted = _spy_counts(monkeypatch)
    q231 = Quiver(("1", "2", "3"), ((0, 1), (0, 1), (1, 2)))
    assert len(f_polynomial(RepRecipe(q231, (2, 4, 1), seed=0))) == 13
    assert len(counted) <= 33 and max(counted) <= 7


def test_explicit_recipe_is_fitted_as_rigid_only_where_each_reduction_is(
        monkeypatch):
    k2 = kronecker_quiver(2)
    general = RepRecipe(k2, (1, 2), int_matrices=(((1,), (0,)), ((0,), (1,))))
    assert f_polynomial(general) == f_polynomial(RepRecipe(k2, (1, 2), seed=0))
    assert counted_primes(general) == [2, 3]
    # Mod 2 both arrows send the vertex-1 vector to (1, 0), so that
    # reduction splits off S2 and is not rigid: the box bound is used.
    split_mod_2 = RepRecipe(k2, (1, 2),
                            int_matrices=(((1,), (0,)), ((1,), (2,))))
    counted = _spy_counts(monkeypatch)
    with pytest.raises(NonPolynomialCount):
        f_polynomial(split_mod_2)
    assert max(counted) == 5 == counted_primes(split_mod_2)[-1]


def test_restrict_to_face():
    f = f_polynomial(RepRecipe(kronecker_quiver(2), (2, 3), seed=0))
    # delta = (0,1) picks the terms with maximal second exponent
    top = restrict_to_face(f, (0, 1))
    assert set(top.terms) == {(0, 3), (1, 3), (2, 3)}
    assert restrict_to_face(f, (0, 0)) == f
    assert restrict_to_face(f, (-1, -1)).terms == {(0, 0): 1}
