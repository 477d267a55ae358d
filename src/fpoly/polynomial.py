"""Sparse integer polynomials and point-count interpolation.

F-polynomial coefficients are Euler characteristics of quiver
Grassmannians, recovered by counting F_p-points at enough primes,
interpolating the counting polynomial exactly over the rationals, and
evaluating at q = 1.  When every counted representation is certified
rigid (over an acyclic quiver), Gr_gamma(M) is empty off the certified
sub-dimension vectors and otherwise smooth and projective of dimension
<gamma, alpha - gamma> (Caldero and Reineke 2008), so its counting
polynomial has that degree and is palindromic and is fitted from about
half as many primes.  Otherwise the degree is the box bound
sum gamma_v (alpha_v - gamma_v), the dimension of the ambient product of
Grassmannians.  At least one extra prime is always checked; a mismatch
means the counts are not given by a single polynomial of that degree
and is reported as an error rather than silently averaged away.
"""

import heapq
import itertools
from fractions import Fraction

from .errors import NonPolynomialCount
from .grassmannian import count_points, sub_dim_vectors, subrep_counts
from .quiver import euler_form, vec_dot, vec_sub
from .rep import _is_rigid, ext_dim_hereditary

VERIFY_PRIMES = 1


def _grlex_key(exp):
    return (sum(exp), tuple(-e for e in exp))


class MultiPoly:
    """Immutable sparse polynomial with integer coefficients.

    Terms are stored as {exponent tuple: coefficient}; all exponent
    tuples share one length (the number of variables).
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=()):
        clean = {}
        for exp, coef in (terms.items() if isinstance(terms, dict) else terms):
            exp = tuple(exp)
            if len(exp) != nvars:
                raise ValueError("exponent length mismatch")
            coef = clean.get(exp, 0) + coef
            if coef:
                clean[exp] = coef
            elif exp in clean:
                del clean[exp]
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("MultiPoly is immutable")

    @classmethod
    def constant(cls, nvars, c):
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def monomial(cls, nvars, exp, coef=1):
        return cls(nvars, {tuple(exp): coef})

    @classmethod
    def one(cls, nvars):
        return cls.constant(nvars, 1)

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return (isinstance(other, MultiPoly) and self.nvars == other.nvars
                and self.terms == other.terms)

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __len__(self):
        return len(self.terms)

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            c2 = out.get(exp, 0) + c
            if c2:
                out[exp] = c2
            else:
                out.pop(exp, None)
        return MultiPoly(self.nvars, out)

    def __neg__(self):
        return MultiPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        other = self._coerce(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(a + b for a, b in zip(e1, e2))
                out[exp] = out.get(exp, 0) + c1 * c2
        return MultiPoly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k):
        """self ** k by binary powering: bit_length(k) - 1 squarings and
        popcount(k) - 1 further products, none of them by one."""
        if k < 0:
            raise ValueError("negative power")
        result, base = None, self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return MultiPoly.one(self.nvars) if result is None else result

    def _coerce(self, other):
        if isinstance(other, int):
            return MultiPoly.constant(self.nvars, other)
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        return other

    def leading(self):
        exp = max(self.terms, key=_grlex_key)
        return exp, self.terms[exp]

    def exact_div(self, divisor):
        """Quotient self / divisor, requiring zero remainder.

        Leading terms of the remainder come off a heap keyed by
        (-degree, exponent), the order of ``leading()``: each key is pushed
        when its term appears and skipped when popped after it cancelled.
        """
        divisor = self._coerce(divisor)
        if not divisor:
            raise ZeroDivisionError("division by zero polynomial")
        dexp, dcoef = divisor.leading()
        tail = [(e, c) for e, c in divisor.terms.items() if e != dexp]
        rem = dict(self.terms)
        heap = [(-sum(e), e) for e in rem]
        heapq.heapify(heap)
        quot = {}
        while rem:
            exp = heapq.heappop(heap)[1]
            if exp not in rem:
                continue
            coef = rem.pop(exp)
            qexp = tuple(a - b for a, b in zip(exp, dexp))
            if any(e < 0 for e in qexp) or coef % dcoef:
                raise ArithmeticError("polynomial division is not exact")
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
        return MultiPoly(self.nvars, quot)

    def constant_term(self):
        return self.terms.get((0,) * self.nvars, 0)

    def support(self):
        return frozenset(self.terms)

    def coefficient(self, exp):
        return self.terms.get(tuple(exp), 0)

    def substitute_monomial(self, images, nvars_out=None):
        """Substitute y_i -> y^images[i]; exponents transform linearly."""
        images = [tuple(v) for v in images]
        if len(images) != self.nvars:
            raise ValueError("one image vector per variable required")
        if nvars_out is None:
            nvars_out = len(images[0]) if images else 0
        out = {}
        for exp, coef in self.terms.items():
            new = [0] * nvars_out
            for e, img in zip(exp, images):
                if e:
                    for j, x in enumerate(img):
                        new[j] += e * x
            key = tuple(new)
            out[key] = out.get(key, 0) + coef
        return MultiPoly(nvars_out, out)

    def evaluate(self, values):
        total = 0
        for exp, coef in self.terms.items():
            term = coef
            for e, v in zip(exp, values):
                term *= v ** e
            total += term
        return total

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda t: _grlex_key(t[0]))

    def to_json(self):
        return [{"exp": list(exp), "coef": str(coef)}
                for exp, coef in self.sorted_terms()]

    @classmethod
    def from_json(cls, data, nvars=None):
        if nvars is None:
            if not data:
                raise ValueError("cannot infer variable count from empty polynomial")
            nvars = len(data[0]["exp"])
        return cls(nvars, {tuple(t["exp"]): int(t["coef"]) for t in data})

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, coef in self.sorted_terms():
            factors = []
            for i, e in enumerate(exp):
                if e == 1:
                    factors.append(f"y{i + 1}")
                elif e > 1:
                    factors.append(f"y{i + 1}^{e}")
            if not factors:
                parts.append(str(coef))
            elif coef == 1:
                parts.append("*".join(factors))
            elif coef == -1:
                parts.append("-" + "*".join(factors))
            else:
                parts.append(f"{coef}*" + "*".join(factors))
        out = parts[0]
        for part in parts[1:]:
            out += " - " + part[1:] if part.startswith("-") else " + " + part
        return out

    __repr__ = __str__


def first_primes(n):
    primes = []
    candidate = 2
    while len(primes) < n:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def interpolate_integer_polynomial(points, degree_bound, verify=1):
    """Exact polynomial through the first degree_bound+1 points.

    Returns the coefficient list (constant first).  The remaining points
    (at least `verify` of them) must lie on the curve; otherwise the
    data is not polynomial of the claimed degree and we fail loudly.
    """
    need = degree_bound + 1
    if len(points) < need + verify:
        raise ValueError("not enough evaluation points")
    xs = [x for x, _ in points[:need]]
    ys = [Fraction(y) for _, y in points[:need]]
    # Newton divided differences, then expansion to the monomial basis.
    dd = list(ys)
    for j in range(1, need):
        for i in range(need - 1, j - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (xs[i] - xs[i - j])
    coeffs = [Fraction(0)] * need
    basis = [Fraction(1)] + [Fraction(0)] * (need - 1)  # product (x - x_0)...(x - x_{j-1})
    for j in range(need):
        for k in range(need):
            coeffs[k] += dd[j] * basis[k]
        if j + 1 < need:
            new = [Fraction(0)] * need
            for k in range(need):
                if basis[k]:
                    new[k] -= xs[j] * basis[k]
                    new[k + 1] += basis[k]
            basis = new

    def eval_at(x):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    for x, y in points[need:]:
        if eval_at(x) != y:
            raise NonPolynomialCount(
                f"point counts are not polynomial: predicted {eval_at(x)} "
                f"at q={x}, counted {y}")
    if any(c.denominator != 1 for c in coeffs):
        raise NonPolynomialCount("interpolated counting polynomial is not integral")
    return [int(c) for c in coeffs]


def _box(dims):
    return itertools.product(*(range(d + 1) for d in dims))


def _rigid_reductions(recipe, primes):
    """Whether the recipe's reductions at ``primes`` are all rigid.

    A seeded recipe of a rigid dimension vector passes at every prime,
    since each draw is certified to have the generic endomorphism
    dimension.  Explicit matrices are checked prime by prime.
    """
    if not _is_rigid(recipe):
        return False
    if recipe.int_matrices is None:
        return True
    return all(ext_dim_hereditary(rep, rep) == 0
               for rep in map(recipe.at_prime, primes))


def _count_plan(recipe, gamma):
    """``(primes, degree, palindromic)`` for counting Gr_gamma of a recipe.

    For a rigid M over an acyclic quiver, Gr_gamma(M) is empty unless
    gamma is a sub-dimension vector, and otherwise smooth and projective
    of dimension <gamma, alpha - gamma>, so its counting polynomial has
    that degree and is palindromic.  Such a polynomial is fitted from
    degree // 2 + 1 counts.  Without certified rigidity the degree is the
    box bound sum gamma_v (alpha_v - gamma_v), which needs degree + 1.
    No primes means Gr_gamma is empty and nothing is counted.
    """
    alpha = recipe.dims
    if any(g < 0 or g > d for g, d in zip(gamma, alpha)):
        return [], 0, False
    degree = euler_form(recipe.quiver, gamma, vec_sub(alpha, gamma))
    primes = first_primes(max(degree, 0) // 2 + 1 + VERIFY_PRIMES)
    # first_primes(>= 2) includes 2 and 3, the primes of sub_dim_vectors.
    if _rigid_reductions(recipe, primes):
        if gamma not in sub_dim_vectors(recipe):
            return [], degree, True
        return primes, degree, True
    degree = sum(g * (d - g) for g, d in zip(gamma, alpha))
    return first_primes(degree + 1 + VERIFY_PRIMES), degree, False


def _chi_from_counts(points, degree, palindromic):
    """P(1) for the counting polynomial P of ``degree`` through ``points``.

    The leading points fit P and the rest, at least one, must lie on it.
    A palindromic P of degree D is q^h R(q + 1/q) with h = D // 2, times
    (1 + q) when D is odd, so R, of degree h, is fitted at the nodes
    p + 1/p and P(1) = R(2), doubled when D is odd.  Counts that are all
    zero give 0.
    """
    if all(y == 0 for _, y in points):
        return 0
    half, odd = divmod(degree, 2)
    verify = len(points) - (half if palindromic else degree) - 1
    if degree < 0 or verify < VERIFY_PRIMES:
        raise NonPolynomialCount(
            f"{len(points)} point counts cannot fit and check a counting "
            f"polynomial of degree {degree}")
    if not palindromic:
        return sum(interpolate_integer_polynomial(points, degree, verify))
    nodes = [(Fraction(p * p + 1, p), Fraction(y, p ** half * (1 + p if odd else 1)))
             for p, y in points]
    r = interpolate_integer_polynomial(nodes, half, verify)
    chi = sum(c * 2 ** k for k, c in enumerate(r))
    return 2 * chi if odd else chi


def euler_characteristic(recipe, gamma):
    """chi of Gr_gamma of the recipe, by counting and interpolating."""
    recipe.quiver.check_dim_vector(gamma)
    primes, degree, palindromic = _count_plan(recipe, gamma)
    if palindromic:  # a rigid fit counts every gamma: read the tables
        points = [(p, subrep_counts(recipe.at_prime(p)).get(gamma, 0)) for p in primes]
    else:  # a box-bound fit may stop at its first non-polynomial gamma
        points = [(p, count_points(recipe.at_prime(p), gamma)) for p in primes]
    return _chi_from_counts(points, degree, palindromic)


def counted_primes(recipe):
    """The primes at which ``f_polynomial`` counts points, in order."""
    # Every plan is a prefix of the primes, so the longest is their union.
    return max((_count_plan(recipe, gamma)[0] for gamma in _box(recipe.dims)),
               key=len)


def f_polynomial(recipe):
    """Generating polynomial of Grassmannian Euler characteristics."""
    terms = {}
    for gamma in _box(recipe.dims):
        chi = euler_characteristic(recipe, gamma)
        if chi:
            terms[gamma] = chi
    poly = MultiPoly(len(recipe.dims), terms)
    if poly.constant_term() != 1 or poly.coefficient(recipe.dims) != 1:
        raise NonPolynomialCount(
            "computed polynomial lacks unit constant or top term; "
            "the recipe is not behaving generically")
    return poly


def restrict_to_face(poly, delta):
    """Terms of maximal delta-weight: the face polynomial in direction delta."""
    if not poly:
        return poly
    best = max(vec_dot(delta, exp) for exp in poly.terms)
    return MultiPoly(poly.nvars,
                     {e: c for e, c in poly.terms.items()
                      if vec_dot(delta, e) == best})
