"""Sparse integer polynomials and the fit of point counts.

F-polynomial coefficients are Euler characteristics of quiver
Grassmannians, recovered by counting F_p-points at enough primes,
solving one integer linear system for the coefficients of the counting
polynomial, and evaluating it at q = 1.  ``f_polynomial`` and
``stabilization.graded_semistable_f`` plan their primes through the one
``plan_fit`` and pass one ``grassmannian.subrep_counts`` table per prime,
in prime order, to the one fit ``fit_tables``.  When M is rigid mod 2
and 3 (over an acyclic quiver), Gr_gamma(M) is smooth and projective of
dimension <gamma, alpha - gamma> (Caldero and Reineke 2008), so its
counting polynomial has that degree and is palindromic and is fitted
from about half as many primes, those where M is rigid.  Otherwise
the degree is the box bound sum gamma_v (alpha_v - gamma_v), the
dimension of the ambient product of Grassmannians.  At least one extra
prime is always checked; a count that no integer polynomial gives
raises an error, at the first prime where a Newton divided difference
is a fraction, rather than being averaged away.
"""

import heapq
import itertools

from .errors import NonPolynomialCount
from .grassmannian import CERTIFY_PRIMES, subrep_counts, subrep_dim_vectors
from .intlinalg import solver
from .quiver import euler_form, vec_dot, vec_sub

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
        return MultiPoly(self.nvars, [*self.terms.items(), *other.terms.items()])

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


def _primes():
    """2, 3, 5, 7, ... in order, by trial division."""
    return (n for n in itertools.count(2) if all(n % d for d in range(2, n)))


def first_primes(n):
    return list(itertools.islice(_primes(), max(n, 0)))


def _fit_primes(degree, palindromic):
    """Primes to fit a counting polynomial of ``degree`` (from degree // 2 + 1
    counts if palindromic, else degree + 1) and check it at VERIFY_PRIMES more."""
    fitted = max(degree, 0) // 2 if palindromic else degree
    return first_primes(fitted + 1 + VERIFY_PRIMES)


def _degree(quiver, alpha, palindromic):
    """gamma -> the degree of the counting polynomial of Gr_gamma(M), dim M =
    alpha: <gamma, alpha - gamma> for rigid M (palindromic), else the box
    bound sum gamma_v (alpha_v - gamma_v)."""
    if palindromic:
        return lambda gamma: euler_form(quiver, gamma, vec_sub(alpha, gamma))
    return lambda gamma: sum(g * (a - g) for g, a in zip(gamma, alpha))


def _box_primes(alpha):
    """Primes of a box-bound fit of every gamma <= alpha: the bound
    sum gamma_v (alpha_v - gamma_v) peaks at gamma = alpha // 2."""
    return _fit_primes(sum((a // 2) * (a - a // 2) for a in alpha), palindromic=False)


def _chi_fit(primes, degree, palindromic):
    """counts -> P(1) for the integer counting polynomial P of ``degree``
    with P(p) = count at each of ``primes``, from one shared elimination.

    The unknowns are the coefficients of q^k for k <= D, or of
    q^k + q^(D - k) (q^k once if k = D - k) for k <= D // 2 when P is
    palindromic, with one row per prime; the primes past the unknowns, at
    least one, check P.  The rows at distinct primes are independent, so
    a solve fails exactly when no integer P of that shape gives every
    count.  Counts that are all zero give 0.
    """
    basis = [{k, degree - k} if palindromic else {k}
             for k in range((degree // 2 if palindromic else degree) + 1)]
    enough = degree >= 0 and len(primes) >= len(basis) + VERIFY_PRIMES
    solve = enough and solver([[sum(p ** e for e in exps) for exps in basis]
                               for p in primes], len(basis))

    def chi(counts):
        if not any(counts):
            return 0
        if not enough:
            raise NonPolynomialCount(
                f"{len(primes)} point counts cannot fit and check a counting "
                f"polynomial of degree {degree}")
        coeffs = solve(counts)
        if coeffs is None:
            raise NonPolynomialCount(f"point counts (p, count) {list(zip(primes, counts))} "
                                     f"fit no integer polynomial of degree {degree}")
        return sum(c * len(exps) for c, exps in zip(coeffs, basis))
    return chi


def fit_tables(tables, degree, palindromic):
    """The nonzero Euler characteristics ``{key: chi}`` of count tables
    ``(p, {key: count})``, read lazily in prime order: every key seen so
    far takes a point at each table, 0 where it lacks the key.  Newton
    divided differences of an integer polynomial at the primes are
    integers, so a key's first fraction stops the fit before the next
    table is read.  Each key is then fitted at ``degree(key)``, in key
    order, by one elimination per degree shared by the keys' primes."""
    primes, points, diagonals = [], {}, {}
    for p, table in tables:
        for key in table.keys() - points.keys():
            points[key], diagonals[key] = [(x, 0) for x in primes], [0] * len(primes)
        for key in sorted(points):
            diagonal = [table.get(key, 0)]
            points[key].append((p, diagonal[0]))
            for x, d in zip(reversed(primes), diagonals[key]):
                step, frac = divmod(diagonal[-1] - d, p - x)
                if frac:
                    raise NonPolynomialCount(f"point counts (p, count) {points[key]} of "
                                             f"Gr_{key} fit no integer polynomial")
                diagonal.append(step)
            diagonals[key] = diagonal
        primes.append(p)
    fits = {d: _chi_fit(primes, d, palindromic) for d in set(map(degree, points))}
    chis = {key: fits[degree(key)]([y for _, y in points[key]]) for key in sorted(points)}
    return {key: chi for key, chi in chis.items() if chi}


def plan_fit(quiver, alpha, rigid_at, base_dims):
    """``(primes, degree, palindromic)``: the one plan of a fit of the
    count tables of an alpha-dimensional M, keyed by gamma <= alpha.

    If M mod p is rigid (``rigid_at(p)``) at every CERTIFY_PRIMES, the fit
    is palindromic at degree <gamma, alpha - gamma>, from the first primes
    where M is rigid, as many as the largest degree over ``base_dims()``
    needs.  Otherwise it reads the box primes at the box bound."""
    if all(map(rigid_at, CERTIFY_PRIMES)):
        degree = _degree(quiver, alpha, True)
        need = len(_fit_primes(max(map(degree, base_dims())), palindromic=True))
        return list(itertools.islice(filter(rigid_at, _primes()), need)), degree, True
    return _box_primes(alpha), _degree(quiver, alpha, False), False


def _recipe_plan(recipe):
    """``plan_fit`` of a recipe, sized by its sub-dimension vectors mod 2."""
    return plan_fit(recipe.quiver, recipe.dims, recipe.is_rigid_at,
                    lambda: subrep_dim_vectors(recipe.at_prime(CERTIFY_PRIMES[0])))


def counted_primes(recipe):
    """The primes at which ``f_polynomial`` counts points, in order."""
    return _recipe_plan(recipe)[0]


def f_polynomial(recipe):
    """Generating polynomial of Grassmannian Euler characteristics.

    A recipe that is rigid mod 2 and 3 reads one count table per prime
    where it is rigid and fits every gamma palindromically; any other
    recipe reads one per box prime and fits every gamma at the box bound.
    Both stop at the first count that no integer polynomial gives.
    """
    primes, degree, palindromic = _recipe_plan(recipe)
    tables = ((p, subrep_counts(recipe.at_prime(p))) for p in primes)
    poly = MultiPoly(len(recipe.dims), fit_tables(tables, degree, palindromic))
    if poly.constant_term() != 1 or poly.coefficient(recipe.dims) != 1:
        raise NonPolynomialCount(
            "computed polynomial lacks unit constant or top term; "
            "the recipe is not behaving generically")
    return poly


def restrict_to_face(poly, delta):
    """Terms of maximal delta-weight: the face polynomial in direction delta."""
    if len(delta) != poly.nvars:
        raise ValueError(f"weight of length {len(delta)} for {poly.nvars} variables")
    if not poly:
        return poly
    best = max(vec_dot(delta, exp) for exp in poly.terms)
    return MultiPoly(poly.nvars,
                     {e: c for e, c in poly.terms.items()
                      if vec_dot(delta, e) == best})
