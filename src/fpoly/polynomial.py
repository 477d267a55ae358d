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
import operator

from .errors import NonPolynomialCount
from .grassmannian import CERTIFY_PRIMES, subrep_counts, subrep_dim_vectors
from .intlinalg import solver
from .quiver import euler_form, is_prime, pos_neg_parts, vec_dot, vec_sub

VERIFY_PRIMES = 1


class MultiPoly:
    """Immutable sparse polynomial with integer coefficients.

    Terms are stored as {exponent tuple: coefficient}; all exponent
    tuples share one length (the number of variables).  Products and
    exact quotients are taken on packed monomials (see ``_packing``).
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

    @classmethod
    def _of(cls, nvars, terms):
        """The polynomial of a clean term dict, taken as it is."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "nvars", nvars)
        object.__setattr__(poly, "terms", terms)
        return poly

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
        return MultiPoly._of(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __mul__(self, other):
        if isinstance(other, int):
            return MultiPoly._of(self.nvars, {e: c * other for e, c in self.terms.items()}
                                 if other else {})
        other = self._coerce(other)
        units, guard, width = _packing(self.nvars, _degree_bound(self) + _degree_bound(other))
        return _unpack(_times(_pack(self.terms, units), _pack(other.terms, units)),
                       self.nvars, width)

    __rmul__ = __mul__

    def __pow__(self, k):
        """self ** k by ``_power``: k = 0 gives one without a product."""
        if k < 0:
            raise ValueError("negative power")
        return _power(self, k, operator.mul) if k else MultiPoly.one(self.nvars)

    def _coerce(self, other):
        if isinstance(other, int):
            return MultiPoly.constant(self.nvars, other)
        if other.nvars != self.nvars:
            raise ValueError("variable count mismatch")
        return other

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
        return sorted(self.terms.items(), key=lambda t: (sum(t[0]), tuple(-e for e in t[0])))

    def to_json(self):
        return [{"exp": list(exp), "coef": str(coef)}
                for exp, coef in self.sorted_terms()]

    @classmethod
    def from_json(cls, data):
        if not data:
            raise ValueError("cannot infer variable count from empty polynomial")
        return cls(len(data[0]["exp"]), {tuple(t["exp"]): int(t["coef"]) for t in data})

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


# The one arithmetic engine: a polynomial is {packed monomial: coefficient}.

def _degree_bound(poly):
    return max(map(sum, poly.terms), default=0)


def _packing(nvars, degree):
    """``(units, guard, width)``: y^e of total degree <= ``degree`` packs to
    sum e_i units[i], one field of width bit_length(degree) + 1 bits per
    variable and one on top for the total degree, so integer order is a
    graded monomial order.  The top bit of each field, clear in every key,
    is a guard: ``(k | guard) - d`` keeps every guard bit exactly when y^d
    divides y^k, and is then the key of the quotient plus ``guard``."""
    width = degree.bit_length() + 1
    top = 1 << width * nvars
    units = tuple(1 << width * i | top for i in range(nvars))
    return units, ((top << width) - 1) // ((1 << width) - 1) << width - 1, width


def _pack(terms, units):
    if units and terms and min(map(min, terms)) < 0:
        raise ValueError("a negative exponent has no packed monomial")
    return {sum(map(operator.mul, exp, units)): c for exp, c in terms.items()}


def _unpack(packed, nvars, width):
    """The polynomial of packed terms, zero coefficients dropped."""
    shifts, mask = range(0, width * nvars, width), (1 << width - 1) - 1
    return MultiPoly._of(nvars, {tuple([key >> s & mask for s in shifts]): c
                                 for key, c in packed.items() if c})


def _times(a, b):
    """The one product loop; a cancelled term keeps coefficient 0."""
    out = {}
    get = out.get
    for k1, c1 in a.items():
        for k2, c2 in b.items():
            key = k1 + k2
            out[key] = get(key, 0) + c1 * c2
    return out


def _power(base, k, times):
    """base ** k for k >= 1, left to right over the bits of k:
    bit_length(k) - 1 squarings and popcount(k) - 1 products by base."""
    result = base
    for bit in bin(k)[3:]:
        result = times(result, result)
        if bit == "1":
            result = times(result, base)
    return result


def _divide(num, den, guard):
    """The one exact-division loop, packed ``num / den``.  Leading terms of
    the remainder, none of higher total degree than ``num``, come off a max-heap
    of keys, each pushed when its term appears and skipped if it cancelled."""
    if not den:
        raise ZeroDivisionError("division by zero polynomial")
    dkey = max(den)
    dcoef = den[dkey]
    tail = [(key, c) for key, c in den.items() if key != dkey]
    rem = {key: c for key, c in num.items() if c}
    heap = [-key for key in rem]
    heapq.heapify(heap)
    quot = {}
    while rem:
        key = -heapq.heappop(heap)
        if key not in rem:
            continue
        coef = rem.pop(key)
        qkey = (key | guard) - dkey
        if qkey & guard != guard or coef % dcoef:
            raise ArithmeticError("polynomial division is not exact")
        qkey ^= guard
        qcoef = quot[qkey] = coef // dcoef
        for k2, c2 in tail:
            key = qkey + k2
            c = rem.get(key, 0) - qcoef * c2
            if not c:
                del rem[key]
                continue
            if key not in rem:
                heapq.heappush(heap, -key)
            rem[key] = c
    return quot


def _exchange(f, column, cvec, k0):
    """(y^[c]+ prod_j F_j^[b_j]+ + y^[-c]+ prod_j F_j^[-b_j]+) / F_k0 for the
    F-polynomials ``f``, column k0 b of B and c-vector ``cvec``, each factor
    packed once; ArithmeticError unless the division is exact."""
    sides = [(mono, [(p, e) for p, e in zip(f, exps) if e])
             for mono, exps in zip(pos_neg_parts(cvec), pos_neg_parts(column))]
    degree = max(sum(mono) + sum(e * _degree_bound(p) for p, e in factors)
                 for mono, factors in sides)
    units, guard, width = _packing(f[k0].nvars, max(degree, _degree_bound(f[k0])))
    num = {}
    for mono, factors in sides:
        side = {sum(map(operator.mul, mono, units)): 1}
        for p, e in factors:
            side = _times(side, _power(_pack(p.terms, units), e, _times))
        for key, c in side.items():
            num[key] = num.get(key, 0) + c
    return _unpack(_divide(num, _pack(f[k0].terms, units), guard), f[k0].nvars, width)


def _primes():
    """2, 3, 5, 7, ... in order: the one sequence of a fit's nodes."""
    return filter(is_prime, itertools.count(2))


def _fit_size(degree, palindromic):
    """Points that fit a counting polynomial of ``degree``: degree // 2 + 1
    unknowns if palindromic, else degree + 1, and VERIFY_PRIMES checks."""
    return (max(degree, 0) // 2 if palindromic else degree) + 1 + VERIFY_PRIMES


def _chi_fit(primes, degree, palindromic):
    """counts -> P(1) for the integer counting polynomial P of ``degree``
    with P(p) = count at each of ``primes``, from one shared elimination.

    The unknowns are the coefficients of q^k for k <= D, or of
    q^k + q^(D - k) (q^k once if k = D - k) for k <= D // 2 when P is
    palindromic, with one row per prime; the primes past the unknowns, at
    least VERIFY_PRIMES of ``_fit_size``, check P.  The rows at distinct
    primes are independent, so a solve fails exactly when no integer P of
    that shape gives every count.  Counts that are all zero give 0.
    """
    size = _fit_size(degree, palindromic)
    basis = [{k, degree - k} if palindromic else {k} for k in range(size - VERIFY_PRIMES)]
    enough = degree >= 0 and len(primes) >= size
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
    count tables of an alpha-dimensional M, keyed by gamma <= alpha; its
    size, nodes and degree rule are decided here alone.

    If M mod p is rigid (``rigid_at(p)``) at every CERTIFY_PRIMES, the fit
    is palindromic at degree <gamma, alpha - gamma>, sized by the largest
    degree over ``base_dims()``, at the primes where M is rigid.  Otherwise
    it is at the box bound sum gamma_v (alpha_v - gamma_v), sized by its
    peak at gamma = alpha // 2, at every prime of ``_primes()``."""
    palindromic = all(map(rigid_at, CERTIFY_PRIMES))
    if palindromic:
        def degree(gamma):
            return euler_form(quiver, gamma, vec_sub(alpha, gamma))
        nodes, top = filter(rigid_at, _primes()), max(map(degree, base_dims()))
    else:
        def degree(gamma):
            return sum(g * (a - g) for g, a in zip(gamma, alpha))
        nodes, top = _primes(), degree([a // 2 for a in alpha])
    return list(itertools.islice(nodes, _fit_size(top, palindromic))), degree, palindromic


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
    weights = [vec_dot(delta, exp) for exp in poly.terms]
    best = max(weights)
    return MultiPoly._of(poly.nvars, {e: c for (e, c), w in zip(poly.terms.items(), weights)
                                      if w == best})
