"""Torsion splitting at a weight, King stability, stable Jordan-Holder
reduction, graded semistable counting, and the theorem verifiers.

For a weight delta, the subrepresentations maximizing delta(dim L) are
closed under sum and intersection, so they have a unique minimal member
L_min and maximal member L_max.  These are the only maximizers of least
and of greatest total dimension, so each is found as the unique
subrepresentation of one dimension vector, without enumerating the
other maximizers.  The subquotient perp = L_max/L_min is
delta-semistable; its semistable subrepresentations, graded by stable
Jordan-Holder multiplicities and counted across primes, recover the
restriction of the F-polynomial to the corresponding face.
"""

import itertools
from dataclasses import dataclass

from .errors import CheckFailed, InvariantViolation, NonPolynomialCount
from .grassmannian import (count_points, enumerate_subreps, maximizer_dims,
                           subrep_dim_vectors, sub_dim_vectors, unique_subrep)
from .polynomial import (MultiPoly, f_polynomial, first_primes,
                         interpolate_integer_polynomial, restrict_to_face)
from .polytope import (convex_hull, dual_cone_rays, lattice_points,
                       polytope_from_inequalities, rank_frac, solve_frac)
from .quiver import Quiver, vec_dot, vec_sub
from .rep import (Subrep, _coords_in_basis, ext_dim_hereditary,
                  generic_hom_ext, hom_dim, make_subrep, quotient,
                  restrict_to_sub)

SMALL_PRIMES = (2, 3)


@dataclass(frozen=True)
class TorsionSplit:
    delta: tuple
    value: int
    l_min: Subrep
    l_max: Subrep
    t: object
    f_part: object
    t_check: object
    f_check: object
    perp: object


def _sub_within(m_rep, outer, inner):
    """Express inner (subrep of m_rep, contained in outer) in outer's basis."""
    return [[_coords_in_basis(row, outer.bases[v], outer.pivots[v], m_rep.p)
             for row in inner.bases[v]]
            for v in range(m_rep.quiver.n)]


def torsion_split(m_rep, delta, allow_large=False):
    """Split M at the delta-maximizing subrepresentations L_min <= L_max.

    The maximizers form a lattice, so L_min (their intersection) is the
    only maximizer of least total dimension and L_max (their sum) the
    only one of greatest.  Each is read off as the unique
    subrepresentation of its dimension vector; no other maximizer is
    enumerated.
    """
    best_dims = maximizer_dims(m_rep, delta, allow_large)
    value = vec_dot(delta, next(iter(best_dims)))
    extremes = []
    for pick in (min, max):
        size = pick(sum(g) for g in best_dims)
        ties = [g for g in best_dims if sum(g) == size]
        sub = unique_subrep(m_rep, ties[0], allow_large) if len(ties) == 1 else None
        if sub is None:
            raise InvariantViolation(
                "extreme maximizer is not unique; the maximizers are not a lattice")
        extremes.append(sub)
    l_min, l_max = extremes
    t = restrict_to_sub(m_rep, l_min)
    f_part = quotient(m_rep, l_min)
    t_check = restrict_to_sub(m_rep, l_max)
    f_check = quotient(m_rep, l_max)
    outer_rep = t_check
    inner_rows = _sub_within(m_rep, l_max, l_min)
    perp = quotient(outer_rep, make_subrep(outer_rep, inner_rows))
    return TorsionSplit(tuple(delta), value, l_min, l_max,
                        t, f_part, t_check, f_check, perp)


def is_semistable(m_rep, delta, allow_large=False):
    if vec_dot(delta, m_rep.dims) != 0:
        return False
    return all(vec_dot(delta, g) <= 0
               for g in subrep_dim_vectors(m_rep, allow_large))


def is_stable(m_rep, delta, allow_large=False):
    if m_rep.total_dim == 0 or vec_dot(delta, m_rep.dims) != 0:
        return False
    for g in subrep_dim_vectors(m_rep, allow_large):
        if g == (0,) * m_rep.quiver.n or g == m_rep.dims:
            continue
        if vec_dot(delta, g) >= 0:
            return False
    return True


@dataclass(frozen=True)
class StableFactorData:
    stables: tuple        # pairwise non-isomorphic stable representations
    multiplicities: tuple


def _same_brick(a, b):
    return (a.dims == b.dims and hom_dim(a, b) == 1 and hom_dim(b, a) == 1)


def _minimal_stable_sub(w_rep, delta, allow_large=False):
    dims_with_sub = sorted(subrep_dim_vectors(w_rep, allow_large),
                           key=lambda g: (sum(g), g))
    for gamma in dims_with_sub:
        if sum(gamma) == 0 or vec_dot(delta, gamma) != 0:
            continue
        for sub in enumerate_subreps(w_rep, gamma, allow_large):
            cand = restrict_to_sub(w_rep, sub)
            if is_stable(cand, delta, allow_large):
                return sub, cand
    return None


def stable_factors(w_rep, delta, allow_large=False):
    """Stable Jordan-Holder classes and multiplicities of a semistable W."""
    if not is_semistable(w_rep, delta, allow_large):
        raise ValueError("representation is not semistable for this weight")
    classes = []
    counts = []
    current = w_rep
    while current.total_dim > 0:
        found = _minimal_stable_sub(current, delta, allow_large)
        if found is None:
            raise InvariantViolation("semistable representation with no stable subrep")
        sub, factor = found
        for i, rep in enumerate(classes):
            if _same_brick(rep, factor):
                counts[i] += 1
                break
        else:
            classes.append(factor)
            counts.append(1)
        current = quotient(current, sub)
    order = sorted(range(len(classes)), key=lambda i: classes[i].dims)
    return StableFactorData(tuple(classes[i] for i in order),
                            tuple(counts[i] for i in order))


def multiplicity_vector(l_rep, delta, stables, allow_large=False):
    """Stable JH multiplicities of a semistable subquotient L.

    Read off L's own stable filtration, matching each factor to one of
    ``stables``.  ``graded_counts`` calls this only when the stable
    dimension vectors are linearly dependent, so the dimension vector of
    L alone cannot determine them.
    """
    data = stable_factors(l_rep, delta, allow_large)
    m = [0] * len(stables)
    for rep, cnt in zip(data.stables, data.multiplicities):
        for i, s in enumerate(stables):
            if _same_brick(rep, s):
                m[i] += cnt
                break
        else:
            raise InvariantViolation("stable factor not among the expected classes")
    return tuple(m)


def _iota_rows(iota, n):
    return [[iota[j][v] for j in range(len(iota))] for v in range(n)]


def graded_counts(w_rep, delta, stables, allow_large=False):
    """Count semistable subreps of W per multiplicity vector, one prime.

    When the stable dimension vectors are linearly independent the
    multiplicity vector is a function of the dimension vector alone, so
    point counts suffice; otherwise each subrepresentation is inspected.
    """
    counts = {}
    iota = [s.dims for s in stables]
    n = len(w_rep.dims)
    rows = _iota_rows(iota, n)
    independent = rank_frac(rows, len(iota)) == len(iota)
    for gamma in subrep_dim_vectors(w_rep, allow_large):
        if vec_dot(delta, gamma) != 0:
            continue
        if independent:
            sol = solve_frac(rows, gamma, len(iota))
            if sol is None or any(x.denominator != 1 or x < 0 for x in sol):
                raise InvariantViolation(
                    "semistable dimension vector not in the stable lattice")
            m = tuple(int(x) for x in sol)
            counts[m] = counts.get(m, 0) + count_points(w_rep, gamma,
                                                        allow_large)
        else:
            for sub in enumerate_subreps(w_rep, gamma, allow_large):
                l_rep = restrict_to_sub(w_rep, sub)
                m = multiplicity_vector(l_rep, delta, stables, allow_large)
                counts[m] = counts.get(m, 0) + 1
    return counts


def _split_at_prime(recipe, delta, p, allow_large=False):
    m_rep = recipe.at_prime(p)
    split = torsion_split(m_rep, delta, allow_large)
    stables = stable_factors(split.perp, delta, allow_large)
    return split, stables


@dataclass(frozen=True)
class GradedData:
    poly: MultiPoly       # variables indexed by the stable classes
    stable_dims: tuple    # iota: image of each variable in K_0(Q)
    dim_t: tuple
    dim_t_check: tuple
    multiplicities: tuple


def graded_semistable_f(recipe, delta, allow_large=False, extra_primes=1):
    """Euler-characteristic generating polynomial of semistable subreps
    of perp(M, delta), graded by stable JH multiplicity."""
    base_split, base_stables = _split_at_prime(recipe, delta, SMALL_PRIMES[0],
                                               allow_large)
    stable_dims = tuple(s.dims for s in base_stables.stables)
    w_dims = base_split.perp.dims
    # max over gamma of sum gamma_v (w_v - gamma_v): bound for every grade
    degree = sum((d // 2) * (d - d // 2) for d in w_dims)
    primes = first_primes(degree + 1 + extra_primes)
    per_prime = []
    for p in primes:
        if p == SMALL_PRIMES[0]:
            split, stables = base_split, base_stables
        else:
            split, stables = _split_at_prime(recipe, delta, p, allow_large)
        if tuple(s.dims for s in stables.stables) != stable_dims:
            raise NonPolynomialCount(
                f"stable classes at p={p} do not match the base prime")
        per_prime.append(graded_counts(split.perp, delta,
                                       stables.stables, allow_large))
    terms = {}
    for m in set(itertools.chain.from_iterable(per_prime)):
        gamma = tuple(sum(mi * d[v] for mi, d in zip(m, stable_dims))
                      for v in range(len(w_dims)))
        deg_m = sum(g * (d - g) for g, d in zip(gamma, w_dims))
        points = [(p, c.get(m, 0)) for p, c in zip(primes, per_prime)]
        coeffs = interpolate_integer_polynomial(points, deg_m,
                                                verify=len(points) - deg_m - 1)
        chi = sum(coeffs)
        if chi:
            terms[m] = chi
    poly = MultiPoly(len(stable_dims), terms)
    return GradedData(poly, stable_dims, base_split.l_min.dims,
                      base_split.l_max.dims, base_stables.multiplicities)


def verify_facet_restriction(recipe, delta, fpoly=None, allow_large=False):
    """Check the face-restriction factorization of the F-polynomial.

    restrict_to_face(F_M, delta) must equal y^{dim t} times the graded
    semistable polynomial of perp under the monomial substitution sending
    each stable class to y^{dim V_i}.
    """
    if fpoly is None:
        fpoly = f_polynomial(recipe, allow_large)
    lhs = restrict_to_face(fpoly, delta)
    graded = graded_semistable_f(recipe, delta, allow_large)
    substituted = graded.poly.substitute_monomial(graded.stable_dims,
                                                  nvars_out=len(recipe.dims))
    rhs = MultiPoly.monomial(len(recipe.dims), graded.dim_t) * substituted
    return {
        "check": "facet-restriction",
        "delta": list(delta),
        "pass": lhs == rhs,
        "restriction": lhs.to_json(),
        "reconstruction": rhs.to_json(),
        "dim_t": list(graded.dim_t),
        "dim_t_check": list(graded.dim_t_check),
        "stable_dims": [list(d) for d in graded.stable_dims],
        "graded_poly": graded.poly.to_json(),
    }


def collapse_monomial(poly, images, nvars_out):
    """Inverse monomial substitution: rewrite exponents in the image lattice.

    Each exponent vector must be a unique nonnegative integer combination
    of the image vectors (their linear independence is required).
    """
    n = len(images[0])
    if rank_frac([list(r) for r in _iota_rows(images, n)], len(images)) != len(images):
        raise ValueError("image vectors must be linearly independent")
    rows = _iota_rows(images, n)
    terms = {}
    for exp, coef in poly.terms.items():
        sol = solve_frac(rows, exp, len(images))
        if sol is None or any(x.denominator != 1 or x < 0 for x in sol):
            raise ValueError(f"exponent {exp} is not in the image cone")
        terms[tuple(int(x) for x in sol)] = coef
    return MultiPoly(nvars_out, terms)


def perpendicular_quiver(quiver, stables):
    """Quiver on the stable classes with ext-many arrows, plus iota."""
    for s in stables:
        if hom_dim(s, s) != 1:
            raise ValueError("stable class with endomorphisms beyond scalars")
    names = tuple(str(i + 1) for i in range(len(stables)))
    arrows = []
    for i, vi in enumerate(stables):
        for j, vj in enumerate(stables):
            if i == j:
                continue
            for _ in range(ext_dim_hereditary(vi, vj)):
                arrows.append((i, j))
    iota = tuple(s.dims for s in stables)
    return Quiver(names, tuple(arrows)), iota


def delta_cones(recipe, allow_large=False):
    """Extremal rays of the hom-vanishing and ext-vanishing weight cones."""
    vertices = convex_hull(sub_dim_vectors(recipe, allow_large=allow_large)).vertices
    r0 = dual_cone_rays(vertices, ambient=len(recipe.dims))
    alpha = recipe.dims
    r1 = dual_cone_rays([vec_sub(v, alpha) for v in vertices],
                        ambient=len(alpha))
    return r0, r1


def newton_via_cones(recipe, allow_large=False):
    """Rebuild the Newton polytope from the weight cones and cross-check.

    H-representation: delta(gamma) <= 0 for rays of the hom cone and
    delta(gamma) <= delta(alpha) for rays of the ext cone.  CheckFailed is
    raised unless it agrees facet-for-facet with the hull of the sub-dims.
    """
    direct = convex_hull(sub_dim_vectors(recipe, allow_large=allow_large))
    r0, r1 = delta_cones(recipe, allow_large)
    alpha = recipe.dims
    ineqs = [(ray, 0) for ray in r0.rays]
    ineqs += [(ray, vec_dot(ray, alpha)) for ray in r1.rays]
    rebuilt = polytope_from_inequalities(ineqs, len(alpha))
    if rebuilt.vertices != direct.vertices or rebuilt.facets != direct.facets:
        missing = set(direct.facets) ^ set(rebuilt.facets)
        raise CheckFailed(
            f"cone reconstruction disagrees with the direct hull; "
            f"witness facets: {sorted(missing)}")
    return rebuilt


def _is_rigid(recipe):
    if not recipe.quiver.acyclic:
        return False
    _, ext = generic_hom_ext(recipe.quiver, recipe.dims, recipe.dims,
                             seed=recipe.seed)
    return ext == 0


def verify_vertex_theorems(recipe, primes=(2, 3, 5), allow_large=False):
    """Vertex subrepresentations are unique points with Hom(L, M/L) = 0;
    for rigid acyclic M, vertices are exactly the perpendicular splittings."""
    dims = sub_dim_vectors(recipe, allow_large=allow_large)
    hull = convex_hull(dims)
    witnesses = []
    for gamma in hull.vertices:
        for p in primes:
            m_rep = recipe.at_prime(p)
            if count_points(m_rep, gamma, allow_large) != 1:
                witnesses.append({"gamma": list(gamma), "prime": p,
                                  "fail": "vertex count != 1"})
        m_rep = recipe.at_prime(primes[0])
        sub = unique_subrep(m_rep, gamma, allow_large)
        if sub is None:
            witnesses.append({"gamma": list(gamma), "fail": "no unique subrep"})
            continue
        l_rep = restrict_to_sub(m_rep, sub)
        q_rep = quotient(m_rep, sub)
        if hom_dim(l_rep, q_rep) != 0:
            witnesses.append({"gamma": list(gamma),
                              "fail": "Hom(L, M/L) != 0"})
    rigid = _is_rigid(recipe)
    if rigid:
        alpha = recipe.dims
        vertex_set = set(hull.vertices)
        for gamma in sorted(dims):
            h, e = generic_hom_ext(recipe.quiver, gamma, vec_sub(alpha, gamma),
                                   seed=recipe.seed)
            if ((h, e) == (0, 0)) != (gamma in vertex_set):
                witnesses.append({"gamma": list(gamma), "hom": h, "ext": e,
                                  "fail": "perpendicularity != vertex"})
    return {"check": "vertices", "rigid": rigid,
            "vertices": [list(v) for v in hull.vertices],
            "pass": not witnesses, "witnesses": witnesses}


def generic_sub_dims(quiver, alpha, seed=0):
    """Sub-dimension vectors of a general alpha-dimensional representation.

    A general representation has a gamma-dimensional subrepresentation
    exactly when the generic ext(gamma, alpha - gamma) vanishes, which is
    sampled at large primes without any subspace enumeration.
    """
    if not quiver.acyclic:
        raise ValueError("generic sub-dimension test requires an acyclic quiver")
    out = set()
    for gamma in itertools.product(*(range(a + 1) for a in alpha)):
        beta = vec_sub(alpha, gamma)
        if generic_hom_ext(quiver, gamma, beta, seed=seed)[1] == 0:
            out.add(gamma)
    return frozenset(out)


def verify_saturation(recipe, allow_large=False):
    """Every lattice point of the Newton polytope should carry both a
    nonzero coefficient and a subrepresentation; witnesses otherwise.

    For seeded recipes of acyclic quivers the sub-lattice is the generic
    one; the support check is skipped when the point counts fail to be
    polynomial (which itself only happens away from the rigid case).
    """
    if recipe.int_matrices is None and recipe.quiver.acyclic:
        dims = generic_sub_dims(recipe.quiver, recipe.dims, seed=recipe.seed)
    else:
        dims = sub_dim_vectors(recipe, allow_large=allow_large)
    hull = convex_hull(dims)
    missing_sub = [list(point) for point in lattice_points(hull)
                   if point not in dims]
    try:
        support = f_polynomial(recipe, allow_large).support()
    except NonPolynomialCount as exc:
        return {"check": "saturation", "pass": not missing_sub,
                "support_witnesses": None,
                "support_skipped": str(exc),
                "sublattice_witnesses": missing_sub}
    missing_support = [list(point) for point in lattice_points(convex_hull(support))
                       if point not in support]
    return {"check": "saturation",
            "pass": not missing_support and not missing_sub,
            "support_witnesses": missing_support,
            "sublattice_witnesses": missing_sub}
