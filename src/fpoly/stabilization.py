"""Torsion splitting at a weight, King stability, stable Jordan-Holder
reduction, graded semistable counting, and the theorem verifiers: facet
restrictions, vertices, saturation and the two weight cones.

For a weight delta, the subrepresentations maximizing delta(dim L) are
closed under sum and intersection, so they have a unique minimal member
L_min and maximal member L_max.  These are the only maximizers of least
and of greatest total dimension, so each is found as the unique
subrepresentation of one dimension vector, without enumerating the
other maximizers.  The subquotient perp = L_max/L_min is
delta-semistable; its semistable subrepresentations, graded by stable
Jordan-Holder multiplicities and counted across primes, recover the
restriction of the F-polynomial to the corresponding face.

The stable filtration of a semistable W needs no stability search: a
nonzero delta-null subrepresentation of least total dimension is
already stable (King, 1994), so each step takes the first point of the
least such dimension vector and passes to the quotient.  This one walk
gives W's classes and, for dependent stable dimension vectors, the grade
of each point; independent ones grade by dimension vector alone, so only
the base prime walks W and the later primes reuse its classes.

The saturation check counts the support of F only for one module:
explicit matrices, or a seeded recipe that is rigid, whose certified
draws are all the one rigid module.  A seeded recipe that is not rigid
is a different module at each prime, so its support half is skipped
with no draw or count of its own, and the sub-lattice half alone runs,
on S(alpha) for an acyclic quiver.  A rigid
acyclic M has support S(alpha) (Caldero-Reineke 2008), so the support
half reuses the hull and lattice points of the sub-dimension set
whenever the two sets are equal.

The weight cones need no dual cone: the hom- and e-vanishing cones are
the normal cones of the Newton polytope at its vertices 0 and dim M, so
they describe it when every facet passes through one of the two.
"""

from dataclasses import dataclass
from functools import cache

from .errors import InvariantViolation, NonPolynomialCount
from .grassmannian import (CERTIFY_PRIMES, enumerate_subreps, maximizer_dims,
                           subrep_counts, subrep_dim_vectors, sub_dim_vectors,
                           tropical_f, unique_subrep)
from .intlinalg import solver
from .polynomial import (MultiPoly, f_polynomial, fit_tables, plan_fit,
                         restrict_to_face)
from .polytope import convex_hull, lattice_points
from .quiver import vec_dot, vec_sub
from .rep import (Subrep, _coords_in_basis, _is_rigid_rep, generic_hom_ext,
                  hom_dim, make_subrep, quotient, restrict_to_sub)

BASE_PRIME = CERTIFY_PRIMES[0]  # the prime whose stable classes the others reuse or match
VERTEX_PRIMES = (2, 3, 5)


@dataclass(frozen=True)
class TorsionSplit:
    """The extreme delta-maximizers L_min <= L_max and perp = L_max/L_min."""

    l_min: Subrep
    l_max: Subrep
    perp: object


def _sub_within(m_rep, outer, inner):
    """Express inner (subrep of m_rep, contained in outer) in outer's basis."""
    return [[_coords_in_basis(row, outer.bases[v], outer.pivots[v], m_rep.p)
             for row in inner.bases[v]]
            for v in range(m_rep.quiver.n)]


def torsion_split(m_rep, delta):
    """Split M at the delta-maximizing subrepresentations L_min <= L_max.

    The maximizers form a lattice, so L_min (their intersection) is the
    only maximizer of least total dimension and L_max (their sum) the
    only one of greatest.  Each is read off as the unique
    subrepresentation of its dimension vector; no other maximizer is
    enumerated.
    """
    best_dims = maximizer_dims(m_rep, delta)
    extremes = []
    for pick in (min, max):
        size = pick(sum(g) for g in best_dims)
        ties = [g for g in best_dims if sum(g) == size]
        sub = unique_subrep(m_rep, ties[0]) if len(ties) == 1 else None
        if sub is None:
            raise InvariantViolation(
                "extreme maximizer is not unique; the maximizers are not a lattice")
        extremes.append(sub)
    l_min, l_max = extremes
    outer_rep = restrict_to_sub(m_rep, l_max)
    inner_rows = _sub_within(m_rep, l_max, l_min)
    perp = quotient(outer_rep, make_subrep(outer_rep, inner_rows))
    return TorsionSplit(l_min, l_max, perp)


def is_semistable(m_rep, delta):
    """Whether f_M(delta) = 0 = delta(dim M): 0 is a subrepresentation,
    so f_M(delta) = 0 says that none has positive weight."""
    return tropical_f(m_rep, delta) == 0 == vec_dot(delta, m_rep.dims)


@dataclass(frozen=True)
class StableFactorData:
    stables: tuple        # pairwise non-isomorphic stable representations
    multiplicities: tuple


def _minimal_stable_sub(w_rep, delta):
    """A delta-stable subrepresentation of a semistable W, and it as a
    representation: the first point of the least delta-null nonzero
    sub-dimension vector, by (total dimension, gamma), or (None, W) if it is
    dim W.  Any proper nonzero delta-null subrep of it would be a smaller one of W."""
    gamma = min((g for g in subrep_dim_vectors(w_rep)
                 if sum(g) and vec_dot(delta, g) == 0),
                key=lambda g: (sum(g), g))
    if gamma == w_rep.dims:
        return None, w_rep
    sub = next(enumerate_subreps(w_rep, gamma))
    return sub, restrict_to_sub(w_rep, sub)


def _stable_filtration(w_rep, delta):
    """The stable factors of a semistable W, lowest first, each a least delta-null subrep."""
    if not is_semistable(w_rep, delta):
        raise ValueError("representation is not semistable for this weight")
    current = w_rep
    while current.total_dim > 0:
        # current is delta-null and nonzero, so it is a candidate itself.
        sub, factor = _minimal_stable_sub(current, delta)
        yield factor
        if sub is None:
            return
        current = quotient(current, sub)


def _class_of(factor, classes):
    """The index of the class isomorphic to a delta-stable factor, or None:
    by Schur's lemma (King 1994), a stable of the same dimension vector
    with Hom(class, factor) != 0, even if End(factor) is larger than F_p."""
    return next((i for i, rep in enumerate(classes)
                 if rep.dims == factor.dims and hom_dim(rep, factor) != 0), None)


def stable_factors(w_rep, delta):
    """Stable Jordan-Holder classes and multiplicities of a semistable W,
    by (dimension vector, multiplicity): the filtration's order varies
    with p, so classes sharing a dimension vector are ordered by
    multiplicity, and only classes tied on both keep it."""
    classes, counts = [], []
    for factor in _stable_filtration(w_rep, delta):
        i = _class_of(factor, classes)
        if i is None:
            classes.append(factor)
            counts.append(1)
        else:
            counts[i] += 1
    order = sorted(range(len(classes)), key=lambda i: (classes[i].dims, counts[i]))
    return StableFactorData(tuple(classes[i] for i in order),
                            tuple(counts[i] for i in order))


def graded_counts(w_rep, delta, stables, solve):
    """Count semistable subreps of W per multiplicity vector, one prime.

    ``solve`` maps a dimension vector to its multiplicities in the base
    prime's stable classes, and a delta-null one outside their cone is a
    bug at the base prime and a mismatch at a later one; when it is None
    (dependent stable dims) each point's own stable factors are matched.
    """
    counts = {}
    for gamma, count in subrep_counts(w_rep).items():
        if vec_dot(delta, gamma) != 0:
            continue
        if solve is not None:
            m = solve(gamma)
            if m is None or any(x < 0 for x in m):
                raise (_mismatch(w_rep.p) if w_rep.p != BASE_PRIME else InvariantViolation(
                    "semistable dimension vector not in the stable lattice"))
            counts[m] = counts.get(m, 0) + count
            continue
        for sub in enumerate_subreps(w_rep, gamma):
            m = [0] * len(stables)
            for factor in _stable_filtration(restrict_to_sub(w_rep, sub), delta):
                i = _class_of(factor, stables)
                if i is None:
                    raise InvariantViolation("stable factor not among the expected classes")
                m[i] += 1
            counts[tuple(m)] = counts.get(tuple(m), 0) + 1
    return counts


def _mismatch(p):
    return NonPolynomialCount(f"perp or stable classes at p={p} do not match the base prime")


@dataclass(frozen=True)
class GradedData:
    poly: MultiPoly       # variables indexed by the stable classes
    stable_dims: tuple    # iota: image of each variable in K_0(Q)
    dim_t: tuple
    dim_t_check: tuple


def graded_semistable_f(recipe, delta):
    """Euler-characteristic generating polynomial of semistable subreps
    of perp(M, delta), graded by stable JH multiplicity.

    The stable classes are those of W at the base prime (CERTIFY_PRIMES[0]).
    If their dimension vectors are independent, the grade m counts
    Gr_gamma(W) for gamma = iota m, solved by one elimination of iota, and
    a later prime checks only that its W is semistable of dimension vector
    w; a delta-null gamma outside the cone of iota is a bug at the base
    prime and a mismatch (NonPolynomialCount) at a later one.  Else each
    later prime filters its own W, which must have the base prime's stable dims.
    The primes, their number and the degree rule come from ``plan_fit``
    alone, as a recipe's do: rigid primes at <gamma, w - gamma> if the
    stable dims are independent and W is rigid mod 2 and 3, else the box
    bound of w.  Either fit stops at the first count no integer polynomial gives.
    """
    @cache
    def split_at(p):
        """The torsion split of M mod p, whose perp must be semistable."""
        split = torsion_split(recipe.at_prime(p), delta)
        if not is_semistable(split.perp, delta):
            raise InvariantViolation(f"perp at p={p} is not semistable for this weight")
        return split

    base = split_at(BASE_PRIME)
    base_stables = stable_factors(base.perp, delta).stables
    stable_dims = tuple(s.dims for s in base_stables)
    iota_rows = [[d[v] for d in stable_dims] for v in range(recipe.quiver.n)]
    solve = solver(iota_rows, len(stable_dims))

    @cache
    def counts_at(p):
        """Graded counts of W mod p."""
        perp = split_at(p).perp
        stables = (base_stables if solve is not None or p == BASE_PRIME
                   else stable_factors(perp, delta).stables)
        if (perp.dims, tuple(s.dims for s in stables)) != (base.perp.dims, stable_dims):
            raise _mismatch(p)
        return graded_counts(perp, delta, stables, solve)

    @cache
    def rigid_at(p):
        return solve is not None and _is_rigid_rep(split_at(p).perp)

    def iota(m):
        """The dimension vector sum m_i dim V_i of grade m."""
        return tuple(vec_dot(row, m) for row in iota_rows)

    primes, degree, palindromic = plan_fit(
        recipe.quiver, base.perp.dims, rigid_at, lambda: map(iota, counts_at(BASE_PRIME)))
    terms = fit_tables(((p, counts_at(p)) for p in primes),
                       lambda m: degree(iota(m)), palindromic)
    return GradedData(MultiPoly(len(stable_dims), terms), stable_dims,
                      base.l_min.dims, base.l_max.dims)


def verify_facet_restriction(recipe, delta, fpoly=None):
    """Check the face-restriction factorization of the F-polynomial.

    restrict_to_face(F_M, delta) must equal y^{dim t} times the graded
    semistable polynomial of perp under the monomial substitution sending
    each stable class to y^{dim V_i}.
    """
    if fpoly is None:
        fpoly = f_polynomial(recipe)
    lhs = restrict_to_face(fpoly, delta)
    graded = graded_semistable_f(recipe, delta)
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


def verify_facets(recipe, fpoly=None):
    """The face-restriction check at every facet normal of the Newton
    polytope of F, which is ``f_polynomial(recipe)`` unless given."""
    if fpoly is None:
        fpoly = f_polynomial(recipe)
    hull = convex_hull(fpoly.support())
    results = [verify_facet_restriction(recipe, delta, fpoly=fpoly)
               for delta, _ in hull.facets]
    return {"check": "facets",
            "pass": all(r["pass"] for r in results),
            "witnesses": [r for r in results if not r["pass"]],
            "facets": results}


def verify_cones(recipe):
    """Every facet of the Newton polytope comes from one of the two weight
    cones: it passes through 0 (delta with hom(delta, M) = 0) or through
    alpha = dim M (delta with e(delta, M) = 0).

    The two cones are the normal cones of the hull at its vertices 0 and
    alpha, each generated by the normals of the facets through its vertex,
    so the theorem holds exactly when every facet n.x <= h has h = 0 or
    h = n.alpha.  A witness names the facets that have neither.
    """
    hull = convex_hull(sub_dim_vectors(recipe))
    stray = [(n, h) for n, h in hull.facets if h not in (0, vec_dot(n, recipe.dims))]
    if stray:
        return {"check": "cones", "pass": False,
                "witnesses": [f"facets through neither 0 nor dim M: {stray}"]}
    return {"check": "cones", "pass": True, "witnesses": [], "polytope": hull.to_json()}


def verify_vertex_theorems(recipe):
    """Vertex subrepresentations are unique points with Hom(L, M/L) = 0;
    for rigid acyclic M, vertices are exactly the perpendicular splittings.

    The points are counted at VERTEX_PRIMES for a seeded recipe, whose
    draw is generic at every prime, and at the CERTIFY_PRIMES of its hull
    for explicit matrices, whose reduction at another prime may be another
    module.  A count other than 1 is a "vertex count != 1" witness; at the
    first prime it skips the Hom check, whose L is the one point there."""
    dims = sub_dim_vectors(recipe)
    hull = convex_hull(dims)
    primes = VERTEX_PRIMES if recipe.int_matrices is None else CERTIFY_PRIMES
    witnesses = []
    for gamma in hull.vertices:
        unique = [subrep_counts(recipe.at_prime(p)).get(gamma) == 1 for p in primes]
        witnesses += [{"gamma": list(gamma), "prime": p, "fail": "vertex count != 1"}
                      for p, one in zip(primes, unique) if not one]
        if not unique[0]:
            continue
        m_rep = recipe.at_prime(primes[0])
        sub = next(enumerate_subreps(m_rep, gamma))
        if hom_dim(restrict_to_sub(m_rep, sub), quotient(m_rep, sub)) != 0:
            witnesses.append({"gamma": list(gamma), "fail": "Hom(L, M/L) != 0"})
    rigid = all(map(recipe.is_rigid_at, CERTIFY_PRIMES))
    if rigid:
        vertex_set = set(hull.vertices)
        for gamma in sorted(dims):
            h, e = generic_hom_ext(recipe.quiver, gamma, vec_sub(recipe.dims, gamma))
            if ((h, e) == (0, 0)) != (gamma in vertex_set):
                witnesses.append({"gamma": list(gamma), "hom": h, "ext": e,
                                  "fail": "perpendicularity != vertex"})
    return {"check": "vertices", "rigid": rigid,
            "vertices": [list(v) for v in hull.vertices],
            "pass": not witnesses, "witnesses": witnesses}


def verify_saturation(recipe):
    """Every lattice point of the Newton polytope should carry both a
    nonzero coefficient and a subrepresentation; witnesses otherwise.

    The sub-lattice half reads the recipe's ``sub_dim_vectors``.  The
    support half counts F only for one module: explicit matrices, or a
    seeded recipe that ``is_rigid_at`` the CERTIFY_PRIMES, whose every
    certified draw is the one rigid module.  A seeded recipe that is not
    rigid draws a different module at each prime, so its support half is
    skipped before it draws or counts, as it is when the point counts
    fail to be polynomial.  A support equal to the sub-dimension set, as
    for rigid acyclic M, reuses their hull and lattice points.
    """
    dims = sub_dim_vectors(recipe)
    points = lattice_points(convex_hull(dims))
    missing_sub = [list(point) for point in points if point not in dims]
    skipped = {"check": "saturation", "pass": not missing_sub,
               "support_witnesses": None, "sublattice_witnesses": missing_sub}
    if recipe.int_matrices is None and not all(map(recipe.is_rigid_at, CERTIFY_PRIMES)):
        return dict(skipped, support_skipped=(
            "the seeded recipe is not rigid, so its draws at different primes "
            "are different modules; pass explicit int_matrices to count one module"))
    try:
        support = f_polynomial(recipe).support()
    except NonPolynomialCount as exc:
        return dict(skipped, support_skipped=str(exc))
    if support != dims:
        points = lattice_points(convex_hull(support))
    missing_support = [list(point) for point in points if point not in support]
    return {"check": "saturation",
            "pass": not missing_support and not missing_sub,
            "support_witnesses": missing_support,
            "sublattice_witnesses": missing_sub}
