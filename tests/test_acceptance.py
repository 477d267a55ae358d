"""End-to-end acceptance suite: nine golden checks, one pass/fail line each.

Every comparison is exact equality on integers or integer polynomials.
Run with `pytest -s tests/test_acceptance.py` to see the summary lines.
"""

import itertools
import random
import time

from fpoly.cluster import b_matrix, find_by_delta, mutate, run_sequence, \
    seed_from_quiver
from fpoly.grassmannian import subrep_counts, subrep_dim_vectors
from fpoly.polynomial import MultiPoly, f_polynomial, restrict_to_face
from fpoly.polytope import convex_hull
from fpoly.quiver import Quiver, kronecker_quiver, vec_dot, vec_sub
from fpoly.rep import (RepRecipe, ext_dim_hereditary, generic_hom_ext,
                       generic_sub_dims, random_representation)
from fpoly.stabilization import (verify_cones, verify_facet_restriction,
                                 verify_saturation)

CYCLE4 = Quiver(("1", "2", "3", "4"),
                ((0, 3), (1, 0), (1, 2), (1, 3), (2, 0), (3, 2)))
Q231 = Quiver(("1", "2", "3"), ((0, 1), (0, 1), (1, 2)))
K3 = kronecker_quiver(3)

Y1, Y2, Y3, Y4 = (MultiPoly.monomial(4, e) for e in
                  ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)))
ONE4 = MultiPoly.one(4)

CYCLE4_17_TERMS = (ONE4 + Y3 + Y3 * Y4 + 2 * Y1 + 4 * Y1 * Y3
                   + 2 * Y1 * Y3 * Y4 + 2 * Y1 * Y3 ** 2
                   + 2 * Y1 * Y3 ** 2 * Y4 + Y1 ** 2 + 3 * Y1 ** 2 * Y3
                   + Y1 ** 2 * Y3 * Y4 + 3 * Y1 ** 2 * Y3 ** 2
                   + 2 * Y1 ** 2 * Y3 ** 2 * Y4 + Y1 ** 2 * Y3 ** 3
                   + Y1 ** 2 * Y3 ** 3 * Y4 + Y1 ** 2 * Y2 * Y3 ** 2 * Y4
                   + Y1 ** 2 * Y2 * Y3 ** 3 * Y4)

# facet table of the 4-cycle example: normal, dim t, dim t-check, restriction
CYCLE4_FACETS = (
    ((-1, 2, 0, 0), (0, 0, 0, 0), (2, 1, 3, 1),
     ONE4 + Y3 + Y3 * Y4 + Y1 ** 2 * Y2 * Y3 ** 2 * Y4
     + Y1 ** 2 * Y2 * Y3 ** 3 * Y4),
    ((0, 1, 0, -1), (0, 0, 0, 0), (2, 1, 3, 1),
     (ONE4 + Y3) * (ONE4 + 2 * Y1 + Y1 ** 2 + 2 * Y1 * Y3 + 2 * Y1 ** 2 * Y3
                    + Y1 ** 2 * Y3 ** 2 + Y1 ** 2 * Y2 * Y3 ** 2 * Y4)),
    ((0, -1, 0, 0), (0, 0, 0, 0), (2, 0, 3, 1),
     (ONE4 + Y1 + Y1 * Y3) ** 2 * (ONE4 + Y3 + Y3 * Y4)),
    ((0, 1, -1, 1), (0, 0, 0, 0), (2, 1, 2, 1),
     ONE4 + 2 * Y1 + Y1 ** 2 + Y3 * Y4 + 2 * Y1 * Y3 * Y4
     + Y1 ** 2 * Y3 * Y4 + Y1 ** 2 * Y2 * Y3 ** 2 * Y4),
    ((1, 0, 0, 0), (2, 0, 0, 0), (2, 1, 3, 1),
     Y1 ** 2 * (ONE4 + Y3) * (ONE4 + 2 * Y3 + Y3 ** 2 + Y3 * Y4
                              + Y3 ** 2 * Y4 + Y2 * Y3 ** 2 * Y4)),
    ((0, 0, 0, 1), (0, 0, 1, 1), (2, 1, 3, 1),
     Y3 * Y4 * (ONE4 + 2 * Y1 + 2 * Y1 * Y3 + Y1 ** 2 + 2 * Y1 ** 2 * Y3
                + Y1 ** 2 * Y3 ** 2 + Y1 ** 2 * Y2 * Y3
                + Y1 ** 2 * Y2 * Y3 ** 2)),
    ((-1, 0, 1, 0), (0, 0, 1, 0), (2, 1, 3, 1),
     Y3 * (ONE4 + Y4 + 2 * Y1 * Y3 + 2 * Y1 * Y3 * Y4 + Y1 ** 2 * Y3 ** 2
           + Y1 ** 2 * Y3 ** 2 * Y4 + Y1 ** 2 * Y2 * Y3 ** 2 * Y4)),
)


def _report(num, name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"{status} [criterion {num}] {name}")
    assert not failures, f"criterion {num} ({name}): {failures}"


def _support_min_max(poly):
    support = poly.support()
    lo = tuple(min(g[i] for g in support) for i in range(poly.nvars))
    hi = tuple(max(g[i] for g in support) for i in range(poly.nvars))
    return lo, hi


def test_criterion_1_cycle4_mutation_golden():
    start = time.monotonic()
    seed = run_sequence(b_matrix(CYCLE4), (3, 4, 1, 2))
    f = find_by_delta(seed, (-1, 1, 1, 0))
    failures = []
    if f != CYCLE4_17_TERMS:
        failures.append("F-polynomial differs from the printed 17 terms")
    if len(f) != 17:
        failures.append(f"term count {len(f)}")
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.1f}s >= 1s")
    _report(1, "4-cycle mutation (3,4,1,2) 17-term F-polynomial", failures)


def test_criterion_2_cycle4_facet_table():
    start = time.monotonic()
    failures = []
    hull = convex_hull(CYCLE4_17_TERMS.support())
    normals = {n for n, _ in hull.facets}
    expected = {row[0] for row in CYCLE4_FACETS}
    if len(hull.facets) != 7 or normals != expected:
        failures.append(f"facet normals {sorted(normals)}")
    for delta, dim_t, dim_tc, printed in CYCLE4_FACETS:
        restriction = restrict_to_face(CYCLE4_17_TERMS, delta)
        if restriction != printed:
            failures.append(f"restriction at {delta}")
        lo, hi = _support_min_max(restriction)
        if lo != dim_t or hi != dim_tc:
            failures.append(f"support extremes at {delta}: {lo}, {hi}")
    elapsed = time.monotonic() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.1f}s >= 1s")
    _report(2, "4-cycle polytope: 7 facets, restrictions, torsion dims",
            failures)


def test_criterion_3_cycle4_longer_sequence():
    start = time.monotonic()
    failures = []
    seed = run_sequence(b_matrix(CYCLE4), (2, 3, 4, 1, 2, 3))
    f = find_by_delta(seed, (1, -1, 1, 1), dual=True)
    top = max(f.terms, key=sum)
    if top != (2, 5, 2, 2):
        failures.append(f"top {top}")
    delta = (-1, 0, 1, 0)
    restriction = restrict_to_face(f, delta)
    printed = (Y3 * (ONE4 + Y4 + Y2 * Y4) ** 2
               * (ONE4 + Y1 * Y3 + 2 * Y1 * Y2 * Y3 + Y1 * Y2 ** 2 * Y3))
    if restriction != printed:
        failures.append("restriction differs")
    lo, hi = _support_min_max(restriction)
    if lo != (0, 0, 1, 0) or hi != (1, 4, 2, 2):
        failures.append(f"support extremes {lo}, {hi}")
    f_delta = max(vec_dot(delta, g) for g in f.support())
    fcheck = f_delta - vec_dot(delta, top)
    if f_delta != 1 or fcheck != 1:
        failures.append(f"f={f_delta}, f-check={fcheck}")
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _report(3, "4-cycle mutation (2,3,4,1,2,3): facet with both "
               "torsion parts nontrivial", failures)


def test_criterion_4_real_schur_root_end_to_end():
    start = time.monotonic()
    failures = []
    recipe = RepRecipe(Q231, (2, 4, 1), seed=0)
    fpoly = f_polynomial(recipe)
    y1, y2, y3 = (MultiPoly.monomial(3, e) for e in
                  ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    one = MultiPoly.one(3)
    printed_f = (one + 3 * y2 + 3 * y2 ** 2 + y2 ** 3 + y3 + 4 * y2 * y3
                 + 6 * y2 ** 2 * y3 + 4 * y2 ** 3 * y3 + y2 ** 4 * y3
                 + 2 * y1 * y2 ** 2 * y3 + 4 * y1 * y2 ** 3 * y3
                 + 2 * y1 * y2 ** 4 * y3 + y1 ** 2 * y2 ** 4 * y3)
    if fpoly != printed_f or len(fpoly) != 13:
        failures.append("counting F-polynomial differs from printed")
    cones = verify_cones(recipe)
    if not cones["pass"]:
        failures.append(f"cones check failed: {cones['witnesses']}")
    normals = {tuple(f["normal"]) for f in cones.get("polytope", {}).get("facets", ())}
    if normals != {(2, -1, 0), (1, 0, -2), (-1, 0, 0), (0, 0, 1), (0, 1, -1)}:
        failures.append(f"cone normals {sorted(normals)}")
    table = {
        (2, -1, 0): one + y3 + 2 * y1 * y2 ** 2 * y3 + y1 ** 2 * y2 ** 4 * y3,
        (1, 0, -2): one + 3 * y2 + 3 * y2 ** 2 + y2 ** 3
                    + y1 ** 2 * y2 ** 4 * y3,
        (-1, 0, 0): (one + y2) ** 3 * (one + y3 + y2 * y3),
        (0, 0, 1): y3 * (one + 2 * y2 + y2 ** 2 + y1 * y2 ** 2) ** 2,
        (0, 1, -1): y2 ** 3 * (one + y2 * y3 + 2 * y1 * y2 * y3
                               + y1 ** 2 * y2 * y3),
    }
    for delta, printed in table.items():
        out = verify_facet_restriction(recipe, delta, fpoly=fpoly)
        if not out["pass"]:
            failures.append(f"graded reconstruction failed at {delta}")
        if MultiPoly.from_json(out["restriction"]) != printed:
            failures.append(f"restriction at {delta}")
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(4, "1=>2->3 dimension (2,4,1): counting F, weight cones, all "
               "5 facet restrictions", failures)


def test_criterion_5_mutation_equals_counting():
    start = time.monotonic()
    failures = []
    # Kronecker preprojective family
    k2 = kronecker_quiver(2)
    seed = seed_from_quiver(k2)
    found = {}
    for k in (2, 1, 2, 1):
        seed = mutate(seed, k)
        for f in seed.f:
            found[max(f.terms, key=sum)] = f
    for dims in ((1, 2), (2, 3), (3, 4)):
        if found[dims] != f_polynomial(RepRecipe(k2, dims, seed=0)):
            failures.append(f"Kronecker {dims}")
    # three orientations of A3, random mutation walks
    orientations = (((0, 1), (1, 2)), ((0, 1), (2, 1)), ((1, 0), (1, 2)))
    rng = random.Random(20)
    for arrows in orientations:
        quiver = Quiver(("1", "2", "3"), arrows)
        checked = set()
        walk = seed_from_quiver(quiver)
        for _ in range(20):
            walk = mutate(walk, rng.randrange(1, 4))
            for f in walk.f:
                top = max(f.terms, key=sum)
                if sum(top) == 0 or max(top) > 3 or top in checked:
                    continue
                if f != f_polynomial(RepRecipe(quiver, top, seed=0)):
                    failures.append(f"A3 {arrows} dims {top}")
                checked.add(top)
        if len(checked) < 3:
            failures.append(f"A3 {arrows}: only {len(checked)} dims checked")
    elapsed = time.monotonic() - start
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _report(5, "mutation F-polynomials equal point-counting F-polynomials",
            failures)


def test_criterion_6_property_suites():
    from tests import test_properties as props
    failures = []
    start = time.monotonic()
    for fn in (props.test_f_polynomial_multiplicative_on_generic_direct_sums,
               props.test_tropical_duality_identity,
               props.test_hom_minus_e_is_weight_pairing,
               props.test_torsion_split_invariants,
               props.test_polytope_vertices_are_unique_points_with_no_forward_homs,
               props.test_mutation_is_an_involution):
        try:
            fn()
        except AssertionError as exc:
            failures.append(f"{fn.__name__}: {exc}")
    elapsed = time.monotonic() - start
    if elapsed >= 600.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10min")
    _report(6, "six randomized property suites, 200+ trials each", failures)


def _sample_rigid_instances(count, rng):
    out = []
    while len(out) < count:
        n = rng.randrange(2, 5)
        arrows = []
        for s, t in itertools.combinations(range(n), 2):
            for _ in range(rng.randrange(3)):
                arrows.append((s, t))
        if not arrows:
            continue
        quiver = Quiver(tuple(str(i + 1) for i in range(n)), tuple(arrows))
        alpha = tuple(rng.randrange(4) for _ in range(n))
        if not any(alpha) or sum(alpha) > 6:
            continue
        sample = random_representation(quiver, alpha, 101, rng)
        if ext_dim_hereditary(sample, sample) != 0:
            continue
        out.append((quiver, alpha))
    return out


RIGID_INSTANCES = _sample_rigid_instances(50, random.Random(21))


def test_criterion_7_vertex_equivalence_scan():
    failures = []
    for quiver, alpha in RIGID_INSTANCES:
        subdims = generic_sub_dims(quiver, alpha)
        vertices = set(convex_hull(subdims).vertices)
        perp = {g for g in subdims
                if generic_hom_ext(quiver, g, vec_sub(alpha, g)) == (0, 0)}
        if vertices != perp:
            failures.append(f"{quiver.arrows} {alpha}: "
                            f"{sorted(vertices ^ perp)}")
    # negative control: perpendicularity without rigidity
    if generic_hom_ext(K3, (1, 2), (1, 1)) != (0, 0):
        failures.append("control: (1,2) not perpendicular to (1,1)")
    hull = convex_hull(generic_sub_dims(K3, (2, 3)))
    if (1, 2) in hull.vertices or hull.vertices != ((0, 0), (0, 3), (2, 3)):
        failures.append(f"control vertices {hull.vertices}")
    _report(7, "vertices = perpendicular splittings on 50 rigid instances "
               "+ non-rigid control", failures)


def test_criterion_8_saturation():
    failures = []
    for quiver, alpha in RIGID_INSTANCES:
        out = verify_saturation(RepRecipe(quiver, alpha, seed=0))
        if not out["pass"]:
            failures.append(f"{quiver.arrows} {alpha}: {out}")
    # The control is not rigid, so its support is not counted.
    bad = verify_saturation(RepRecipe(K3, (3, 4), seed=0))
    if (bad["pass"] or bad["sublattice_witnesses"] != [[2, 3]]
            or bad["support_witnesses"] is not None):
        failures.append(f"control: {bad}")
    _report(8, "saturation on rigid instances; (3,4) over 3-Kronecker "
               "fails with witness (2,3), its support not counted", failures)


def test_criterion_9_unique_subrep_without_vertex():
    failures = []
    module = RepRecipe(kronecker_quiver(3), (2, 2),
                       int_matrices=(((1, 0), (0, 0)),
                                     ((0, 0), (0, 1)),
                                     ((0, 1), (0, 0))))
    for p in (2, 3, 5):
        rep = module.at_prime(p)
        if subrep_counts(rep).get((1, 1), 0) != 1:
            failures.append(f"(1,1) count at p={p}")
        hull = convex_hull(subrep_dim_vectors(rep))
        if hull.vertices != ((0, 0), (0, 2), (2, 2)):
            failures.append(f"vertices at p={p}: {hull.vertices}")
        if (1, 1) in hull.vertices:
            failures.append("(1,1) unexpectedly a vertex")
    _report(9, "extension module: unique (1,1) subrepresentation that is "
               "not a polytope vertex", failures)
