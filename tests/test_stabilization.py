import json

import pytest

from fpoly import grassmannian, polynomial, rep as rep_module, stabilization
from fpoly.cli import main
from fpoly.errors import InvariantViolation
from fpoly.grassmannian import (maximizer_dims, subrep_counts,
                                subrep_dim_vectors, tropical_f)
from fpoly.polynomial import MultiPoly, f_polynomial, restrict_to_face
from fpoly.polytope import convex_hull
from fpoly.quiver import Quiver, kronecker_quiver, unit_vector, vec_dot
from fpoly.rep import (RepRecipe, generic_hom_ext, generic_sub_dims, hom_dim,
                       quotient, restrict_to_sub)
from fpoly.stabilization import (graded_counts, graded_semistable_f, is_semistable,
                                 stable_factors, torsion_split, verify_cones,
                                 verify_facet_restriction, verify_facets,
                                 verify_saturation, verify_vertex_theorems)


def is_stable(m_rep, delta):
    """King stability: delta(dim M) = 0 and delta(dim L) < 0 for every
    proper nonzero subrepresentation L.  The reference that the stable
    filtration's first points are checked against."""
    if m_rep.total_dim == 0 or vec_dot(delta, m_rep.dims) != 0:
        return False
    return all(vec_dot(delta, g) < 0 for g in subrep_dim_vectors(m_rep)
               if any(g) and g != m_rep.dims)


A3 = Quiver(("1", "2", "3"), ((0, 1), (1, 2)))
Q231 = Quiver(("1", "2", "3"), ((0, 1), (0, 1), (1, 2)))

# direct sum of the two non-isomorphic (1,1)-dimensional bricks
K22_BRICKS = RepRecipe(kronecker_quiver(2), (2, 2),
                       int_matrices=(((1, 0), (0, 1)), ((0, 0), (0, 1))))

# non-split self-extension of two general (1,1) modules over the 3-arrow
# Kronecker quiver; it has a unique (1,1) subrepresentation at every prime
K33_EXTENSION = RepRecipe(kronecker_quiver(3), (2, 2),
                          int_matrices=(((1, 0), (0, 0)),
                                        ((0, 0), (0, 1)),
                                        ((0, 1), (0, 0))))


def test_torsion_split_whole_module_is_torsion():
    # weight positive on the whole dimension vector: t(M) = M
    for nar in (2, 3):
        r = RepRecipe(kronecker_quiver(nar), (2, 1), seed=0)
        m = r.at_prime(3)
        split = torsion_split(m, (1, -1))
        assert vec_dot((1, -1), split.l_min.dims) == 1
        assert restrict_to_sub(m, split.l_min).dims == (2, 1)
        assert quotient(m, split.l_min).dims == (0, 0)
        assert split.l_min.dims == split.l_max.dims == (2, 1)


def test_torsion_split_brick_sum():
    split = torsion_split(K22_BRICKS.at_prime(3), (1, -1))
    assert vec_dot((1, -1), split.l_min.dims) == 0
    assert split.l_min.dims == (0, 0)
    assert split.l_max.dims == (2, 2)
    assert split.perp.dims == (2, 2)


def test_stability_of_bricks_and_their_sum():
    m = K22_BRICKS.at_prime(5)
    delta = (1, -1)
    assert is_semistable(m, delta) and not is_stable(m, delta)
    brick = RepRecipe(kronecker_quiver(2), (1, 1),
                      int_matrices=(((1,),), ((0,),))).at_prime(5)
    assert is_stable(brick, delta)
    assert not is_semistable(m, (1, 0))


def test_stable_factors_two_bricks():
    m = K22_BRICKS.at_prime(3)
    data = stable_factors(m, (1, -1))
    assert tuple(s.dims for s in data.stables) == ((1, 1), (1, 1))
    assert data.multiplicities == (1, 1)
    a, b = data.stables
    assert hom_dim(a, b) == 0 and hom_dim(b, a) == 0


def test_stable_factors_of_a_rep_that_is_not_semistable_is_a_value_error():
    with pytest.raises(ValueError, match="not semistable"):
        stable_factors(K22_BRICKS.at_prime(3), (1, 0))


def test_a_factor_outside_the_given_classes_is_an_invariant_violation():
    # The two (1,1) bricks have dependent dimension vectors, so each point
    # is graded by its own factors; with one class given, the other brick
    # matches none.
    delta = (1, -1)
    perp = torsion_split(K22_BRICKS.at_prime(3), delta).perp
    one_class = stable_factors(perp, delta).stables[:1]
    with pytest.raises(InvariantViolation,
                       match="^stable factor not among the expected classes$"):
        graded_counts(perp, delta, one_class, None)


def test_stable_filtration_builds_one_count_table_per_step():
    """A work-count guard: each step of the stable filtration reads the
    count table of the representation it filters and of no candidate."""
    m = K22_BRICKS.at_prime(3)
    subrep_counts.cache_clear()
    data = stable_factors(m, (1, -1))
    assert data.multiplicities == (1, 1)
    # M, then M modulo its first stable factor.
    assert subrep_counts.cache_info().misses == 2



def test_a_stable_remainder_is_the_last_class_as_it_stands(monkeypatch):
    """A remainder whose least delta-null nonzero sub-dimension vector is
    its whole dimension vector is stable (King 1994), so the filtration
    ends with it: none of its points is enumerated and nothing is divided
    out."""
    w = RepRecipe(kronecker_quiver(2), (1, 1),
                  int_matrices=(((1,),), ((0,),))).at_prime(3)
    calls = []

    def spy(name, real):
        def call(*args):
            calls.append(name)
            return real(*args)
        return call

    for name in ("enumerate_subreps", "quotient"):
        monkeypatch.setattr(stabilization, name, spy(name, getattr(stabilization, name)))
    data = stable_factors(w, (1, -1))
    assert calls == []
    assert len(data.stables) == 1 and data.stables[0] is w
    assert data.multiplicities == (1,)

def test_graded_semistable_brick_sum():
    data = graded_semistable_f(K22_BRICKS, (1, -1))
    z1 = MultiPoly.monomial(2, (1, 0))
    z2 = MultiPoly.monomial(2, (0, 1))
    assert data.poly == (z1 + 1) * (z2 + 1)
    assert data.dim_t == (0, 0)
    assert data.dim_t_check == (2, 2)
    assert data.stable_dims == ((1, 1), (1, 1))


def test_facet_restriction_brick_sum():
    out = verify_facet_restriction(K22_BRICKS, (1, -1))
    assert out["pass"]


# R0^2 + R1 for two non-isomorphic (1,1) bricks R0 and R1: the stable
# filtration at (1,-1) meets R0 first at p = 2 and R1 first at p = 3 and 5.
K33_TWO_BRICKS = RepRecipe(kronecker_quiver(2), (3, 3),
                           int_matrices=(((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                                         ((2, 0, -1), (0, 0, 0), (2, 0, -1))))


def test_stable_classes_of_one_dimension_vector_keep_their_grade_across_primes():
    for p in (2, 3, 5):
        data = stable_factors(K33_TWO_BRICKS.at_prime(p), (1, -1))
        assert data.multiplicities == (1, 2), p
    z1, z2 = MultiPoly.monomial(2, (1, 0)), MultiPoly.monomial(2, (0, 1))
    assert graded_semistable_f(K33_TWO_BRICKS, (1, -1)).poly == (z1 + 1) * (z2 + 1) ** 2
    out = verify_facets(K33_TWO_BRICKS)
    assert out["pass"] and len(out["facets"]) == 3


# A K2 (2,2) brick B whose second arrow has the characteristic polynomial
# x^2 - x - 1: irreducible mod 2 and 3, so End(B) is F_4 mod 2 and
# hom(B, B) = 2, and with the double root 3 mod 5, so B mod 5 has a (1,1)
# subrepresentation.  BB_F4 is B + B.
B_F4 = RepRecipe(kronecker_quiver(2), (2, 2), int_matrices=(((1, 0), (0, 1)),
                                                             ((0, 1), (1, 1))))
BB_F4 = RepRecipe(kronecker_quiver(2), (4, 4), int_matrices=(
    ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)),
    ((0, 1, 0, 0), (1, 1, 0, 0), (0, 0, 0, 1), (0, 0, 1, 1))))


def test_a_stable_whose_endomorphisms_are_a_larger_field_is_one_class():
    # Two stables of one weight are isomorphic exactly when Hom != 0, so
    # B + B mod 2 has the one class B with multiplicity 2, though
    # hom(B, B) = 2.
    b = B_F4.at_prime(2)
    assert is_stable(b, (1, -1)) and hom_dim(b, b) == 2
    data = stable_factors(BB_F4.at_prime(2), (1, -1))
    assert tuple(s.dims for s in data.stables) == ((2, 2),)
    assert data.multiplicities == (2,)
    assert hom_dim(data.stables[0], b) != 0


@pytest.mark.parametrize("delta", [(0, 1, 5), (0,)])
def test_a_weight_of_the_wrong_length_is_a_value_error(delta):
    recipe = RepRecipe(kronecker_quiver(2), (2, 3), seed=0)
    m = recipe.at_prime(2)
    calls = [lambda: verify_facet_restriction(recipe, delta),
             lambda: restrict_to_face(MultiPoly(2), delta),
             lambda: maximizer_dims(m, delta),
             lambda: tropical_f(m, delta),
             lambda: is_semistable(m, delta)]
    for call in calls:
        with pytest.raises(ValueError, match="of length"):
            call()


def test_facet_restrictions_of_a_real_schur_root():
    # the (2,4,1)-dimensional rigid representation of 1 => 2 -> 3
    r = RepRecipe(Q231, (2, 4, 1), seed=0)
    fpoly = f_polynomial(r)
    y1, y2, y3 = (MultiPoly.monomial(3, unit_vector(3, i)) for i in range(3))
    one = MultiPoly.one(3)
    expected = {
        (0, 0, 1): y3 * (one + 2 * y2 + y2 ** 2 + y1 * y2 ** 2) ** 2,
        (0, 1, -1): y2 ** 3 * (one + y2 * y3 + 2 * y1 * y2 * y3
                               + y1 ** 2 * y2 * y3),
    }
    for delta, printed in expected.items():
        out = verify_facet_restriction(r, delta, fpoly=fpoly)
        assert out["pass"], delta
        assert MultiPoly.from_json(out["restriction"]) == printed


def test_weight_cones_recover_the_facet_normals():
    r = RepRecipe(Q231, (2, 4, 1), seed=0)
    report = verify_cones(r)
    assert report["pass"] and report["witnesses"] == []
    facets = [(tuple(f["normal"]), f["offset"]) for f in report["polytope"]["facets"]]
    # Each facet lies in the hom-vanishing cone (through 0) or the
    # e-vanishing cone (through alpha).
    hom_cone = {n for n, h in facets if h == 0}
    e_cone = {n for n, h in facets if h == vec_dot(n, r.dims)}
    assert hom_cone | e_cone == {(2, -1, 0), (1, 0, -2), (-1, 0, 0),
                                 (0, 0, 1), (0, 1, -1)}


def test_vertex_theorems_rigid_kronecker():
    r = RepRecipe(kronecker_quiver(2), (2, 3), seed=0)
    out = verify_vertex_theorems(r)
    assert out["pass"] and out["rigid"]
    assert out["vertices"] == [[0, 0], [0, 3], [2, 3]]


def _bump_count(module, prime, gamma):
    """``module.subrep_counts`` with a second point of dimension gamma mod prime."""
    real = module.subrep_counts
    return lambda rep: {**real(rep), gamma: 2} if rep.p == prime else real(rep)


def _hom_at(gamma):
    real = stabilization.hom_dim
    return lambda l_rep, q_rep: 1 if l_rep.dims == gamma else real(l_rep, q_rep)


def _perp_at(gamma):
    real = stabilization.generic_hom_ext
    return lambda quiver, a, b: (0, 0) if a == gamma else real(quiver, a, b)


# One broken input per witness kind of the vertex check on K2 (2,3), whose
# vertices are (0,0), (0,3) and (2,3): the patched name, its stand-in and
# the one witness that it leaves.  A count table broken at its source,
# grassmannian.subrep_counts, reaches the check through stabilization's
# binding of it.
VERTEX_WITNESSES = [
    (stabilization, "subrep_counts", lambda: _bump_count(stabilization, 3, (0, 3)),
     {"gamma": [0, 3], "prime": 3, "fail": "vertex count != 1"}),
    (grassmannian, "subrep_counts", lambda: _bump_count(grassmannian, 2, (2, 3)),
     {"gamma": [2, 3], "prime": 2, "fail": "vertex count != 1"}),
    (stabilization, "hom_dim", lambda: _hom_at((0, 3)),
     {"gamma": [0, 3], "fail": "Hom(L, M/L) != 0"}),
    (stabilization, "generic_hom_ext", lambda: _perp_at((0, 1)),
     {"gamma": [0, 1], "hom": 0, "ext": 0, "fail": "perpendicularity != vertex"}),
]


@pytest.mark.parametrize("module, name, make, witness", VERTEX_WITNESSES)
def test_vertex_check_reports_each_witness(capsys, monkeypatch, tmp_path,
                                           module, name, make, witness):
    real, stand_in = getattr(module, name), make()
    monkeypatch.setattr(module, name, stand_in)
    if getattr(stabilization, name) is real:
        monkeypatch.setattr(stabilization, name, stand_in)
    out = verify_vertex_theorems(RepRecipe(kronecker_quiver(2), (2, 3), seed=0))
    assert out["pass"] is False and out["witnesses"] == [witness]
    assert out["rigid"] and out["vertices"] == [[0, 0], [0, 3], [2, 3]]
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(kronecker_quiver(2).to_json()))
    code = main(["verify", "--what", "vertices", "--strict",
                 "--quiver", str(path), "--dims", "2,3"])
    report = json.loads(capsys.readouterr().out)
    assert code == 1 and report["pass"] is False
    assert report["report"]["witnesses"] == [witness]


@pytest.mark.parametrize("prime, hom_checked", [(2, False), (3, True)])
def test_vertex_count_at_the_first_prime_gates_the_hom_check(monkeypatch, prime,
                                                             hom_checked):
    # A count other than 1 at the first prime leaves no point L to check;
    # at a later prime the first prime's L is still checked.
    monkeypatch.setattr(stabilization, "subrep_counts",
                        _bump_count(stabilization, prime, (2, 3)))
    monkeypatch.setattr(stabilization, "hom_dim", _hom_at((2, 3)))
    out = verify_vertex_theorems(RepRecipe(kronecker_quiver(2), (2, 3), seed=0))
    hom = [{"gamma": [2, 3], "fail": "Hom(L, M/L) != 0"}] if hom_checked else []
    assert out["witnesses"] == [{"gamma": [2, 3], "prime": prime,
                                 "fail": "vertex count != 1"}] + hom


def test_vertex_count_one_needs_genericity():
    # the extension module has a unique (1,1) subrepresentation even
    # though (1,1) is not a vertex of its polytope
    out = verify_vertex_theorems(K33_EXTENSION)
    assert out["pass"] and not out["rigid"]
    assert out["vertices"] == [[0, 0], [0, 2], [2, 2]]
    for p in (2, 3, 5):
        assert subrep_counts(K33_EXTENSION.at_prime(p)).get((1, 1), 0) == 1


def test_perpendicularity_needs_rigidity():
    # general (2,3) over the 3-arrow Kronecker quiver: (1,2) is
    # perpendicular to the complement but is not a vertex
    r = RepRecipe(kronecker_quiver(3), (2, 3), seed=0)
    hull = convex_hull(generic_sub_dims(kronecker_quiver(3), (2, 3)))
    assert hull.vertices == ((0, 0), (0, 3), (2, 3))
    assert generic_hom_ext(kronecker_quiver(3), (1, 2), (1, 1)) == (0, 0)
    assert (1, 2) not in hull.vertices


def test_saturation_rigid_passes_nonrigid_fails():
    ok = verify_saturation(RepRecipe(kronecker_quiver(2), (2, 3), seed=0))
    assert ok["pass"] and not ok["sublattice_witnesses"]
    bad = verify_saturation(RepRecipe(kronecker_quiver(3), (3, 4), seed=0))
    assert not bad["pass"]
    assert bad["sublattice_witnesses"] == [[2, 3]]


@pytest.mark.parametrize("quiver, alpha, witnesses", [
    (kronecker_quiver(2), (2, 2), []),
    (kronecker_quiver(3), (2, 2), [[1, 1]]),
    (kronecker_quiver(2), (3, 3), []),
    (kronecker_quiver(3), (3, 4), [[2, 3]]),
])
def test_seeded_non_rigid_saturation_draws_and_counts_nothing(monkeypatch, quiver,
                                                              alpha, witnesses):
    # A seeded recipe that is not rigid is a different module at each
    # prime, so its support half is skipped before any draw or count: the
    # End samples at the large primes are its only draws, and its report
    # is the same at every seed.
    draws, counted = [], []

    def spy_draw(quiver, dims, p, rng, real=rep_module.random_representation):
        draws.append(p)
        return real(quiver, dims, p, rng)

    monkeypatch.setattr(rep_module, "random_representation", spy_draw)
    monkeypatch.setattr(rep_module, "_generic_draw", lambda *args: counted.append(args))
    for module in (grassmannian, polynomial, stabilization):
        monkeypatch.setattr(module, "subrep_counts", lambda *args: counted.append(args))
    rep_module._generic_end_dim.cache_clear()
    reports = [verify_saturation(RepRecipe(quiver, alpha, seed=s)) for s in range(20)]
    assert all(report == reports[0] for report in reports)
    assert reports[0]["support_witnesses"] is None
    assert "int_matrices" in reports[0]["support_skipped"]
    assert reports[0]["sublattice_witnesses"] == witnesses
    assert reports[0]["pass"] == (not witnesses)
    assert not counted
    assert draws and min(draws) >= min(rep_module.DEFAULT_GENERIC_PRIMES)


def test_saturation_of_a_support_apart_from_the_sub_dimensions(monkeypatch):
    # A support that is not the sub-dimension set gets its own hull: here
    # the segment from 0 to (2,2), whose midpoint carries no coefficient.
    hulls = []

    def spy(points, real=stabilization.convex_hull):
        hulls.append(points)
        return real(points)

    monkeypatch.setattr(stabilization, "convex_hull", spy)
    monkeypatch.setattr(stabilization, "f_polynomial",
                        lambda recipe: MultiPoly(2, {(0, 0): 1, (2, 2): 1}))
    out = verify_saturation(RepRecipe(kronecker_quiver(2), (2, 3), seed=0))
    assert out["support_witnesses"] == [[1, 1]] and not out["sublattice_witnesses"]
    assert out["pass"] is False and len(hulls) == 2


def test_generic_sub_dims_excludes_obstructed_dimension():
    dims = generic_sub_dims(kronecker_quiver(3), (2, 2))
    assert (1, 1) not in dims
    for gamma in ((0, 0), (0, 1), (0, 2), (1, 2), (2, 2)):
        assert gamma in dims


def test_collapse_recovers_reduced_polynomials_of_the_4cycle():
    # Each set of class images is independent, so the monomial substitution
    # is injective and a reduced polynomial is the only one it maps onto
    # the restriction.
    from fpoly.cluster import b_matrix, find_by_delta, run_sequence
    cycle4 = Quiver(("1", "2", "3", "4"),
                    ((0, 3), (1, 0), (1, 2), (1, 3), (2, 0), (3, 2)))
    z1, z2, z3 = (MultiPoly.monomial(3, unit_vector(3, i)) for i in range(3))
    one = MultiPoly.one(3)

    # facet (0,1,0,-1) of the (3,4,1,2) variable; classes S1, S3, T24
    seed = run_sequence(b_matrix(cycle4), (3, 4, 1, 2))
    f = find_by_delta(seed, (-1, 1, 1, 0))
    from fpoly.polynomial import restrict_to_face
    restriction = restrict_to_face(f, (0, 1, 0, -1))
    reduced = (one + z2) * (one + 2 * z1 + z1 ** 2 + 2 * z1 * z2
                            + 2 * z1 ** 2 * z2 + z1 ** 2 * z2 ** 2
                            + z1 ** 2 * z3 * z2 ** 2)
    images = [(1, 0, 0, 0), (0, 0, 1, 0), (0, 1, 0, 1)]
    assert reduced.substitute_monomial(images, 4) == restriction

    # facet (-1,0,1,0) of the (2,3,4,1,2,3) variable; classes T13, S2, S4
    seed = run_sequence(b_matrix(cycle4), (2, 3, 4, 1, 2, 3))
    f = find_by_delta(seed, (1, -1, 1, 1), dual=True)
    restriction = restrict_to_face(f, (-1, 0, 1, 0))
    y3 = MultiPoly.monomial(4, (0, 0, 1, 0))
    reduced = ((one + z3 + z2 * z3) ** 2
               * (one + z1 + 2 * z1 * z2 + z1 * z2 ** 2))
    images = [(1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 0, 1)]
    assert y3 * reduced.substitute_monomial(images, 4) == restriction
