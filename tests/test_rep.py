import json
import random
import sys
import traceback
from collections import Counter

import pytest

from fpoly import cli, grassmannian, kernels, rep as rep_module
from fpoly.errors import GenericityError, InvalidSubrepresentation
from fpoly.quiver import (Quiver, cycle_quiver, euler_form, is_prime,
                          kronecker_quiver, unit_vector, vec_add)
from fpoly.rep import (RepRecipe, Representation, direct_sum, dual,
                       ext_dim_hereditary, generic_hom_ext, hom_dim,
                       make_subrep, quotient, random_representation,
                       restrict_to_sub)

A3 = Quiver(("1", "2", "3"), ((0, 1), (1, 2)))


def test_simple_homs():
    p = 5
    # A3 has no loop, so every arrow matrix at a unit vector is empty.
    rng = random.Random(0)
    s = [random_representation(A3, unit_vector(3, i), p, rng) for i in range(3)]
    for i in range(3):
        for j in range(3):
            assert hom_dim(s[i], s[j]) == (1 if i == j else 0)
    # ext between simples counts arrows
    assert ext_dim_hereditary(s[0], s[1]) == 1
    assert ext_dim_hereditary(s[1], s[0]) == 0
    assert ext_dim_hereditary(s[0], s[2]) == 0


def test_restrict_quotient_dims_and_additivity():
    rng = random.Random(1)
    p = 3
    m = random_representation(A3, (2, 3, 2), p, rng)
    from fpoly.grassmannian import enumerate_subreps
    for sub in enumerate_subreps(m, (1, 2, 1)):
        l = restrict_to_sub(m, sub)
        q = quotient(m, sub)
        assert l.dims == (1, 2, 1)
        assert q.dims == (1, 1, 1)
        break


def test_invalid_subrep_rejected():
    p = 2
    m = Representation(kronecker_quiver(1), p, (1, 1), (((1,),),))
    with pytest.raises(InvalidSubrepresentation):
        make_subrep(m, (((1,),), ()))   # source line without its image


def test_direct_sum_hom_additive():
    rng = random.Random(2)
    p = 5
    m = random_representation(A3, (1, 1, 0), p, rng)
    n = random_representation(A3, (0, 1, 1), p, rng)
    d = direct_sum(m, n)
    assert d.dims == (1, 2, 1)
    assert hom_dim(d, d) == (hom_dim(m, m) + hom_dim(m, n)
                             + hom_dim(n, m) + hom_dim(n, n))


def test_dual_is_a_contravariant_involution():
    # DDM = M, and D reverses Hom: hom(M, N) = hom(DN, DM).  Zero
    # dimensions give the empty and the column-free matrices.
    rng = random.Random(4)
    q231 = Quiver(("1", "2", "3"), ((0, 1), (0, 1), (1, 2)))
    for _ in range(20):
        m, n = (random_representation(q231, tuple(rng.randrange(3) for _ in range(3)),
                                      3, rng) for _ in range(2))
        dm = dual(m)
        assert dm.quiver == q231.opposite() and dm.dims == m.dims
        assert dual(dm) == m
        assert hom_dim(m, n) == hom_dim(dual(n), dm)


def test_each_arrow_is_transposed_once_per_representation(monkeypatch, tmp_path,
                                                         capsys):
    # The walks, restrictions, quotients, stability tests and duals of one
    # representation all read the transposes it made on first use.
    transposed = []

    def spy(mat, ncols, real=kernels.transpose):
        frame = sys._getframe(1)
        while frame is not None and not isinstance(frame.f_locals.get("self"),
                                                   Representation):
            frame = frame.f_back
        transposed.append(frame and frame.f_locals["self"])
        return real(mat, ncols)

    monkeypatch.setattr(kernels, "transpose", spy)
    rep_module._generic_draw.cache_clear()
    grassmannian.subrep_counts.cache_clear()
    path = tmp_path / "k2.json"
    path.write_text(json.dumps(kronecker_quiver(2).to_json()))
    assert cli.main(["verify", "--what", "facets", "--strict", "--quiver",
                     str(path), "--dims", "2,3", "--seed", "5"]) == 0
    capsys.readouterr()
    per_rep = Counter(map(id, transposed))
    assert None not in transposed and len(per_rep) > 1
    assert set(per_rep.values()) == {2}   # the two arrows of K2


def test_hereditary_euler_identity():
    # hom - ext = <dim M, dim N> for random acyclic representations
    rng = random.Random(3)
    p = 101
    for _ in range(20):
        a = tuple(rng.randrange(3) for _ in range(3))
        b = tuple(rng.randrange(3) for _ in range(3))
        m = random_representation(A3, a, p, rng)
        n = random_representation(A3, b, p, rng)
        assert hom_dim(m, n) - ext_dim_hereditary(m, n) == euler_form(A3, a, b)


def test_recipe_reduction_and_roundtrip():
    mats = (((1, 0), (0, 1)), ((0, 0), (0, 1)))
    r = RepRecipe(kronecker_quiver(2), (2, 2), int_matrices=mats)
    assert r.at_prime(3).matrices == mats
    r2 = RepRecipe.from_json(r.to_json())
    assert r2.at_prime(5) == r.at_prime(5)
    seeded = RepRecipe(kronecker_quiver(2), (1, 2), seed=7)
    assert RepRecipe.from_json(seeded.to_json()).at_prime(3) == seeded.at_prime(3)


def test_seeded_recipe_deterministic_and_generic():
    r = RepRecipe(kronecker_quiver(2), (2, 3), seed=0)
    assert r.at_prime(5) == r.at_prime(5)
    m = r.at_prime(101)
    # (2,3) is a rigid dimension vector: End = <a,a> = 1, Ext = 0
    assert hom_dim(m, m) == 1
    assert ext_dim_hereditary(m, m) == 0


def test_seeded_recipe_out_of_attempts(monkeypatch):
    monkeypatch.setattr(rep_module, "DRAW_ATTEMPTS", 0)
    rep_module._generic_draw.cache_clear()
    with pytest.raises(GenericityError):
        RepRecipe(kronecker_quiver(2), (2, 3), seed=0).at_prime(5)


def test_generic_end_dim_is_shared_across_seeds(monkeypatch):
    end_dim = rep_module._generic_end_dim
    end_dim.cache_clear()
    rep_module._generic_draw.cache_clear()
    k2 = kronecker_quiver(2)
    draws = [RepRecipe(k2, (2, 3), seed=s).at_prime(5) for s in (0, 1)]
    assert end_dim.cache_info()[:2] == (1, 1)   # hits, misses
    assert draws[0] != draws[1]
    assert all(hom_dim(m, m) == end_dim(k2, (2, 3)) == 1 for m in draws)

    # No End lies below max(<a, a>, 1): the rigid (2, 3) stops at its first
    # draw, while the isotropic (2, 2) (End 2, <a, a> = 0) takes all 18.
    made = []
    real_draw = rep_module.random_representation

    def spy_draw(*args):
        made.append(args[1])
        return real_draw(*args)

    monkeypatch.setattr(rep_module, "random_representation", spy_draw)
    for dims, expected in (((2, 3), 1), ((2, 2), 18)):
        end_dim.cache_clear()
        del made[:]
        end_dim(k2, dims)
        assert made == [dims] * expected


def test_generic_hom_ext_known_values():
    k2 = kronecker_quiver(2)
    assert generic_hom_ext(k2, (1, 2), (1, 2)) == (1, 0)     # rigid root
    assert generic_hom_ext(k2, (1, 0), (0, 1)) == (0, 2)     # ext = 2 arrows
    assert generic_hom_ext(k2, (0, 1), (1, 0)) == (0, 0)
    k3 = kronecker_quiver(3)
    # <(1,1),(1,1)> = -1 and generic hom vanishes
    assert generic_hom_ext(k3, (1, 1), (1, 1)) == (0, 1)
    # <a, b> = 0 but generic hom 1: ext(a, b) = -<(0,1,0), b> = 1
    q231 = Quiver(("1", "2", "3"), ((0, 1), (0, 1), (1, 2)))
    assert generic_hom_ext(q231, (1, 1, 0), (1, 0, 1)) == (1, 1)


def test_generic_dimensions_draw_nothing(monkeypatch, tmp_path, capsys):
    """Generic hom, ext and sub-dimension vectors are read off the Euler
    form, and so are the hulls of ``polytope`` and ``verify --what cones``
    on a seeded acyclic recipe; at the large primes only the generic End
    is sampled."""
    made = []
    real_draw = rep_module.random_representation

    def spy_draw(quiver, dims, p, rng):
        callers = {frame.f_code.co_name for frame, _ in traceback.walk_stack(None)}
        made.append((p, "_generic_end_dim" in callers))
        return real_draw(quiver, dims, p, rng)

    monkeypatch.setattr(rep_module, "random_representation", spy_draw)
    q231 = Quiver(("1", "2", "3"), ((0, 1), (0, 1), (1, 2)))
    for quiver, a, b in ((kronecker_quiver(2), (1, 2), (2, 3)),
                         (kronecker_quiver(3), (3, 4), (1, 1)),
                         (q231, (1, 1, 0), (1, 0, 1)), (A3, (2, 1, 2), (1, 2, 1))):
        generic_hom_ext(quiver, a, b)
        rep_module.generic_sub_dims(quiver, vec_add(a, b))
    assert made == []

    path = tmp_path / "q231.json"
    path.write_text(json.dumps(q231.to_json()))
    rep_module._generic_end_dim.cache_clear()
    rep_module._generic_draw.cache_clear()
    grassmannian.subrep_counts.cache_clear()
    for argv in (["polytope"], ["verify", "--what", "cones", "--strict"]):
        assert cli.main(argv + ["--quiver", str(path), "--dims", "2,3,2"]) == 0
    capsys.readouterr()
    assert made == [] and grassmannian.subrep_counts.cache_info().misses == 0
    assert cli.main(["verify", "--what", "saturation", "--strict", "--quiver",
                     str(path), "--dims", "1,2,1", "--seed", "7"]) == 0
    assert json.loads(capsys.readouterr().out)["pass"] is True
    large = [by_end for p, by_end in made if p in rep_module.DEFAULT_GENERIC_PRIMES]
    assert large and all(large)


@pytest.mark.parametrize("p, dims", [(2, (-1,)), (4, (1,)), (1, (1,)), (0, (0,))])
def test_representation_refuses_negative_dims_and_non_prime_fields(p, dims):
    with pytest.raises(ValueError):
        Representation(Quiver(("1",), ()), p, dims, ())


def test_recipe_refuses_a_non_prime_before_counting():
    # Z/4 is no field: its rref would find no kernel line, where every
    # prime finds exactly one.  at_prime(4) raises, so no table is counted.
    recipe = RepRecipe(Quiver(("1", "2"), ((0, 1),)), (2, 1), (((1, 2),),))
    for p in (2, 3, 5):
        assert grassmannian.subrep_counts(recipe.at_prime(p))[(1, 0)] == 1
    for r in (recipe, RepRecipe(kronecker_quiver(2), (1, 1), seed=0)):
        with pytest.raises(ValueError, match="4 is not a prime"):
            r.at_prime(4)


def test_is_prime_agrees_with_a_sieve():
    sieve = [False, False] + [True] * 198
    for n in range(2, 200):
        if sieve[n]:
            sieve[2 * n::n] = [False] * len(sieve[2 * n::n])
    assert [n for n in range(-5, 200) if is_prime(n)] == [
        n for n in range(200) if sieve[n]]


def test_generic_dimensions_reject_bad_input():
    k2 = kronecker_quiver(2)
    rep_module._generic_rules.cache_clear()
    for call in (lambda: generic_hom_ext(k2, (1, 2, 0), (1, 1)),
                 lambda: generic_hom_ext(k2, (1, 1), (1,)),
                 lambda: generic_hom_ext(k2, (-1, 2), (1, 1)),
                 lambda: generic_hom_ext(k2, (1, 1), (0, -1)),
                 lambda: rep_module.generic_sub_dims(k2, (2,)),
                 lambda: rep_module.generic_sub_dims(k2, (2, -1)),
                 lambda: generic_hom_ext(cycle_quiver(2), (1, 0), (0, 1)),
                 lambda: rep_module.generic_sub_dims(cycle_quiver(3), (1, 1, 1))):
        with pytest.raises(ValueError):
            call()
    assert rep_module._generic_rules.cache_info().currsize == 0
