import random
from functools import reduce

import pytest

from fpoly import presentations
from fpoly.grassmannian import tropical_f
from fpoly.presentations import (cokernel, generic_cokernel, generic_hom_e,
                                 hom_e, injective_representation,
                                 nakayama_kernel, path_basis,
                                 projective_representation,
                                 random_presentation)
from fpoly.quiver import Quiver, kronecker_quiver, unit_vector, vec_dot
from fpoly.rep import (RepRecipe, Representation, direct_sum, dual,
                       ext_dim_hereditary, hom_dim, make_subrep, quotient,
                       random_representation, restrict_to_sub, stable_rng,
                       zero_representation)
from test_kernels import nullspace

A3 = Quiver(("1", "2", "3"), ((0, 1), (1, 2)))
Q231 = Quiver(("1", "2", "3"), ((0, 1), (0, 1), (1, 2)))


def test_path_counts():
    between = path_basis(Q231)
    assert len(between[0][1]) == 2
    assert len(between[0][2]) == 2
    assert between[1][1] == ((),)   # trivial path
    assert between[2][0] == ()


def test_projective_injective_dims():
    assert projective_representation(A3, 0, 3).dims == (1, 1, 1)
    assert projective_representation(A3, 1, 3).dims == (0, 1, 1)
    assert projective_representation(A3, 2, 3).dims == (0, 0, 1)
    assert injective_representation(A3, 0, 3).dims == (1, 0, 0)
    assert injective_representation(A3, 2, 3).dims == (1, 1, 1)
    assert projective_representation(Q231, 0, 3).dims == (1, 2, 2)
    assert injective_representation(Q231, 2, 3).dims == (2, 1, 1)


def test_projectives_have_no_self_extensions():
    for i in range(3):
        p = projective_representation(Q231, i, 5)
        assert ext_dim_hereditary(p, p) == 0
        assert hom_dim(p, p) == 1


def test_hom_e_identity():
    # hom - e = delta(dim N) for every presentation and representation
    rng = random.Random(0)
    p = 101
    for _ in range(40):
        delta = tuple(rng.randrange(-2, 3) for _ in range(3))
        d = random_presentation(A3, delta, p, rng)
        n = random_representation(A3, tuple(rng.randrange(3) for _ in range(3)), p, rng)
        h, e = hom_e(d, n)
        assert h - e == vec_dot(delta, n.dims)


def test_cokernel_of_unit_weight_is_projective():
    for i in range(3):
        d = random_presentation(A3, unit_vector(3, i), 101, stable_rng(0))
        c = cokernel(d)
        proj = projective_representation(A3, i, 101)
        assert c.dims == proj.dims
        assert hom_dim(c, proj) == 1 and hom_dim(proj, c) == 1


def test_generic_hom_e_unit_weights(monkeypatch):
    # hom(delta, M) = max(0, delta . dim M) for a unit weight, which is the
    # floor of every sample: the first presentation drawn is the last.
    calls = []
    real_hom_e = presentations.hom_e

    def spy_hom_e(pres, n_rep):
        calls.append(pres.delta)
        return real_hom_e(pres, n_rep)

    monkeypatch.setattr(presentations, "hom_e", spy_hom_e)
    r = RepRecipe(Q231, (2, 4, 1), seed=0)
    for i in range(3):
        neg = tuple(-x for x in unit_vector(3, i))
        for delta, expected in ((unit_vector(3, i), (r.dims[i], 0)),
                                (neg, (0, r.dims[i]))):
            del calls[:]
            assert generic_hom_e(Q231, delta, r) == expected
            assert calls == [delta]


def test_hom_e_along_a_path_through_a_zero_space():
    # N = (2, 0, 2) over 1=>2->3: every path from 1 to 3 passes the zero
    # space at 2, so d: P_3 -> P_1 induces the zero map N_1 -> N_3.
    n_rep = RepRecipe(Q231, (2, 0, 2), int_matrices=((), (), ((), ()))).at_prime(5)
    d = random_presentation(Q231, (1, 0, -1), 5, stable_rng(0))
    assert hom_e(d, n_rep) == (2, 2)


def test_tropical_equals_generic_hom():
    # f_M(delta) = hom(delta, M) and f-check_M(-delta) = e(delta, M)
    # for a general representation of an acyclic quiver, with f-check_M
    # counted as f of DM
    for quiver, dims in ((kronecker_quiver(2), (2, 3)), (Q231, (2, 4, 1))):
        r = RepRecipe(quiver, dims, seed=0)
        m = r.at_prime(3)
        rng = random.Random(1)
        for _ in range(15):
            delta = tuple(rng.randrange(-2, 3) for _ in range(quiver.n))
            h, e = generic_hom_e(quiver, delta, r)
            assert tropical_f(m, delta) == h
            assert tropical_f(dual(m), tuple(-x for x in delta)) == e


def test_nakayama_kernel_is_tau_by_ar_duality():
    # Ext^1(M, N) = Hom(N, tau M) for non-projective M over a hereditary
    # algebra; tau M is the Nakayama kernel of a rigid presentation of M
    rng = random.Random(2)
    p = 101
    for delta in ((1, -1, 0), (0, 1, -1), (1, 0, -1), (2, -1, 0)):
        d, m, rigid = generic_cokernel(A3, delta, p)
        if not rigid or min(m.dims) < 0 or sum(m.dims) == 0:
            continue
        tau = nakayama_kernel(d)
        for _ in range(6):
            n = random_representation(A3, tuple(rng.randrange(3) for _ in range(3)), p, rng)
            assert ext_dim_hereditary(m, n) == hom_dim(n, tau)


def test_nakayama_kernel_of_simple_top():
    # S1 on A3 has presentation P2 -> P1; tau(S1) must satisfy AR duality
    p = 101
    d = random_presentation(A3, (1, -1, 0), p, stable_rng(5))
    c = cokernel(d)
    assert c.dims == (1, 0, 0)
    tau = nakayama_kernel(d)
    assert tau.dims == (0, 1, 0)   # tau(S1) = S2 for 1 -> 2 -> 3


def test_generic_cokernel_rigidity_flags():
    # preprojective Kronecker weight: rigid; imaginary-root weight: not
    k2 = kronecker_quiver(2)
    _, coker, rigid = generic_cokernel(k2, (2, -1), 101)
    assert rigid and coker.dims == (2, 3)       # preprojective root
    k3 = kronecker_quiver(3)
    _, coker, rigid = generic_cokernel(k3, (1, -2), 101)
    assert coker.dims == (1, 1) and not rigid   # imaginary root, ext(M,M) = 1


def test_zero_negative_summand_rejected():
    p = 5
    bad = random_presentation(A3, (0, -1, 0), p, stable_rng(0))
    # the unique column is forced to zero coefficients only when no path
    # exists; build one explicitly: P1 -> 0 has a negative summand hit by
    # nothing
    with pytest.raises(ValueError):
        nakayama_kernel(bad)


def random_acyclic_quiver(rng):
    """2-4 vertices, arrows from lower to higher index, parallel ones too."""
    n = rng.randrange(2, 5)
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
    arrows = tuple(rng.choice(pairs) for _ in range(rng.randrange(1, n + 2)))
    return Quiver(tuple(str(v + 1) for v in range(n)), arrows)


def small_representation(quiver, p, rng):
    return random_representation(quiver, tuple(rng.randrange(3) for _ in range(quiver.n)),
                                 p, rng)


def test_cokernel_is_hom_exact():
    # Hom(-, N) is left exact, so Hom(Coker d, N) is the kernel of
    # Hom(P_plus, N) -> Hom(P_minus, N).
    rng = random.Random(7)
    for trial in range(200):
        quiver = random_acyclic_quiver(rng)
        p = (2, 3, 5, 101)[trial % 4]
        d = random_presentation(quiver, tuple(rng.randrange(-2, 3) for _ in range(quiver.n)),
                                p, rng)
        coker = cokernel(d)
        for _ in range(2):
            n_rep = small_representation(quiver, p, rng)
            assert hom_e(d, n_rep)[0] == hom_dim(coker, n_rep)


# The direct constructions that duality and the generated image replaced,
# kept as the reference of injective_representation, nakayama_kernel and
# cokernel.

def direct_cokernel(pres):
    """Coker d from the per-vertex matrices of d: the image at w is spanned
    by d of every path from a minus-summand's vertex to w, each coefficient
    path q composed with that path."""
    quiver, p = pres.quiver, pres.p
    between = path_basis(quiver)
    plus_s, minus_s = pres.plus_summands, pres.minus_summands
    target = reduce(direct_sum, [projective_representation(quiver, i, p) for i in plus_s],
                    zero_representation(quiver, p))
    image_rows = []
    for w in range(quiver.n):
        row_index = {key: r for r, key in enumerate(
            (u, path) for u, i in enumerate(plus_s) for path in between[i][w])}
        rows = []
        for v, j in enumerate(minus_s):
            for path in between[j][w]:
                col = [0] * len(row_index)
                for u in range(len(plus_s)):
                    for q, coef in pres.coeffs[u][v]:
                        if coef:
                            r = row_index[(u, q + path)]
                            col[r] = (col[r] + coef) % p
                rows.append(tuple(col))
        image_rows.append(rows)
    return quotient(target, make_subrep(target, image_rows))


def direct_injective(quiver, i, p):
    """I_i on the paths ending at i, each arrow stripping its first step."""
    between = path_basis(quiver)
    mats = []
    for a, (s, t) in enumerate(quiver.arrows):
        tgt = {path: r for r, path in enumerate(between[t][i])}
        mat = [[0] * len(between[s][i]) for _ in range(len(tgt))]
        for c, path in enumerate(between[s][i]):
            if path and path[0] == a:
                mat[tgt[path[1:]]][c] = 1
        mats.append(tuple(tuple(r) for r in mat))
    dims = tuple(len(between[w][i]) for w in range(quiver.n))
    return Representation(quiver, p, dims, tuple(mats))


def direct_nakayama_kernel(pres):
    """Kernel of nu(d): I(minus) -> I(plus), built vertex by vertex: nu
    strips each hom-path q off the end of a path into a minus-summand."""
    quiver, p = pres.quiver, pres.p
    between = path_basis(quiver)
    plus_s, minus_s = pres.plus_summands, pres.minus_summands
    for v in range(len(minus_s)):
        if all(coef == 0 for u in range(len(plus_s)) for _, coef in pres.coeffs[u][v]):
            raise ValueError("presentation has a negative summand P -> 0")
    source = reduce(direct_sum, [direct_injective(quiver, j, p) for j in minus_s],
                    zero_representation(quiver, p))
    kernel_rows = []
    for w in range(quiver.n):
        row_index = {(u, path): r for r, (u, path) in enumerate(
            (u, path) for u, i in enumerate(plus_s) for path in between[w][i])}
        mat = [[0] * source.dims[w] for _ in range(len(row_index))]
        c = 0
        for v, j in enumerate(minus_s):
            for path in between[w][j]:
                for u in range(len(plus_s)):
                    for q, coef in pres.coeffs[u][v]:
                        if coef and len(path) >= len(q) and path[len(path) - len(q):] == q:
                            rr = row_index[(u, path[:len(path) - len(q)])]
                            mat[rr][c] = (mat[rr][c] + coef) % p
                c += 1
        kernel_rows.append(nullspace(tuple(tuple(r) for r in mat), source.dims[w], p))
    return restrict_to_sub(source, make_subrep(source, kernel_rows))


def assert_isomorphic(old, new, rng, trials=8):
    """Same dimension vector and the same hom to and from each of old,
    new and ``trials`` random representations (Auslander: iso classes
    are told apart by hom from all X)."""
    assert old.dims == new.dims
    others = [small_representation(old.quiver, old.p, rng) for _ in range(trials)]
    for x in others + [old, new]:
        assert hom_dim(x, old) == hom_dim(x, new)
        assert hom_dim(old, x) == hom_dim(new, x)


def test_injectives_and_nakayama_kernel_equal_the_direct_constructions():
    # 100 nonzero kernels, and the zero ones and refusals met on the way
    rng = random.Random(11)
    zero, refused, nonzero = 0, 0, 0
    for trial in range(2000):
        if nonzero == 100:
            break
        quiver = random_acyclic_quiver(rng)
        p = (2, 3, 5)[trial % 3]
        for i in range(quiver.n):
            new = injective_representation(quiver, i, p)
            assert new.quiver == quiver
            assert_isomorphic(direct_injective(quiver, i, p), new, rng, trials=2)
        delta = tuple(rng.randrange(-2, 3) for _ in range(quiver.n))
        d = random_presentation(quiver, delta, p, rng)
        try:
            old = direct_nakayama_kernel(d)
        except ValueError:
            refused += 1
            with pytest.raises(ValueError, match="negative summand"):
                nakayama_kernel(d)
            continue
        new = nakayama_kernel(d)
        assert new.quiver == quiver
        assert_isomorphic(old, new, rng)
        if old.total_dim:
            nonzero += 1
        else:
            zero += 1
    assert nonzero == 100 and zero and refused


def small_acyclic_quiver(rng):
    """1-5 vertices, arrows from lower to higher index, at most 2 parallel."""
    n = rng.randrange(1, 6)
    pairs = [(s, t) for s in range(n) for t in range(s + 1, n)]
    arrows = []
    for _ in range(rng.randrange(n + 2) if pairs else 0):
        pair = rng.choice(pairs)
        if arrows.count(pair) < 2:
            arrows.append(pair)
    return Quiver(tuple(str(v + 1) for v in range(n)), tuple(arrows))


def _kernel_or_refusal(d):
    try:
        return nakayama_kernel(d)
    except ValueError as exc:
        return str(exc)


def test_cokernel_equals_the_direct_construction(monkeypatch):
    # The generated image and the per-vertex matrices of d span one
    # subspace per vertex, so the quotients agree entry by entry, and so
    # do the Nakayama kernels and the generic cokernels built from them.
    rng = random.Random(13)
    nonzero, kernels, rigid = 0, 0, set()
    for trial in range(2000):
        quiver = small_acyclic_quiver(rng)
        p = (2, 3, 5, 7, 101)[trial % 5]
        delta = tuple(rng.randrange(-3, 4) for _ in range(quiver.n))
        d = random_presentation(quiver, delta, p, rng)
        new, kernel = cokernel(d), _kernel_or_refusal(d)
        generic = generic_cokernel(quiver, delta, p, seed=trial)
        with monkeypatch.context() as patched:
            patched.setattr(presentations, "cokernel", direct_cokernel)
            old = direct_cokernel(d)
            assert _kernel_or_refusal(d) == kernel
            assert generic_cokernel(quiver, delta, p, seed=trial) == generic
        assert (new.dims, new.matrices) == (old.dims, old.matrices)
        nonzero += bool(new.total_dim and any(x < 0 for x in delta))
        kernels += not isinstance(kernel, str)
        rigid.add(generic[2])
    assert nonzero > 1000 and kernels > 600 and rigid == {True, False}
