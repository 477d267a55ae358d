"""Projective presentations over acyclic path algebras.

A weight vector delta splits as delta = delta_plus - delta_minus and a
presentation is a map d: P(delta_minus) -> P(delta_plus) between
projectives, stored by path coefficients.  From d we derive its
cokernel, the invariants (hom, e) against any representation (kernel
and cokernel dimensions of Hom(P_plus, N) -> Hom(P_minus, N)), and the
kernel of the Nakayama translate (which computes tau of the cokernel).
The injective side is the projective side of the opposite quiver under
the duality D = Hom(-, F_p) of ``rep.dual``.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce

from . import kernels
from .quiver import pos_neg_parts, vec_dot
from .rep import (Representation, _least_hom, direct_sum, dual, make_subrep,
                  quotient, stable_rng, zero_matrix, zero_representation)

GENERIC_TRIALS = 8       # draws per prime for a generic hom or cokernel


@lru_cache(maxsize=None)
def path_basis(quiver):
    """between[i][j]: the directed paths from i to j of an acyclic quiver,
    as arrow-index tuples sorted by (length, path); the trivial path is ()."""
    if not quiver.acyclic:
        raise ValueError("path enumeration requires an acyclic quiver")
    between = [[[] for _ in range(quiver.n)] for _ in range(quiver.n)]
    for i in range(quiver.n):
        stack = [((), i)]
        while stack:
            path, v = stack.pop()
            between[i][v].append(path)
            for a in quiver.arrows_from(v):
                stack.append((path + (a,), quiver.arrows[a][1]))
    return tuple(tuple(tuple(sorted(cell, key=lambda path: (len(path), path)))
                       for cell in row) for row in between)


def projective_representation(quiver, i, p):
    """P_i on the basis of paths starting at i."""
    between = path_basis(quiver)[i]
    mats = []
    for a, (s, t) in enumerate(quiver.arrows):
        tgt = {path: r for r, path in enumerate(between[t])}
        mat = [[0] * len(between[s]) for _ in range(len(tgt))]
        for c, path in enumerate(between[s]):
            mat[tgt[path + (a,)]][c] = 1
        mats.append(tuple(tuple(r) for r in mat))
    return Representation(quiver, p, tuple(map(len, between)), tuple(mats))


def injective_representation(quiver, i, p):
    """I_i = D P_i of the opposite quiver, on the paths ending at i."""
    return dual(projective_representation(quiver.opposite(), i, p))


def _summands(quiver, beta):
    return tuple(i for i in range(quiver.n) for _ in range(beta[i]))


@dataclass(frozen=True)
class Presentation:
    """Map P(delta_minus) -> P(delta_plus) given by path coefficients.

    coeffs[u][v] lists (path, coefficient) pairs, where path runs from
    the vertex of the u-th plus-summand to the vertex of the v-th
    minus-summand.
    """

    quiver: object
    p: int
    delta: tuple
    coeffs: tuple

    @property
    def plus_summands(self):
        return _summands(self.quiver, pos_neg_parts(self.delta)[0])

    @property
    def minus_summands(self):
        return _summands(self.quiver, pos_neg_parts(self.delta)[1])


def random_presentation(quiver, delta, p, rng):
    """Presentation of weight delta with uniform path coefficients."""
    plus, minus = pos_neg_parts(delta)
    between = path_basis(quiver)
    coeffs = []
    for i in _summands(quiver, plus):
        row = []
        for j in _summands(quiver, minus):
            row.append(tuple((path, rng.randrange(p))
                             for path in between[i][j]))
        coeffs.append(tuple(row))
    return Presentation(quiver, p, tuple(delta), tuple(coeffs))


def _realize(pres):
    """Per-vertex matrices of d: P(minus) -> P(plus), plus the target rep."""
    quiver, p = pres.quiver, pres.p
    between = path_basis(quiver)
    plus_s = pres.plus_summands
    minus_s = pres.minus_summands
    target = reduce(direct_sum,
                    [projective_representation(quiver, i, p) for i in plus_s],
                    zero_representation(quiver, p))
    row_index = {}
    for w in range(quiver.n):
        idx = {}
        r = 0
        for u, i in enumerate(plus_s):
            for path in between[i][w]:
                idx[(u, path)] = r
                r += 1
        row_index[w] = idx
    mats = []
    for w in range(quiver.n):
        ncols = sum(len(between[j][w]) for j in minus_s)
        mat = [[0] * ncols for _ in range(len(row_index[w]))]
        c = 0
        for v, j in enumerate(minus_s):
            for path in between[j][w]:
                for u in range(len(plus_s)):
                    for q, coef in pres.coeffs[u][v]:
                        if coef:
                            r = row_index[w][(u, q + path)]
                            mat[r][c] = (mat[r][c] + coef) % p
                c += 1
        mats.append(tuple(tuple(row) for row in mat))
    return target, mats


def cokernel(pres):
    """Cokernel representation of the presentation."""
    target, mats = _realize(pres)
    image_rows = [kernels.transpose(mats[w], target.dims[w])
                  for w in range(pres.quiver.n)]
    image = make_subrep(target, image_rows)
    return quotient(target, image)


def _path_action(rep, path, start):
    """Matrix of the representation along a path (identity if trivial).
    Past a zero space it is zero, of shape dims[end] x dims[start]."""
    n = rep.dims[start]
    mat = tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))
    for a in path:
        if not mat:
            return zero_matrix(rep.dims[rep.quiver.arrows[path[-1]][1]], n)
        mat = kernels.matmul(rep.matrices[a], mat, rep.p)
    return mat


def hom_e(pres, n_rep):
    """(dim kernel, dim cokernel) of Hom(P_plus, N) -> Hom(P_minus, N).

    Always satisfies hom - e = delta(dim N).
    """
    if n_rep.quiver != pres.quiver or n_rep.p != pres.p:
        raise ValueError("presentation and representation are incompatible")
    p = pres.p
    plus_s = pres.plus_summands
    minus_s = pres.minus_summands
    src_dim = sum(n_rep.dims[i] for i in plus_s)
    tgt_dim = sum(n_rep.dims[j] for j in minus_s)
    if src_dim == 0:
        return 0, tgt_dim
    mat = [[0] * src_dim for _ in range(tgt_dim)]
    co = 0
    for u, i in enumerate(plus_s):
        ro = 0
        for v, j in enumerate(minus_s):
            for path, coef in pres.coeffs[u][v]:
                if coef:
                    block = _path_action(n_rep, path, i)
                    for r in range(n_rep.dims[j]):
                        for c in range(n_rep.dims[i]):
                            mat[ro + r][co + c] = (
                                mat[ro + r][co + c] + coef * block[r][c]) % p
            ro += n_rep.dims[j]
        co += n_rep.dims[i]
    rank = kernels.rank(tuple(tuple(r) for r in mat), src_dim, p)
    return src_dim - rank, tgt_dim - rank


def _transpose(pres):
    """d* = Hom(d, A): P(delta_plus) -> P(delta_minus) over the opposite
    quiver, of weight -delta, with each path read backwards."""
    coeffs = tuple(tuple(tuple((path[::-1], coef) for path, coef in row[v])
                         for row in pres.coeffs)
                   for v in range(len(pres.minus_summands)))
    return Presentation(pres.quiver.opposite(), pres.p,
                        tuple(-x for x in pres.delta), coeffs)


def nakayama_kernel(pres):
    """Kernel of the Nakayama translate nu(d) = D Hom(d, A): I(minus) -> I(plus).

    D is exact, so this is D Coker(d*).  For a presentation with no
    negative summand it is tau of the cokernel of d.
    """
    for v in range(len(pres.minus_summands)):
        if all(coef == 0 for row in pres.coeffs for _, coef in row[v]):
            raise ValueError("presentation has a negative summand P -> 0")
    return dual(cokernel(_transpose(pres)))


def generic_hom_e(quiver, delta, recipe, seed=0):
    """Generic (hom(delta, M), e(delta, M)) by sampling presentations:
    hom stops at its floor max(0, delta . dim M), as hom - e = delta . dim M."""
    def draw(p, i):
        n_rep = recipe.at_prime(p)
        d = random_presentation(quiver, delta, p, stable_rng(seed, p, i))
        return hom_e(d, n_rep)[0]

    euler = vec_dot(delta, recipe.dims)
    hom = _least_hom(draw, max(0, euler), GENERIC_TRIALS)
    return hom, hom - euler


def generic_cokernel(quiver, delta, p, seed=0):
    """Cokernel of a rigidity-checked random presentation of weight delta.

    A sample d is accepted when e(d, Coker d) = 0 twice in a row; the
    orbit of rigid presentations is dense whenever one exists.
    """
    last = None
    for i in range(GENERIC_TRIALS):
        rng = stable_rng(seed, p, i)
        d = random_presentation(quiver, delta, p, rng)
        coker = cokernel(d)
        last = (d, coker)
        if hom_e(d, coker)[1] == 0:
            rng2 = stable_rng(seed, p, i, 1)
            d2 = random_presentation(quiver, delta, p, rng2)
            if hom_e(d2, cokernel(d2))[1] == 0:
                return d, coker, True
    d, coker = last
    return d, coker, False
