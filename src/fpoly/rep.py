"""Representations over prime fields: hom/ext computations and recipes.

A representation assigns an F_p vector space to each vertex and a matrix
to each arrow (shape dims[target] x dims[source], acting on column
vectors).  Subrepresentations are stored as per-vertex reduced row
echelon bases, which makes them canonical and cheap to compare.  Generic
hom/ext and sub-dimension vectors are exact; only the End is sampled.
"""

import itertools
import random
from dataclasses import dataclass
from functools import cached_property, lru_cache

from . import kernels
from .errors import (GenericityError, InvalidSubrepresentation,
                     InvariantViolation)
from .quiver import (Quiver, check_cost, euler_form, is_prime, unit_vector,
                     vec_add, vec_dot, vec_sub)

DEFAULT_GENERIC_PRIMES = (101, 103, 107)
END_DIM_TRIALS = 6       # seed-0 draws per large prime for the generic End
DRAW_ATTEMPTS = 500      # seeded draws tried per prime before giving up


def stable_rng(*parts):
    """Deterministic RNG keyed by integers, stable across processes."""
    return random.Random(":".join(str(x) for x in parts))


def _check_dims(quiver, dims):
    quiver.check_dim_vector(dims)
    if any(d < 0 for d in dims):
        raise ValueError("dimension vector must be nonnegative")


def _check_shapes(quiver, dims, matrices):
    """One matrix per arrow, each of shape dims[target] x dims[source]."""
    if len(matrices) != len(quiver.arrows):
        raise ValueError("one matrix per arrow required")
    for (s, t), mat in zip(quiver.arrows, matrices):
        if len(mat) != dims[t] or any(len(r) != dims[s] for r in mat):
            raise ValueError(f"matrix shape mismatch on arrow {(s, t)}")


@dataclass(frozen=True)
class Representation:
    quiver: Quiver
    p: int
    dims: tuple
    matrices: tuple

    def __post_init__(self):
        _check_dims(self.quiver, self.dims)
        if not is_prime(self.p):
            raise ValueError(f"{self.p} is not a prime")
        _check_shapes(self.quiver, self.dims, self.matrices)
        if any(not (0 <= x < self.p) for mat in self.matrices
               for r in mat for x in r):
            raise ValueError("matrix entries must be reduced mod p")

    @property
    def total_dim(self):
        return sum(self.dims)

    @cached_property
    def matrices_t(self):
        """The transposed arrow matrices, for acting on row vectors: each
        is transposed once per representation, on first use."""
        return tuple(kernels.transpose(mat, self.dims[s])
                     for (s, _), mat in zip(self.quiver.arrows, self.matrices))


@dataclass(frozen=True)
class Subrep:
    """Arrow-stable tuple of subspaces, one rref row basis per vertex."""

    bases: tuple
    pivots: tuple

    @property
    def dims(self):
        return tuple(len(b) for b in self.bases)


def zero_matrix(nrows, ncols):
    return tuple((0,) * ncols for _ in range(nrows))


def zero_representation(quiver, p):
    dims = (0,) * quiver.n
    return Representation(quiver, p, dims, tuple(zero_matrix(0, 0) for _ in quiver.arrows))


def random_representation(quiver, dims, p, rng):
    quiver.check_dim_vector(dims)
    mats = []
    for s, t in quiver.arrows:
        mats.append(tuple(tuple(rng.randrange(p) for _ in range(dims[s]))
                          for _ in range(dims[t])))
    return Representation(quiver, p, dims, tuple(mats))


def dual(rep):
    """DM = Hom(M, F_p): the same dimensions on the opposite quiver, each
    arrow matrix transposed.  D is exact and contravariant, and DDM = M."""
    mats = rep.matrices_t
    return Representation(rep.quiver.opposite(), rep.p, rep.dims, mats)


def _check_compatible(m, n):
    if m.quiver != n.quiver or m.p != n.p:
        raise ValueError("representations live over different quivers or fields")


def _maps_into(basis, mat, target, target_pivots, p):
    """Whether the row space of ``basis`` times ``mat`` lies in ``target``."""
    return all(kernels.in_rowspace(row, target, target_pivots, p)
               for row in kernels.matmul(basis, mat, p))


def is_arrow_stable(rep, bases, pivots):
    return all(_maps_into(bases[s], rep.matrices_t[a], bases[t], pivots[t], rep.p)
               for a, (s, t) in enumerate(rep.quiver.arrows) if bases[s])


def make_subrep(rep, raw_bases):
    """Canonicalize per-vertex spanning sets into a Subrep of `rep`."""
    bases = []
    pivots = []
    for v in range(rep.quiver.n):
        b, piv = kernels.rref(tuple(raw_bases[v]), rep.dims[v], rep.p)
        bases.append(b)
        pivots.append(piv)
    sub = Subrep(tuple(bases), tuple(pivots))
    if not is_arrow_stable(rep, sub.bases, sub.pivots):
        raise InvalidSubrepresentation("subspaces are not stable under the arrows")
    return sub


def _coords_in_basis(row, basis, pivots, p):
    if any(kernels.residual(row, basis, pivots, p)):
        raise InvalidSubrepresentation("vector not in the subspace")
    return tuple(row[c] for c in pivots)


def restrict_to_sub(rep, sub):
    """The subrepresentation as a representation on the basis rows."""
    dims = sub.dims
    mats = []
    for a, (s, t) in enumerate(rep.quiver.arrows):
        images = kernels.matmul(sub.bases[s], rep.matrices_t[a], rep.p)
        cols = [_coords_in_basis(row, sub.bases[t], sub.pivots[t], rep.p)
                for row in images]
        mats.append(tuple(tuple(col[i] for col in cols) for i in range(dims[t])))
    return Representation(rep.quiver, rep.p, dims, tuple(mats))


def quotient(rep, sub):
    """Quotient representation on the non-pivot coordinates."""
    p = rep.p
    comp = [tuple(j for j in range(rep.dims[v]) if j not in set(sub.pivots[v]))
            for v in range(rep.quiver.n)]
    dims = tuple(len(c) for c in comp)

    def project(v, row):
        res = kernels.residual(row, sub.bases[v], sub.pivots[v], p)
        return tuple(res[j] for j in comp[v])

    mats = []
    for a, (s, t) in enumerate(rep.quiver.arrows):
        at = rep.matrices_t[a]  # row j is the image of basis vector e_j
        cols = [project(t, at[j]) for j in comp[s]]
        mats.append(tuple(tuple(col[i] for col in cols) for i in range(dims[t])))
    return Representation(rep.quiver, p, dims, tuple(mats))


def direct_sum(m, n):
    _check_compatible(m, n)
    dims = vec_add(m.dims, n.dims)
    mats = []
    for a, (s, t) in enumerate(m.quiver.arrows):
        rows = []
        for r in m.matrices[a]:
            rows.append(tuple(r) + (0,) * n.dims[s])
        for r in n.matrices[a]:
            rows.append((0,) * m.dims[s] + tuple(r))
        mats.append(tuple(rows))
    return Representation(m.quiver, m.p, dims, tuple(mats))


def _hom_system(m, n):
    """Constraint matrix whose null space is Hom(M, N), and its width."""
    nv = m.quiver.n
    offsets = []
    total = 0
    for v in range(nv):
        offsets.append(total)
        total += n.dims[v] * m.dims[v]
    rows = []
    for a, (s, t) in enumerate(m.quiver.arrows):
        ma = m.matrices[a]
        na = n.matrices[a]
        for r in range(n.dims[t]):
            for c in range(m.dims[s]):
                row = [0] * total
                # (phi_t @ M(a))[r, c] - (N(a) @ phi_s)[r, c] = 0
                for k in range(m.dims[t]):
                    row[offsets[t] + r * m.dims[t] + k] += ma[k][c]
                for k in range(n.dims[s]):
                    row[offsets[s] + k * m.dims[s] + c] -= na[r][k]
                rows.append(tuple(x % m.p for x in row))
    return tuple(rows), total


def hom_dim(m, n):
    """dim Hom_Q(M, N) over F_p."""
    _check_compatible(m, n)
    rows, total = _hom_system(m, n)
    if total == 0:
        return 0
    return total - kernels.rank(rows, total, m.p)


def ext_dim_hereditary(m, n):
    """dim Ext^1 via hom - Euler form; valid for acyclic quivers only."""
    if not m.quiver.acyclic:
        raise ValueError("hereditary ext formula requires an acyclic quiver")
    e = hom_dim(m, n) - euler_form(m.quiver, m.dims, n.dims)
    if e < 0:
        raise InvariantViolation("negative ext: hereditary identity violated")
    return e


@dataclass(frozen=True)
class RepRecipe:
    """One integral or seeded model of a representation across primes.

    With explicit integer matrices, each reduction mod p builds a new,
    equal Representation.  In seeded mode the representation mod p is a
    random draw fixed by (seed, p), certified generic by matching the
    generic endomorphism dimension sampled at large primes; it is drawn
    once and reused within a process.  A recipe over the cost cap of
    ``quiver.check_cost`` cannot be built, so nothing is ever drawn for it.
    """

    quiver: Quiver
    dims: tuple
    int_matrices: tuple = None
    seed: int = 0

    def __post_init__(self):
        _check_dims(self.quiver, self.dims)
        if self.int_matrices is not None:
            _check_shapes(self.quiver, self.dims, self.int_matrices)
        check_cost(self.dims)

    def at_prime(self, p):
        if self.int_matrices is not None:
            mats = tuple(tuple(tuple(x % p for x in row) for row in mat)
                         for mat in self.int_matrices)
            return Representation(self.quiver, p, self.dims, mats)
        return _generic_draw(self, p)

    def is_rigid_at(self, p):
        """Whether M mod p is rigid.  Explicit matrices answer for their
        own reduction.  Every seeded draw has the generic End, so it is
        rigid exactly when the quiver is acyclic and that End has dimension
        <alpha, alpha>: then ext(M, M) = 0, with no End recomputed.  The
        generic ext(alpha, alpha) is no test: it is 0 for the Kronecker
        (1,1), whose general M has Ext(M, M) = 1."""
        if self.int_matrices is not None:
            return _is_rigid_rep(self.at_prime(p))
        quiver, alpha = self.quiver, self.dims
        return (quiver.acyclic
                and _generic_end_dim(quiver, alpha) == euler_form(quiver, alpha, alpha))

    @classmethod
    def from_json(cls, data):
        quiver = Quiver.from_json(data)
        dims = tuple(int(d) for d in data["dims"])
        mats = None
        if "matrices" in data and data["matrices"]:
            raw = data["matrices"]
            mats = tuple(tuple(tuple(int(x) for x in row) for row in raw[str(i)])
                         for i in range(len(quiver.arrows)))
        return cls(quiver, dims, mats, int(data.get("seed", 0)))

    def to_json(self):
        out = self.quiver.to_json()
        out["dims"] = list(self.dims)
        out["seed"] = self.seed
        if self.int_matrices is not None:
            out["matrices"] = {
                str(i): [list(row) for row in mat]
                for i, mat in enumerate(self.int_matrices)
            }
        return out


@lru_cache(maxsize=32)
def _generic_draw(recipe, p):
    """First seeded draw mod p with the generic endomorphism dimension.

    Each attempt is fixed by (seed, p, attempt), so the result is a
    function of the arguments and is memoized; errors are not cached.
    """
    target = _generic_end_dim(recipe.quiver, recipe.dims)
    for attempt in range(DRAW_ATTEMPTS):
        rng = stable_rng(recipe.seed, p, attempt)
        rep = random_representation(recipe.quiver, recipe.dims, p, rng)
        if hom_dim(rep, rep) == target:
            return rep
    raise GenericityError(f"no generic representation found mod {p} "
                          f"after {DRAW_ATTEMPTS} attempts")


def _least_hom(draw, floor, trials):
    """Least ``draw(p, i)``, a seeded hom dimension, over draws i < trials
    at each prime of DEFAULT_GENERIC_PRIMES, in that order.

    A generic hom is the least over the representation space, so the
    least over draws converges to it from above.  No draw lies below
    ``floor``, an Euler-form bound: one that reaches it ends the search.
    """
    best = None
    for p in DEFAULT_GENERIC_PRIMES:
        for i in range(trials):
            h = draw(p, i)
            best = h if best is None else min(best, h)
            if best == floor:
                return best
    return best


@lru_cache(maxsize=32)
def _generic_end_dim(quiver, dims):
    """Generic dim End of a dims-dimensional representation: the least
    over seed-0 draws at large primes, shared by every seed.  Its floor is
    max(<alpha, alpha>, 1), or 0 at alpha = 0: the identity is a nonzero
    endomorphism."""
    def draw(p, i):
        rep = random_representation(quiver, dims, p, stable_rng(0, p, 1_000_000 + i))
        return hom_dim(rep, rep)

    floor = max(euler_form(quiver, dims, dims), 1) if any(dims) else 0
    return _least_hom(draw, floor, END_DIM_TRIALS)


def _is_rigid_rep(rep):
    """Whether one representation is rigid: acyclic, with Ext^1(M, M) = 0."""
    return rep.quiver.acyclic and ext_dim_hereditary(rep, rep) == 0


@lru_cache(maxsize=32)
def _generic_rules(quiver):
    """(S, ext) of an acyclic quiver (Schofield 1992; Crawley-Boevey 1996).
    S(alpha), memoized: alpha and the gamma <= alpha with ext(gamma, alpha -
    gamma) = 0.  ext(a, b) = max -<s, b> over S(a), >= 0 as 0 is in S(a)."""
    if not quiver.acyclic:
        raise ValueError("generic hom/ext requires an acyclic quiver")
    units = [unit_vector(quiver.n, v) for v in range(quiver.n)]

    def row(b):         # <s, b> = s . row(b)
        return [euler_form(quiver, e, b) for e in units]

    @lru_cache(maxsize=None)
    def subs(alpha):
        def embeds(g):  # ext(g, alpha - g) = 0: no s in S(g) has <s, alpha - g> < 0
            r = row(vec_sub(alpha, g))
            return all(vec_dot(s, r) >= 0 for s in subs(g))
        return frozenset(g for g in itertools.product(*(range(a + 1) for a in alpha))
                         if g == alpha or embeds(g))

    def ext(a, b):
        r = row(b)
        return max(-vec_dot(s, r) for s in subs(a))
    return subs, ext


def generic_sub_dims(quiver, alpha):
    """Sub-dimension vectors of a general alpha-dimensional representation."""
    _check_dims(quiver, alpha)
    return _generic_rules(quiver)[0](tuple(alpha))


def generic_hom_ext(quiver, a, b):
    """Generic (hom, ext) of dimension vectors: hom = ext + <a, b>."""
    _check_dims(quiver, a)
    _check_dims(quiver, b)
    ext = _generic_rules(quiver)[1](tuple(a), b)
    return ext + euler_form(quiver, a, b), ext
