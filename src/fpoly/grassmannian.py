"""Quiver Grassmannians over F_p: enumeration, point counts, tropical values.

Counting, existence and enumeration share one walk over the vertices.
For acyclic quivers the topological order guarantees that when a vertex
is processed, the images of the already-chosen subspaces along incoming
arrows are known, so only subspaces containing that span need to be
considered.  Only when counting (``count_points``, and ``has_subrep``,
which stops at the first point) does the walk skip a free vertex, one
that constrains nothing downstream, and count its choices by a
Gaussian binomial instead; ``enumerate_subreps`` visits every point.
Every walk first checks the fixed cost cap on dim M (``MAX_VERTEX_DIM``
per vertex, ``MAX_TOTAL_DIM`` in total); no argument lifts it.

``subrep_dim_vectors`` is memoized by value: a representation is
immutable, so its sub-dimension set is found once and kept in a small
bounded LRU cache, shared by every equal representation.
"""

import itertools
from functools import lru_cache

from . import kernels
from .errors import CostCapExceeded, GenericityError
from .quiver import vec_dot
from .rep import Subrep

MAX_VERTEX_DIM = 8
MAX_TOTAL_DIM = 16
CERTIFY_PRIMES = (2, 3)


def check_cost(dims):
    """Refuse a dimension vector whose subspace lattice is too large to walk."""
    if max(dims, default=0) > MAX_VERTEX_DIM or sum(dims) > MAX_TOTAL_DIM:
        raise CostCapExceeded(
            f"dimension vector {dims} exceeds the fixed enumeration cap "
            f"({MAX_VERTEX_DIM} per vertex, {MAX_TOTAL_DIM} total)")


@lru_cache(maxsize=32)
def _vertex_plan(quiver):
    """Processing order plus per-vertex constraining and deferred arrows.

    Constraining arrows into a vertex come from already-processed sources;
    for acyclic quivers that is all of them.  Deferred arrows (only on
    quivers with cycles) are stability-checked once all choices are made.
    A free vertex has no outgoing arrow and touches no deferred one.  The
    plan depends on the quiver alone, so it is memoized; it is made of
    tuples and frozensets (``constraining`` is indexed by vertex) so a
    cached plan cannot change.
    """
    order = quiver.topo_order if quiver.acyclic else tuple(range(quiver.n))
    pos = {v: i for i, v in enumerate(order)}
    forward = [pos[s] < pos[t] for s, t in quiver.arrows]
    constraining = tuple(tuple(a for a in quiver.arrows_into(v) if forward[a])
                         for v in range(quiver.n))
    deferred = tuple(a for a, ok in enumerate(forward) if not ok)
    touched = {v for a in deferred for v in quiver.arrows[a]}
    free = frozenset(v for v in order
                     if not quiver.arrows_from(v) and v not in touched)
    return order, constraining, deferred, free


def _forced_subspace(rep, bases, arrows_in):
    """Span of the images of chosen source subspaces along given arrows."""
    stacked = []
    for a in arrows_in:
        s, _ = rep.quiver.arrows[a]
        if bases[s]:
            stacked.extend(kernels.matmul(bases[s], rep.matrix_t(a), rep.p))
    t = rep.quiver.arrows[arrows_in[0]][1] if arrows_in else None
    ncols = rep.dims[t] if t is not None else 0
    return kernels.rref(tuple(stacked), ncols, rep.p)


def _deferred_ok(rep, bases, pivots, deferred):
    for a in deferred:
        s, t = rep.quiver.arrows[a]
        if not bases[s]:
            continue
        for row in kernels.matmul(bases[s], rep.matrix_t(a), rep.p):
            if not kernels.in_rowspace(row, bases[t], pivots[t], rep.p):
                return False
    return True


def enumerate_subreps(rep, gamma):
    """Yield every subrepresentation with dimension vector ``gamma``."""
    for _, bases, pivots in _walk(rep, gamma, count_free=False):
        yield Subrep(tuple(bases), tuple(pivots))


def count_points(rep, gamma):
    """|Gr_gamma(M)(F_p)|, with a closed-form shortcut at free vertices."""
    return sum(weight for weight, _, _ in _walk(rep, gamma, count_free=True))


def has_subrep(rep, gamma):
    """Whether M has a subrepresentation of dimension ``gamma``.

    An existence search: it takes the counting walk, free-vertex
    shortcut included, and stops at the first point it reaches.
    """
    return next(_walk(rep, gamma, count_free=True), None) is not None


def _walk(rep, gamma, count_free):
    """Yield ``(weight, bases, pivots)`` per point of Gr_gamma(M)(F_p) reached.

    Without ``count_free`` every point is reached once, with weight 1.
    With it, a free vertex (no outgoing or deferred arrows) constrains
    nothing later, so its subspace is left empty and its choices enter
    the weight in closed form; the weights, each positive, then sum to
    the point count.  ``bases`` and ``pivots`` are the walk's own lists,
    overwritten as it goes on.
    """
    rep.quiver.check_dim_vector(gamma)
    check_cost(rep.dims)
    if any(g < 0 or g > d for g, d in zip(gamma, rep.dims)):
        return
    order, constraining, deferred, free = _vertex_plan(rep.quiver)
    p = rep.p
    if not count_free:
        free = ()
    bases = [None] * rep.quiver.n
    pivots = [None] * rep.quiver.n

    def recurse(i, weight):
        if i == len(order):
            if _deferred_ok(rep, bases, pivots, deferred):
                yield weight, bases, pivots
            return
        v = order[i]
        n, k = rep.dims[v], gamma[v]
        forced = forced_piv = ()
        if constraining[v]:
            forced, forced_piv = _forced_subspace(rep, bases, constraining[v])
            if len(forced) > k:
                return
        if v in free:
            bases[v] = pivots[v] = ()
            yield from recurse(i + 1, weight * kernels.count_subspaces_containing(
                n, k, p, len(forced)))
            return
        if constraining[v]:
            candidates = kernels.subspaces_containing(n, k, p, forced, forced_piv)
        else:
            # subspaces_containing would re-reduce every candidate; skip that.
            candidates = kernels.subspaces(n, k, p)
        for basis in candidates:
            bases[v] = basis
            pivots[v] = tuple(_pivots_of(basis))
            yield from recurse(i + 1, weight)

    yield from recurse(0, 1)


def _pivots_of(rref_basis):
    for row in rref_basis:
        for j, x in enumerate(row):
            if x:
                yield j
                break


def subrep_dim_vectors(rep):
    """All dimension vectors of subrepresentations of one representation.

    Each gamma in the box below dim M is tested with the existence search
    ``has_subrep``; nothing is counted.  An over-cap representation raises
    in its first walk, so it never enters the cache.
    """
    return _subrep_dims(rep)


@lru_cache(maxsize=32)
def _subrep_dims(rep):
    box = itertools.product(*(range(d + 1) for d in rep.dims))
    return frozenset(gamma for gamma in box if has_subrep(rep, gamma))


def sub_dim_vectors(recipe):
    """Sub-dimension vectors of a recipe, certified across two primes."""
    results = [subrep_dim_vectors(recipe.at_prime(p)) for p in CERTIFY_PRIMES]
    if any(r != results[0] for r in results[1:]):
        raise GenericityError(
            f"sub-dimension sets disagree across primes {CERTIFY_PRIMES}; "
            f"the recipe is not certified generic")
    return results[0]


def tropical_f(rep, delta):
    """max over subrepresentations L of <delta, dim L>."""
    return max(vec_dot(delta, g) for g in subrep_dim_vectors(rep))


def dual_tropical_f(rep, delta):
    """Dual tropical value, via f^(delta) = f(-delta) + <delta, dim M>."""
    neg = tuple(-x for x in delta)
    return tropical_f(rep, neg) + vec_dot(delta, rep.dims)


def maximizer_dims(rep, delta):
    """Dimension vectors of subrepresentations attaining the tropical max."""
    dims = subrep_dim_vectors(rep)
    best = max(vec_dot(delta, g) for g in dims)
    return frozenset(g for g in dims if vec_dot(delta, g) == best)


def unique_subrep(rep, gamma):
    """The unique subrepresentation of dimension ``gamma``, or None."""
    found = None
    for sub in enumerate_subreps(rep, gamma):
        if found is not None:
            return None
        found = sub
    return found
