"""Quiver Grassmannians over F_p: point counts, enumeration, tropical values.

Every count and every point comes from one frontier walk over the
vertices, with one plan per quiver and one step.  A vertex's subspace
must contain the span that the arrows from chosen vertices force on it;
on a quiver with cycles the other, deferred, arrows are checked as soon
as their source is chosen.  The step chooses a subspace at one vertex,
an (rref rows, pivots) pair from ``kernels.subspaces_containing``: it
pushes the rows' images into the forced spans of later vertices and
checks the deferred arrows out of that vertex.

The counting walk's state is the forced span of each later vertex (its
dimension alone at a free vertex, which constrains nothing downstream,
once its sources are chosen) and the chosen subspaces a deferred arrow
still checks.  Choices leading to one state are counted together,
counts below a state are memoized, and free vertices are counted by
Gaussian binomials.  ``subrep_counts`` is the one counting walk: it
tries every dimension at every vertex, so one walk counts every gamma,
and it is memoized by value in a small LRU cache.  The sub-dimension
set, the uniqueness test, the graded counts and both F-polynomial fits
of a representation read that table; chi of one Gr_gamma is a
coefficient of ``polynomial.f_polynomial``.  ``enumerate_subreps`` runs
the same step depth first at k = gamma_v, with no memo and no grouping,
and keeps every chosen subspace, free vertices included, to yield every
point.  Every walk first checks the fixed cost cap on dim M
(``quiver.MAX_VERTEX_DIM`` per vertex, ``quiver.MAX_TOTAL_DIM`` in
total).
"""

from functools import lru_cache
from types import MappingProxyType

from . import kernels
from .errors import GenericityError
from .quiver import check_cost, vec_dot
from .rep import Subrep, _maps_into, generic_sub_dims

CERTIFY_PRIMES = (2, 3)


@lru_cache(maxsize=32)
def _frontier_plan(quiver):
    """The walk's plan for one quiver.

    Vertices go in topological order, or in index order on a quiver with
    cycles.  An arrow whose source comes first constrains its target;
    the others are deferred.  Per vertex v, choosing its subspace pushes
    its images into the spans forced on the later vertices it constrains
    (``pushes``) and checks the deferred arrows out of v (``checks``).
    The counting walk keeps the subspace only if a deferred arrow ends at
    v (``kept``), reduces each free vertex (no arrow out, no deferred
    arrow in) whose last source is v to a dimension (``settle``), and
    starts from ``start``.  The plan depends on the quiver alone, so it
    is memoized; it is made of tuples and frozensets so a cached plan
    cannot change.
    """
    order = quiver.topo_order if quiver.acyclic else tuple(range(quiver.n))
    arrows, vertices = quiver.arrows, range(quiver.n)
    pos = {v: i for i, v in enumerate(order)}
    forward = [pos[s] < pos[t] for s, t in arrows]
    kept = frozenset(t for (_, t), ok in zip(arrows, forward) if not ok)
    free = frozenset(v for v in vertices if not quiver.arrows_from(v)) - kept
    pushes, last = [{} for _ in vertices], {}
    for w in vertices:
        for a in quiver.arrows_into(w):
            if forward[a]:
                s = arrows[a][0]
                pushes[s].setdefault(w, []).append(a)
                last[w] = max(last.get(w, -1), pos[s])
    checks = tuple(tuple((a, t) for a, (s, t) in enumerate(arrows)
                         if s == v and not forward[a]) for v in vertices)
    settle = tuple(tuple(w for w in pushes[v] if w in free and last[w] == pos[v])
                   for v in vertices)
    pushes = tuple(tuple((w, tuple(into)) for w, into in d.items()) for d in pushes)
    start = tuple(0 if v in free and v not in last else ((), ()) for v in vertices)
    positions = tuple(pos[v] for v in vertices)
    return order, free, positions, pushes, checks, kept, settle, start


def _stepper(rep, plan, keep, settle):
    """The one step of every walk on ``rep``: ``step(state, v, sub)`` is
    the state after choosing the subspace ``sub`` at v, an ``(rows,
    pivots)`` pair as ``kernels.subspaces_containing`` yields it, or None
    if a deferred arrow out of v leaves the subspace kept at its target.
    The rows join the spans they force on later vertices; v then holds
    ``sub`` if it is in ``keep``, else None, and each vertex in
    ``settle[v]`` holds the dimension of its forced span."""
    pushes, checks = plan[3:5]
    p, dims = rep.p, rep.dims
    mats = rep.matrices_t

    def step(state, v, sub):
        basis = sub[0]
        for a, t in checks[v]:
            if not _maps_into(basis, mats[a], *(state[t] if t != v else sub), p):
                return None
        nxt = list(state)
        nxt[v] = sub if v in keep else None
        if basis:
            for w, into in pushes[v]:
                rows = nxt[w][0]
                for a in into:
                    rows += kernels.matmul(basis, mats[a], p)
                nxt[w] = kernels.rref(rows, dims[w], p)
        for w in settle[v]:
            nxt[w] = len(nxt[w][0])
        return tuple(nxt)

    return step


def enumerate_subreps(rep, gamma):
    """Yield every subrepresentation with dimension vector ``gamma``: the
    walk's step, depth first in plan order, at k = gamma_v per vertex,
    keeping every chosen subspace."""
    rep.quiver.check_dim_vector(gamma)
    check_cost(rep.dims)
    if any(g < 0 or g > d for g, d in zip(gamma, rep.dims)):
        return
    n, p, dims = rep.quiver.n, rep.p, rep.dims
    plan = _frontier_plan(rep.quiver)
    order, step = plan[0], _stepper(rep, plan, range(n), ((),) * n)

    def points(i, state):
        if i == len(order):
            yield Subrep(tuple(b for b, _ in state), tuple(q for _, q in state))
            return
        v = order[i]
        for sub in kernels.subspaces_containing(dims[v], gamma[v], p, *state[v]):
            nxt = step(state, v, sub)
            if nxt is not None:
                yield from points(i + 1, nxt)

    yield from points(0, (((), ()),) * n)


@lru_cache(maxsize=32)
def subrep_counts(rep):
    """Read-only ``{gamma: |Gr_gamma(M)(F_p)|}`` over every gamma with a
    point, sorted, from one memoized frontier walk (see the module
    docstring).  An over-cap representation raises first, so it never
    enters the cache."""
    check_cost(rep.dims)
    plan = _frontier_plan(rep.quiver)
    order, free, positions, _, _, kept, settle, start = plan
    p, dims = rep.p, rep.dims
    step = _stepper(rep, plan, kept, settle)
    memo = {}

    def suffixes(i, state):
        """``{gamma restricted to order[i:]: count}`` below one state."""
        if i == len(order):
            return {(): 1}
        table = memo.get((i, state))
        if table is not None:
            return table
        v, table = order[i], {}
        n = dims[v]
        if v in free:
            f, rest = state[v], suffixes(i + 1, state[:v] + (None,) + state[v + 1:])
            table = {(k,) + suffix: c * kernels.gauss_binom(n - f, k - f, p)
                     for k in range(f, n + 1) for suffix, c in rest.items()}
        else:
            groups = {}
            for k in range(len(state[v][0]), n + 1):
                for sub in kernels.subspaces_containing(n, k, p, *state[v]):
                    key = k, step(state, v, sub)
                    groups[key] = groups.get(key, 0) + 1
            for (k, nxt), mult in groups.items():
                if nxt is not None:
                    for suffix, c in suffixes(i + 1, nxt).items():
                        table[(k,) + suffix] = table.get((k,) + suffix, 0) + mult * c
        memo[i, state] = table
        return table

    table = suffixes(0, start)
    memo.clear()  # the memo can be large; release it now
    counts = {tuple(suffix[i] for i in positions): c for suffix, c in table.items()}
    return MappingProxyType(dict(sorted(counts.items())))


def subrep_dim_vectors(rep):
    """All dimension vectors of subrepresentations of one representation."""
    return frozenset(subrep_counts(rep))


def sub_dim_vectors(recipe):
    """A recipe's sub-dimension set, chosen here alone: S(alpha), exact with
    no draw, for a seeded recipe on an acyclic quiver; for explicit matrices
    the gammas with an F_p-point, which must agree at the CERTIFY_PRIMES.
    Seeded draws on a quiver with a cycle may agree on a module that is not
    general, so they are refused."""
    if recipe.int_matrices is None and not recipe.quiver.acyclic:
        raise GenericityError("a seeded recipe on a quiver with a cycle has no certified "
                              "sub-dimension set; pass explicit int_matrices")
    if recipe.int_matrices is None:
        return generic_sub_dims(recipe.quiver, recipe.dims)
    results = [subrep_dim_vectors(recipe.at_prime(p)) for p in CERTIFY_PRIMES]
    if any(r != results[0] for r in results[1:]):
        raise GenericityError(
            f"sub-dimension sets disagree across primes {CERTIFY_PRIMES}; "
            f"the recipe is not certified generic")
    return results[0]


def tropical_f(rep, delta):
    """max over subrepresentations L of <delta, dim L>."""
    rep.quiver.check_dim_vector(delta)
    return max(vec_dot(delta, g) for g in subrep_dim_vectors(rep))


def maximizer_dims(rep, delta):
    """Dimension vectors of subrepresentations attaining the tropical max."""
    rep.quiver.check_dim_vector(delta)
    dims = subrep_dim_vectors(rep)
    best = max(vec_dot(delta, g) for g in dims)
    return frozenset(g for g in dims if vec_dot(delta, g) == best)


def unique_subrep(rep, gamma):
    """The unique subrepresentation of dimension ``gamma``, or None:
    a count of 1 in the table, then the first enumerated point."""
    rep.quiver.check_dim_vector(gamma)
    if subrep_counts(rep).get(tuple(gamma)) != 1:
        return None
    return next(enumerate_subreps(rep, gamma))
