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
Gaussian binomials.  A vertex v that is not kept, with one arrow out
into a free vertex w that it settles, is counted by rank: w settles to
a dimension that depends on the subspace U at v only through the
dimension of its meet with K, the preimage of w's forced span, so the
U of each meet dimension are counted by ``kernels.meet``, not
enumerated.  ``subrep_counts`` is the one counting walk: it tries every
dimension at every vertex, so one walk counts every gamma, and it is
memoized by value in a small LRU cache.  It walks M, or its dual DM on
the opposite quiver, whichever plan enumerates fewer subspaces (those
of every vertex neither free nor counted by rank; a tie goes to M), and
reads a table of DM at alpha - gamma, since Gr_gamma(M) is
Gr_{alpha - gamma}(DM).  The sub-dimension set, the uniqueness test,
the graded counts and both F-polynomial fits of a representation read
that table; chi of one Gr_gamma is a coefficient of
``polynomial.f_polynomial``.  ``enumerate_subreps`` runs the same step
on M depth first at k = gamma_v, with no memo, no grouping and no rank
rule, and keeps every chosen subspace, free vertices included, to yield
every point.  Every walk first checks the fixed cost cap on dim M
(``quiver.MAX_VERTEX_DIM`` per vertex, ``quiver.MAX_TOTAL_DIM`` in
total), which the rank rule and the choice of side leave as it was.
"""

from functools import lru_cache
from types import MappingProxyType

from . import kernels
from .errors import GenericityError
from .quiver import check_cost, vec_dot, vec_sub
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
    starts from ``start``.  A vertex that is not kept and whose one arrow
    out ends at a vertex it settles is counted by rank (``ranked``): that
    arrow is a push, so no deferred arrow leaves it.  The plan depends on
    the quiver alone, so it is memoized; it is made of tuples and
    frozensets so a cached plan cannot change.
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
    ranked = frozenset(v for v in vertices
                       if v not in kept and settle[v] and len(quiver.arrows_from(v)) == 1)
    pushes = tuple(tuple((w, tuple(into)) for w, into in d.items()) for d in pushes)
    start = tuple(0 if v in free and v not in last else ((), ()) for v in vertices)
    positions = tuple(pos[v] for v in vertices)
    return order, free, positions, pushes, checks, kept, settle, start, ranked


@lru_cache(maxsize=32)
def _dual_plan(quiver):
    """The plan of the opposite quiver, on which DM is walked."""
    return _frontier_plan(quiver.opposite())


@lru_cache(maxsize=256)
def _subspace_total(n, p):
    """Number of subspaces of F_p^n, of every dimension."""
    return sum(kernels.gauss_binom(n, k, p) for k in range(n + 1))


def _estimate(plan, dims, p):
    """A walk's cost on ``plan``: the subspaces of every vertex that it
    enumerates, neither free nor counted by rank."""
    free, ranked = plan[1], plan[8]
    return sum(_subspace_total(d, p) for v, d in enumerate(dims)
               if v not in free and v not in ranked)


def _stepper(p, dims, mats, plan, keep, settle):
    """The one step of every walk on the representation with arrow
    matrices ``mats`` acting on row vectors: ``step(state, v, sub)`` is
    the state after choosing the subspace ``sub`` at v, an ``(rows,
    pivots)`` pair as ``kernels.subspaces_containing`` yields it, or None
    if a deferred arrow out of v leaves the subspace kept at its target.
    The rows join the spans they force on later vertices; v then holds
    ``sub`` if it is in ``keep``, else None, and each vertex in
    ``settle[v]`` holds the dimension of its forced span."""
    pushes, checks = plan[3:5]

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
    order, step = plan[0], _stepper(p, dims, rep.matrices_t, plan, range(n), ((),) * n)

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
    point, sorted, from one memoized frontier walk on M or on DM,
    whichever plan enumerates fewer subspaces (see the module docstring).
    An over-cap representation raises first, so it never enters the cache."""
    check_cost(rep.dims)
    p, alpha = rep.p, rep.dims
    plan, dual_plan = _frontier_plan(rep.quiver), _dual_plan(rep.quiver)
    if _estimate(dual_plan, alpha, p) < _estimate(plan, alpha, p):
        # Gr_gamma(M) is Gr_{alpha - gamma}(DM), and DM's row matrices are M's own.
        dual_counts = _walk(p, alpha, rep.matrices, dual_plan)
        counts = {vec_sub(alpha, g): c for g, c in dual_counts.items()}
    else:
        counts = _walk(p, alpha, rep.matrices_t, plan)
    return MappingProxyType(dict(sorted(counts.items())))


def _walk(p, dims, mats, plan):
    """``{gamma: count}`` of the representation with row matrices ``mats``,
    from the counting walk on ``plan``."""
    order, free, positions, pushes, _, kept, settle, start, ranked = plan
    step = _stepper(p, dims, mats, plan, kept, settle)
    memo = {}

    def by_rank(state, v):
        """``{(k, next state): count}`` at a vertex v counted by rank, whose
        one arrow a pushes into the vertex w that it settles.  With F the
        span forced at v and G at w, B the rows of a reduced modulo G, and
        K = ker B, a k-dimensional U >= F meeting K in dimension i settles w
        to dim G + k - i.  Modulo F, U/F meets the c-dimensional (K + F)/F
        in dimension j = i - f + rank(F B), so those U number ``kernels.meet``."""
        ((w, (a,)),) = pushes[v]
        (f_rows, _), (g_rows, g_pivots) = state[v], state[w]
        rows = (tuple(kernels.residual(row, g_rows, g_pivots, p) for row in mats[a])
                if g_rows else mats[a])
        f, n = len(f_rows), dims[v] - len(f_rows)
        rank_f = kernels.rank(kernels.matmul(f_rows, rows, p), dims[w], p) if f else 0
        c = dims[v] - kernels.rank(rows, dims[w], p) + rank_f - f
        nxt, groups = list(state), {}
        nxt[v] = None
        for m in range(n + 1):
            for j in range(max(0, m - n + c), min(c, m) + 1):
                nxt[w] = len(g_rows) + rank_f + m - j
                groups[f + m, tuple(nxt)] = kernels.meet(n, m, c, j, p)
        return groups

    def by_subspace(state, v):
        """``{(k, next state): count}`` over the subspaces at v, one step each."""
        groups = {}
        for k in range(len(state[v][0]), dims[v] + 1):
            for sub in kernels.subspaces_containing(dims[v], k, p, *state[v]):
                key = k, step(state, v, sub)
                groups[key] = groups.get(key, 0) + 1
        return groups

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
            groups = (by_rank if v in ranked else by_subspace)(state, v)
            for (k, nxt), mult in groups.items():
                if nxt is not None:
                    for suffix, c in suffixes(i + 1, nxt).items():
                        table[(k,) + suffix] = table.get((k,) + suffix, 0) + mult * c
        memo[i, state] = table
        return table

    table = suffixes(0, start)
    memo.clear()  # the memo can be large; release it now
    return {tuple(suffix[i] for i in positions): c for suffix, c in table.items()}


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
    """The unique subrepresentation of dimension ``gamma``, or None: the
    zero and the whole one as they stand, with the rows and pivots that
    ``enumerate_subreps`` yields; else a count of 1 in the table, then the
    first enumerated point."""
    rep.quiver.check_dim_vector(gamma)
    check_cost(rep.dims)
    gamma = tuple(gamma)
    if not any(gamma) or gamma == rep.dims:
        bases = tuple(tuple(tuple(int(i == j) for j in range(d)) for i in range(g))
                      for g, d in zip(gamma, rep.dims))
        return Subrep(bases, tuple(tuple(range(g)) for g in gamma))
    if subrep_counts(rep).get(gamma) != 1:
        return None
    return next(enumerate_subreps(rep, gamma))
