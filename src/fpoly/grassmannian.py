"""Quiver Grassmannians over F_p: point counts, enumeration, tropical values.

Every count comes from one memoized frontier walk over the vertices.  A
vertex's subspace must contain the span that the arrows from chosen
vertices force on it; on a quiver with cycles the other, deferred,
arrows are checked once their source is chosen.  The walk's state is the
forced span of each later vertex (its dimension alone at a free vertex,
which constrains nothing downstream, once its sources are chosen) and
the chosen subspaces a deferred arrow still checks.  Choices leading to
one state are counted together, counts below a state are memoized, and
free vertices are counted by Gaussian binomials.  ``subrep_counts`` runs
it over every dimension at every vertex and is memoized by value in a
small LRU cache; the sub-dimension set, existence and uniqueness tests,
graded counts and rigid fits of a representation read that table.
``count_points`` runs it at the one dimension gamma_v per vertex, for
counts that may stop at their first gamma.  ``enumerate_subreps`` walks
depth first and yields every point.  Every walk first checks the fixed
cost cap on dim M (``MAX_VERTEX_DIM`` per vertex, ``MAX_TOTAL_DIM`` in
total).
"""

from functools import lru_cache
from types import MappingProxyType

from . import kernels
from .errors import GenericityError
from .quiver import MAX_TOTAL_DIM, MAX_VERTEX_DIM, check_cost, vec_dot
from .rep import Subrep

CERTIFY_PRIMES = (2, 3)


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


def _maps_into(basis, mat, target, target_pivots, p):
    """Whether the row space of ``basis`` times ``mat`` lies in ``target``."""
    return all(kernels.in_rowspace(row, target, target_pivots, p)
               for row in kernels.matmul(basis, mat, p))


def enumerate_subreps(rep, gamma):
    """Yield every subrepresentation with dimension vector ``gamma``.

    A depth-first walk over the vertices in plan order: each vertex's
    subspace contains the span forced by its constraining arrows, and
    deferred arrows are checked once every subspace is chosen.
    """
    rep.quiver.check_dim_vector(gamma)
    check_cost(rep.dims)
    if any(g < 0 or g > d for g, d in zip(gamma, rep.dims)):
        return
    order, constraining, deferred, _ = _vertex_plan(rep.quiver)
    p, arrows = rep.p, rep.quiver.arrows
    mats = tuple(map(rep.matrix_t, range(len(arrows))))
    bases = [None] * rep.quiver.n
    pivots = [None] * rep.quiver.n

    def recurse(i):
        if i == len(order):
            if all(_maps_into(bases[s], mats[a], bases[t], pivots[t], p)
                   for a in deferred for s, t in [arrows[a]]):
                yield Subrep(tuple(bases), tuple(pivots))
            return
        v = order[i]
        n, k = rep.dims[v], gamma[v]
        rows = sum((kernels.matmul(bases[arrows[a][0]], mats[a], p)
                    for a in constraining[v]), ())
        forced, forced_piv = kernels.rref(rows, n, p) if rows else ((), ())
        if len(forced) > k:
            return
        # subspaces_containing would re-reduce every candidate; skip that.
        candidates = (kernels.subspaces_containing(n, k, p, forced, forced_piv)
                      if forced else kernels.subspaces(n, k, p))
        for basis in candidates:
            bases[v] = basis
            pivots[v] = tuple(_pivots_of(basis))
            yield from recurse(i + 1)

    yield from recurse(0)


def count_points(rep, gamma):
    """|Gr_gamma(M)(F_p)|, from the counting walk restricted to ``gamma``."""
    rep.quiver.check_dim_vector(gamma)
    check_cost(rep.dims)
    return sum(_count_walk(rep, gamma).values())


def has_subrep(rep, gamma):
    """Whether M has a subrepresentation of dimension ``gamma``."""
    rep.quiver.check_dim_vector(gamma)
    return tuple(gamma) in subrep_counts(rep)


def _pivots_of(rref_basis):
    for row in rref_basis:
        for j, x in enumerate(row):
            if x:
                yield j
                break


@lru_cache(maxsize=32)
def _frontier_plan(quiver):
    """Per vertex v, what choosing its subspace does in ``subrep_counts``:
    its images join the spans forced on the later vertices it constrains
    (``pushes``), the deferred arrows out of v are checked (``checks``), it
    is kept if a deferred arrow ends at v (``kept``), and each free vertex
    whose last source is v keeps only a dimension (``settle``).  Made of
    tuples and frozensets, like ``_vertex_plan``, so it cannot change."""
    order, constraining, deferred, free = _vertex_plan(quiver)
    arrows, vertices = quiver.arrows, range(quiver.n)
    pos = {v: i for i, v in enumerate(order)}
    pushes = [{} for _ in vertices]
    for w in vertices:
        for a in constraining[w]:
            pushes[arrows[a][0]].setdefault(w, []).append(a)
    checks = tuple(tuple((a, t) for a in deferred for s, t in [arrows[a]] if s == v)
                   for v in vertices)
    settle = tuple(tuple(w for w in pushes[v] if w in free and pos[v] == max(
        pos[arrows[a][0]] for a in constraining[w])) for v in vertices)
    pushes = tuple(tuple((w, tuple(into)) for w, into in d.items()) for d in pushes)
    kept = frozenset(arrows[a][1] for a in deferred)
    start = tuple(0 if v in free and not constraining[v] else ((), ())
                  for v in vertices)
    positions = tuple(pos[v] for v in vertices)
    return order, free, positions, pushes, checks, kept, settle, start


@lru_cache(maxsize=32)
def subrep_counts(rep):
    """Read-only ``{gamma: |Gr_gamma(M)(F_p)|}`` over every gamma with a
    point, sorted, from one counting walk.  An over-cap representation
    raises first, so it never enters the cache."""
    check_cost(rep.dims)
    pos = _frontier_plan(rep.quiver)[2]
    counts = {tuple(suffix[i] for i in pos): c
              for suffix, c in _count_walk(rep).items()}
    return MappingProxyType(dict(sorted(counts.items())))


def _count_walk(rep, gamma=None):
    """``{gamma in processing order: count}`` from one memoized frontier
    walk (see the module docstring): over every gamma with a point, or,
    given ``gamma``, with k = gamma_v at each vertex v."""
    order, free, _, pushes, checks, kept, settle, start = _frontier_plan(rep.quiver)
    p, dims = rep.p, rep.dims
    mats = tuple(map(rep.matrix_t, range(len(rep.quiver.arrows))))

    def ranks(v, low):
        """The subspace dimensions to try at v, given a forced span of ``low``."""
        if gamma is None:
            return range(low, dims[v] + 1)
        return (gamma[v],) if gamma[v] >= low else ()

    def advance(state, v, basis):
        """The state after choosing ``basis`` at v; None if it breaks a check."""
        pivots = tuple(_pivots_of(basis)) if v in kept else ()
        for a, t in checks[v]:
            if not _maps_into(basis, mats[a],
                              *(state[t] if t != v else (basis, pivots)), p):
                return None
        nxt = list(state)
        nxt[v] = (basis, pivots) if v in kept else None
        if basis:
            for w, into in pushes[v]:
                rows = nxt[w][0]
                for a in into:
                    rows += kernels.matmul(basis, mats[a], p)
                nxt[w] = kernels.rref(rows, dims[w], p)
        for w in settle[v]:
            nxt[w] = len(nxt[w][0])
        return tuple(nxt)

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
            table = {(k,) + suffix: c * kernels.count_subspaces_containing(n, k, p, f)
                     for k in ranks(v, f) for suffix, c in rest.items()}
        else:
            forced, forced_piv = state[v]
            groups = {}
            for k in ranks(v, len(forced)):
                for basis in (kernels.subspaces_containing(n, k, p, forced, forced_piv)
                              if forced else kernels.subspaces(n, k, p)):
                    key = k, advance(state, v, basis)
                    groups[key] = groups.get(key, 0) + 1
            for (k, nxt), mult in groups.items():
                if nxt is not None:
                    for suffix, c in suffixes(i + 1, nxt).items():
                        table[(k,) + suffix] = table.get((k,) + suffix, 0) + mult * c
        memo[i, state] = table
        return table

    table = suffixes(0, start)
    memo.clear()  # the memo can be large; release it now
    return table


def subrep_dim_vectors(rep):
    """All dimension vectors of subrepresentations of one representation."""
    return frozenset(subrep_counts(rep))


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
    """The unique subrepresentation of dimension ``gamma``, or None:
    a count of 1 in the table, then the first enumerated point."""
    rep.quiver.check_dim_vector(gamma)
    if subrep_counts(rep).get(tuple(gamma)) != 1:
        return None
    return next(enumerate_subreps(rep, gamma))
