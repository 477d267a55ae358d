"""Quivers, dimension vectors, the enumeration cost cap, the Euler form, primality."""

from dataclasses import dataclass, field
from math import isqrt
from operator import add, mul, sub

from .errors import CostCapExceeded

MAX_VERTEX_DIM = 8
MAX_TOTAL_DIM = 16


def vec_add(a, b):
    return tuple(map(add, a, b))


def vec_sub(a, b):
    return tuple(map(sub, a, b))


def vec_dot(a, b):
    return sum(map(mul, a, b))


def is_prime(n):
    """Whether the integer n is prime, by trial division up to isqrt(n)."""
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def unit_vector(n, i):
    return tuple(1 if j == i else 0 for j in range(n))


def pos_neg_parts(delta):
    """Coordinatewise positive and negative parts, delta = plus - minus."""
    return (tuple([x if x > 0 else 0 for x in delta]),
            tuple([-x if x < 0 else 0 for x in delta]))


@dataclass(frozen=True)
class Quiver:
    """Finite directed graph; arrows stored as (source, target) vertex indices."""

    vertices: tuple
    arrows: tuple
    topo_order: tuple = field(init=False, compare=False)

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex ids")
        n = len(self.vertices)
        for s, t in self.arrows:
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError(f"arrow endpoint out of range: {(s, t)}")
        object.__setattr__(self, "topo_order", self._topological_order())

    @property
    def n(self):
        return len(self.vertices)

    @property
    def acyclic(self):
        return self.topo_order is not None

    def _topological_order(self):
        n = len(self.vertices)
        indeg = [0] * n
        out = [[] for _ in range(n)]
        for s, t in self.arrows:
            indeg[t] += 1
            out[s].append(t)
        queue = sorted(i for i in range(n) if indeg[i] == 0)
        order = []
        while queue:
            v = queue.pop(0)
            order.append(v)
            for w in out[v]:
                indeg[w] -= 1
                if indeg[w] == 0:
                    queue.append(w)
            queue.sort()
        return tuple(order) if len(order) == n else None

    def arrows_from(self, v):
        return tuple(i for i, (s, _) in enumerate(self.arrows) if s == v)

    def arrows_into(self, v):
        return tuple(i for i, (_, t) in enumerate(self.arrows) if t == v)

    def check_dim_vector(self, a):
        if len(a) != self.n:
            raise ValueError(f"vector of length {len(a)} for {self.n} vertices")

    def opposite(self):
        return Quiver(self.vertices, tuple((t, s) for s, t in self.arrows))

    @classmethod
    def from_ids(cls, vertex_ids, arrow_ids):
        index = {v: i for i, v in enumerate(vertex_ids)}
        unknown = sorted({v for arrow in arrow_ids for v in arrow} - index.keys())
        if unknown:
            raise ValueError(f"arrows name unknown vertices {unknown}")
        arrows = tuple((index[s], index[t]) for s, t in arrow_ids)
        return cls(tuple(vertex_ids), arrows)

    @classmethod
    def from_json(cls, data):
        return cls.from_ids([str(v) for v in data["vertices"]],
                            [(str(s), str(t)) for s, t in data["arrows"]])

    def to_json(self):
        return {
            "vertices": list(self.vertices),
            "arrows": [[self.vertices[s], self.vertices[t]] for s, t in self.arrows],
        }


def check_cost(dims):
    """Refuse a dimension vector whose subspace lattice is too large to walk."""
    if max(dims, default=0) > MAX_VERTEX_DIM or sum(dims) > MAX_TOTAL_DIM:
        raise CostCapExceeded(
            f"dimension vector {dims} exceeds the fixed enumeration cap "
            f"({MAX_VERTEX_DIM} per vertex, {MAX_TOTAL_DIM} total)")


def euler_form(quiver, a, b):
    """Euler form: sum_i a(i)b(i) - sum_{arrows s->t} a(s)b(t)."""
    quiver.check_dim_vector(a)
    quiver.check_dim_vector(b)
    total = vec_dot(a, b)
    for s, t in quiver.arrows:
        total -= a[s] * b[t]
    return total


def kronecker_quiver(num_arrows):
    return Quiver(("1", "2"), tuple((0, 1) for _ in range(num_arrows)))


def cycle_quiver(n):
    names = tuple(str(i + 1) for i in range(n))
    return Quiver(names, tuple((i, (i + 1) % n) for i in range(n)))
