"""Cluster-seed mutation with principal coefficients.

Tracks the exchange matrix B, the coefficient matrix C (columns are
c-vectors), g-vectors and F-polynomials.  All arithmetic is exact; the
exchange-relation division must be exact and every F-polynomial must
keep constant term 1 and nonnegative coefficients, otherwise
InvariantViolation is raised — these are strong self-checks of the
recurrences.
"""

from dataclasses import dataclass

from .errors import InvariantViolation
from .polynomial import MultiPoly
from .quiver import unit_vector


def b_matrix(quiver):
    """B[i][j] = #arrows(j->i) - #arrows(i->j), for a quiver with no loop
    and no oriented 2-cycle, which B could not record."""
    arrows = set(quiver.arrows)
    if any((t, s) in arrows for s, t in arrows):
        raise ValueError("a cluster quiver has no loop and no oriented 2-cycle")
    n = quiver.n
    b = [[0] * n for _ in range(n)]
    for s, t in quiver.arrows:
        b[t][s] += 1
        b[s][t] -= 1
    return tuple(tuple(row) for row in b)


@dataclass(frozen=True)
class Seed:
    b: tuple       # current exchange matrix, rows x columns
    c: tuple       # coefficient matrix, c-vector of slot k in column k
    g: tuple       # g-vector per slot
    gc: tuple      # dual g-vector per slot (opposite tropical sign choice)
    f: tuple       # F-polynomial per slot

    @property
    def n(self):
        return len(self.b)

    def delta(self, k0):
        """delta-vector of slot k0 (0-based): the negative of its g-vector."""
        return tuple(-x for x in self.g[k0])

    def delta_check(self, k0):
        """Dual weight vector of slot k0: the negative of its dual g-vector."""
        return tuple(-x for x in self.gc[k0])


def initial_seed(b):
    b = tuple(tuple(row) for row in b)
    n = len(b)
    if any(len(row) != n for row in b) or any(
            b[i][j] != -b[j][i] for i in range(n) for j in range(n)):
        raise ValueError("B must be a square skew-symmetric matrix")
    c = tuple(unit_vector(n, i) for i in range(n))
    g = tuple(unit_vector(n, i) for i in range(n))
    f = tuple(MultiPoly.one(n) for _ in range(n))
    return Seed(b, c, g, g, f)


def seed_from_quiver(quiver):
    return initial_seed(b_matrix(quiver))


def _pos(x):
    return x if x > 0 else 0


def mutate(seed, k):
    """Mutate slot k (1-based per the CLI convention)."""
    n = seed.n
    if not 1 <= k <= n:
        raise IndexError(f"mutation index {k} out of range 1..{n}")
    k0 = k - 1
    b, c, g, gc, f = seed.b, seed.c, seed.g, seed.gc, seed.f

    # Matrix mutation of the extended matrix [B; C] at column/row k0.
    def mutate_rows(mat, is_b):
        out = []
        for i, row in enumerate(mat):
            new = []
            for j in range(n):
                if (is_b and i == k0) or j == k0:
                    new.append(-row[j])
                else:
                    new.append(row[j] + _pos(row[k0]) * _pos(b[k0][j])
                               - _pos(-row[k0]) * _pos(-b[k0][j]))
            out.append(tuple(new))
        return tuple(out)

    new_b = mutate_rows(b, True)
    new_c = mutate_rows(c, False)

    # c-vector of slot k0 is sign-coherent; its sign picks the g-recurrence.
    ck = [c[i][k0] for i in range(n)]
    if all(x == 0 for x in ck) or (any(x > 0 for x in ck) and any(x < 0 for x in ck)):
        raise InvariantViolation(f"c-vector {ck} is not sign-coherent")
    eps = 1 if any(x > 0 for x in ck) else -1
    new_gk = tuple(-g[k0][j] + sum(_pos(eps * b[i][k0]) * g[i][j] for i in range(n))
                   for j in range(n))
    new_gck = tuple(-gc[k0][j] + sum(_pos(-eps * b[i][k0]) * gc[i][j] for i in range(n))
                    for j in range(n))

    # Exchange relation for the F-polynomial.
    plus = MultiPoly.monomial(n, tuple(_pos(c[i][k0]) for i in range(n)))
    minus = MultiPoly.monomial(n, tuple(_pos(-c[i][k0]) for i in range(n)))
    for j in range(n):
        if j == k0:
            continue
        if b[j][k0] > 0:
            plus = plus * f[j] ** b[j][k0]
        elif b[j][k0] < 0:
            minus = minus * f[j] ** (-b[j][k0])
    new_fk = (plus + minus).exact_div(f[k0])
    if new_fk.constant_term() != 1:
        raise InvariantViolation("mutated F-polynomial lost its unit constant term")
    if any(coef < 0 for coef in new_fk.terms.values()):
        raise InvariantViolation("mutated F-polynomial has a negative coefficient")

    g_out = tuple(new_gk if i == k0 else g[i] for i in range(n))
    gc_out = tuple(new_gck if i == k0 else gc[i] for i in range(n))
    f_out = tuple(new_fk if i == k0 else f[i] for i in range(n))
    return Seed(new_b, new_c, g_out, gc_out, f_out)


def run_sequence(b, seq):
    """Apply mutations left to right (1-based indices) to the initial seed."""
    seed = initial_seed(b)
    for k in seq:
        seed = mutate(seed, k)
    return seed


def find_by_delta(seed, delta, dual=False):
    """F-polynomial of the unique slot whose (dual) delta-vector matches."""
    delta = tuple(delta)
    key = seed.delta_check if dual else seed.delta
    matches = [i for i in range(seed.n) if key(i) == delta]
    if not matches:
        raise KeyError(f"no cluster variable with delta-vector {delta}")
    if len(matches) > 1:
        raise KeyError(f"delta-vector {delta} is ambiguous (slots {matches})")
    return seed.f[matches[0]]

