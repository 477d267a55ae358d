"""Cluster-seed mutation with principal coefficients.

A seed is its coefficient matrix C (columns are c-vectors) and its
F-polynomials, beside the initial matrix B0.  Mutation checks that each
c-vector is sign-coherent, and for a skew-symmetric B0 sign coherence
gives tropical duality (Nakanishi-Zelevinsky): the exchange matrix is
B = C^T B0 C and the dual g-vectors are the columns of G with
G^T C = I.  So neither is stored; both are read off C, G by one
elimination of C^T per query.  A slot's delta-vector is its dual
delta-vector minus B0 d, where d is the top degree of its F-polynomial
(the dimension vector of its module), so it depends on the cluster
variable, not on the path.  All arithmetic is
exact; an exchange-relation division that is not exact, an F-polynomial
without constant term 1 or with a negative coefficient, or a C that is
not unimodular raises InvariantViolation: strong self-checks of the
recurrences.
"""

from dataclasses import dataclass

from .errors import InvariantViolation
from .intlinalg import solver
from .polynomial import MultiPoly, _exchange
from .quiver import pos_neg_parts, unit_vector, vec_dot


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
    c: tuple       # coefficient matrix, c-vector of slot k in column k
    f: tuple       # F-polynomial per slot
    b0: tuple      # initial exchange matrix

    @property
    def n(self):
        return len(self.c)

    @property
    def b(self):
        """Current exchange matrix C^T B0 C, rows x columns."""
        b0c = [[vec_dot(row, col) for col in zip(*self.c)] for row in self.b0]
        return tuple(tuple(vec_dot(ci, col) for col in zip(*b0c)) for ci in zip(*self.c))

    def deltas(self, dual=False):
        """Every slot's delta-vector, or with ``dual`` its dual one: -g for
        the integer g with C^T g = e_k, all from one elimination of C^T.
        The delta-vector is the dual one minus B0 d, with d the top degree
        of the slot's F-polynomial; it is the negative of the g-vector."""
        n = self.n
        solve = solver(tuple(zip(*self.c)), n)
        gs = [solve(unit_vector(n, k)) for k in range(n)] if solve else [None]
        if None in gs:
            raise InvariantViolation(f"coefficient matrix {self.c} is not unimodular")
        checks = tuple(tuple(-x for x in g) for g in gs)
        if dual:
            return checks
        tops = (max(f.terms, key=sum) for f in self.f)
        return tuple(tuple(x - vec_dot(row, top) for x, row in zip(check, self.b0))
                     for check, top in zip(checks, tops))


def initial_seed(b):
    b = tuple(tuple(row) for row in b)
    n = len(b)
    if any(len(row) != n for row in b) or any(
            b[i][j] != -b[j][i] for i in range(n) for j in range(n)):
        raise ValueError("B must be a square skew-symmetric matrix")
    c = tuple(unit_vector(n, i) for i in range(n))
    return Seed(c, (MultiPoly.one(n),) * n, b)


def seed_from_quiver(quiver):
    return initial_seed(b_matrix(quiver))


def _mutate_rows(rows, up, down, k0):
    """Rows of C mutated at column k0, given the parts up - down of row k0
    of B: c'_ij = c_ij + [c_ik]+ [b_kj]+ - [-c_ik]+ [-b_kj]+ and
    c'_ik = -c_ik.  A row with c_ik = 0 is unchanged."""
    out = []
    for row in rows:
        x = row[k0]
        if x:
            row = [v + x * p for v, p in zip(row, up if x > 0 else down)]
            row[k0] = -x
            row = tuple(row)
        out.append(row)
    return tuple(out)


def mutate(seed, k):
    """Mutate slot k (1-based per the CLI convention)."""
    n = seed.n
    if not 1 <= k <= n:
        raise IndexError(f"mutation index {k} out of range 1..{n}")
    k0 = k - 1
    c, f = seed.c, seed.f
    ck = [row[k0] for row in c]
    if not any(ck) or (max(ck) > 0 and min(ck) < 0):
        raise InvariantViolation(f"c-vector {ck} is not sign-coherent")
    b0ck = [vec_dot(row, ck) for row in seed.b0]
    column = tuple([vec_dot(col, b0ck) for col in zip(*c)])     # column k0 of B

    try:
        new_fk = _exchange(f, column, ck, k0)
    except ArithmeticError as exc:
        raise InvariantViolation(f"exchange relation at slot {k}: {exc}") from None
    if new_fk.constant_term() != 1:
        raise InvariantViolation("mutated F-polynomial lost its unit constant term")
    if any(coef < 0 for coef in new_fk.terms.values()):
        raise InvariantViolation("mutated F-polynomial has a negative coefficient")

    down, up = pos_neg_parts(column)        # row k0 of B is -column
    return Seed(_mutate_rows(c, up, down, k0), f[:k0] + (new_fk,) + f[k0 + 1:], seed.b0)


def run_sequence(b, seq):
    """Apply mutations left to right (1-based indices) to the initial seed."""
    seed = initial_seed(b)
    for k in seq:
        seed = mutate(seed, k)
    return seed


def find_by_delta(seed, delta, dual=False):
    """F-polynomial of the unique slot whose (dual) delta-vector matches."""
    delta = tuple(delta)
    matches = [i for i, d in enumerate(seed.deltas(dual)) if d == delta]
    if not matches:
        raise KeyError(f"no cluster variable with delta-vector {delta}")
    if len(matches) > 1:
        raise KeyError(f"delta-vector {delta} is ambiguous (slots {matches})")
    return seed.f[matches[0]]
