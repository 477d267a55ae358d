"""The benchmark workloads: seeded input generation, operations, checks.

Each workload's ``setup(fp, seed, workdir, rounds)`` builds its inputs from
the workload seed and returns a list of rounds, each a list of ``Op``.
A round holds every kind of operation of the workload once, on fresh recipe
seeds or relabelled quivers; only the golden examples and the negative
controls are the same in every round.  ``fp`` is the imported program (see
``run.load_fpoly``); operations look every program function up through it
at call time, so tracing can wrap them.
"""

import io
import itertools
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Any, Callable, Optional

from oracles import (CRIT4_F, CRIT4_FACETS, CYCLE4_17_TERMS, CYCLE4_ARROWS,
                     CYCLE4_FACETS, face_terms, facet_problem, hull_problem)

# Acyclic quivers whose cluster variables give the rigid recipes.
QUIVERS = {
    "K2": (("1", "2"), ((0, 1), (0, 1))),
    "A3": (("1", "2", "3"), ((0, 1), (2, 1))),
    "Q231": (("1", "2", "3"), ((0, 1), (0, 1), (1, 2))),      # 1=>2->3
    "D4": (("1", "2", "3", "4"), ((0, 1), (2, 1), (3, 1))),
    "A4": (("1", "2", "3", "4"), ((0, 1), (1, 2), (3, 2))),
}

# Cluster variables are found by a breadth-first mutation walk that never
# takes a step whose new F-polynomial fails a size test.  The walk visits
# every seed reachable under that test, so the variables it finds and the
# set-up work do not depend on the seed; the seed orders the branches and
# so picks which sequence reaches each variable first.  A top with an entry
# above TOP_CAP is too large: every band below stays within it.
TOP_CAP = 3


def counting_band(top):
    # Counts of 10-300 ms.  Tops of total dimension 3 take 3-5 ms and mostly
    # time the per-call overhead.  1=>2->3 (2,3,3) (0.3-1.2 s), K2 (3,4)
    # (0.3 s), 1=>2->3 (3,4,0) (1.8 s) and (2,4,1) (3 s) and K2 (4,3)
    # (> 15 s) would each dominate a round.
    return 4 <= sum(top) <= 7 and max(top) <= 3


def facets_band(top):
    # Verifications of 0.1-0.5 s.  1=>2->3 (3,2,2) and (2,3,3) take 3-4 s
    # each and would leave too few operations per run for a tail percentile.
    return 4 <= sum(top) <= 6 and max(top) <= 3


# Criterion-4 recipe: 1=>2->3, dims (2,4,1).  Only its light facet fits a
# run; the other four take 20-40 s each on the reference machine.
CRIT4_DIMS = (2, 4, 1)
CRIT4_LIGHT_FACET = (0, 1, -1)

# Hulls of 4-cycle F-polynomials with 8 to 20 terms take 2-220 ms.  Some of
# 27 terms take 0.9 s, and the acceptance examples with 47 and 55 terms
# take 9 and 18 s, too long for a run.
HULL_TERMS = (8, 20)

# One rigid instance per (vertex count, total dimension) per round.  Totals
# of 5 and 6, which criteria 7/8 also draw, have a heavy tail (single
# instances of several seconds) that no run is long enough to average out.
RIGID_STRATA = tuple((n, total) for n in (2, 3, 4) for total in (1, 2, 3, 4))
K3 = (("1", "2"), ((0, 1), (0, 1), (0, 1)))


@dataclass
class Op:
    label: str
    input: Any                           # JSON-able, logged on failure
    call: Callable[[Any], Any]           # fp -> JSON-able output
    check: Callable[[Any], Optional[str]]  # output -> None or failure reason


def terms_of(pairs):
    """{exponent tuple: coefficient} from (exponent, coefficient) pairs."""
    return {tuple(e): c for e, c in pairs}


def terms_from_json(data):
    return {tuple(t["exp"]): int(t["coef"]) for t in data}


def terms_json(terms):
    return sorted([list(e), c] for e, c in terms.items())


def run_cli(fp, argv):
    """fpoly.cli.main in-process, with its report captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = fp.cli.main(argv)
        except SystemExit as exc:
            code = f"SystemExit({exc.code})"
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def cli_report(out, expect_exit=0):
    if out["exit"] != expect_exit:
        return None, f"exit code {out['exit']} (expected {expect_exit}): {out['stderr'].strip()}"
    return json.loads(out["stdout"]), None


def make_quiver(fp, name_or_spec):
    vertices, arrows = QUIVERS.get(name_or_spec, name_or_spec)
    return fp.quiver.Quiver(vertices, arrows)


class RecipeArgs:
    """CLI arguments naming a seeded recipe: one quiver file per distinct
    quiver, dimension vector and recipe seed on the command line.  (A
    recipe file per operation would make file writes most of set-up.)"""

    def __init__(self, workdir):
        self.workdir = workdir
        self.paths = {}

    def __call__(self, quiver, dims, seed):
        key = (quiver.vertices, quiver.arrows)
        if key not in self.paths:
            path = self.workdir / f"quiver{len(self.paths)}.json"
            path.write_text(json.dumps(quiver.to_json()))
            self.paths[key] = str(path)
        return ["--quiver", self.paths[key], "--dims", ",".join(map(str, dims)),
                "--seed", str(seed)]


def top_of(f):
    return max(f.terms, key=sum)


def explore(fp, quiver, rng, small):
    """{F terms: (first mutation sequence, F)} for every cluster variable
    reachable from the initial seed by steps whose new F-polynomial is
    ``small``."""
    start = fp.cluster.seed_from_quiver(quiver)
    seen = {frozenset(frozenset(f.terms.items()) for f in start.f)}
    frontier = [(start, None, ())]
    found = {}
    while frontier:
        later = []
        for seed, prev, seq in frontier:
            for k in rng.sample(range(1, quiver.n + 1), quiver.n):
                if k == prev:
                    continue
                nxt = fp.cluster.mutate(seed, k)
                f = nxt.f[k - 1]
                state = frozenset(frozenset(g.terms.items()) for g in nxt.f)
                if not small(f) or state in seen:
                    continue
                seen.add(state)
                found.setdefault(frozenset(f.terms.items()), (seq + (k,), f))
                later.append((nxt, k, seq + (k,)))
        frontier = later
    return found


def cluster_tops(fp, rng, band):
    """(quiver name, top, F terms) of the cluster variables whose top is in
    ``band``, on every quiver of QUIVERS."""
    found = []
    for name in QUIVERS:
        variables = explore(fp, make_quiver(fp, name), rng,
                            lambda f: max(top_of(f)) <= TOP_CAP).values()
        found += sorted(((name, top_of(f), dict(f.terms)) for _, f in variables
                         if band(top_of(f))), key=lambda entry: entry[1])
    return found


# -- facets ------------------------------------------------------------------

def check_facets(fterms, out):
    report, problem = cli_report(out)
    if problem:
        return problem
    facets = report["report"]["facets"]
    if not report["pass"] or report["report"]["witnesses"]:
        return "verification failed"
    if not facets:
        return "no facets reported"
    for facet in facets:
        delta = tuple(facet["delta"])
        problem = facet_problem(fterms, delta)
        if problem:
            return problem
        if not facet["pass"]:
            return f"facet {delta} failed"
        if terms_from_json(facet["restriction"]) != face_terms(fterms, delta):
            return f"restriction at {delta} differs from the mutation F-polynomial"
    return None


def crit4_facet(fp, recipe_seed):
    recipe = fp.rep.RepRecipe(make_quiver(fp, "Q231"), CRIT4_DIMS, seed=recipe_seed)
    fpoly = fp.polynomial.MultiPoly(3, CRIT4_F)
    return fp.stabilization.verify_facet_restriction(recipe, CRIT4_LIGHT_FACET,
                                                     fpoly=fpoly)


def check_crit4(out):
    if not out["pass"]:
        return "graded reconstruction failed"
    if terms_from_json(out["restriction"]) != CRIT4_FACETS[CRIT4_LIGHT_FACET].terms:
        return "restriction differs from the golden table"
    return None


def setup_facets(fp, seed, workdir, rounds):
    rng = random.Random(f"facets:{seed}")
    tops = cluster_tops(fp, rng, facets_band)
    quivers = {name: make_quiver(fp, name) for name in QUIVERS}
    recipe_args = RecipeArgs(workdir)
    out = []
    for r in range(rounds):
        ops = []
        for name, top, fterms in tops:
            rs = rng.randrange(1 << 30)
            argv = (["verify", "--what", "facets", "--strict"]
                    + recipe_args(quivers[name], top, rs))
            ops.append(Op(f"verify-facets {name}{list(top)}-s{rs}", {"argv": argv},
                          lambda fp, argv=argv: run_cli(fp, argv),
                          lambda o, f=fterms: check_facets(f, o)))
        rs = rng.randrange(1 << 30)
        ops.append(Op(f"crit4-facet {list(CRIT4_LIGHT_FACET)}-s{rs}",
                      {"dims": CRIT4_DIMS, "seed": rs, "delta": CRIT4_LIGHT_FACET},
                      lambda fp, rs=rs: crit4_facet(fp, rs), check_crit4))
        out.append(ops)
    return out


# -- counting ----------------------------------------------------------------

def setup_counting(fp, seed, workdir, rounds):
    rng = random.Random(f"counting:{seed}")
    tops = cluster_tops(fp, rng, counting_band)
    quivers = {name: make_quiver(fp, name) for name in QUIVERS}
    out = []
    for r in range(rounds):
        ops = []
        for name, top, fterms in tops:
            rs = rng.randrange(1 << 30)

            def call(fp, q=quivers[name], top=top, rs=rs):
                return terms_json(fp.polynomial.f_polynomial(
                    fp.rep.RepRecipe(q, top, seed=rs)).terms)

            def check(o, expect=terms_json(fterms)):
                return None if o == expect else "differs from the mutation F-polynomial"

            ops.append(Op(f"f_polynomial {name}{list(top)}-s{rs}",
                          {"quiver": name, "dims": top, "seed": rs}, call, check))
        out.append(ops)
    return out


# -- hull --------------------------------------------------------------------

def hull_report(fp, f):
    hull = fp.polytope.convex_hull(f.support())
    return {"terms": terms_json(f.terms),
            "vertices": [list(v) for v in hull.vertices],
            "facets": [[list(n), h] for n, h in hull.facets],
            "equations": [[list(n), h] for n, h in hull.equations],
            "restrictions": [terms_json(fp.polynomial.restrict_to_face(f, n).terms)
                             for n, _ in hull.facets]}


def hull_catalog(fp, quiver, rng):
    """(sequence, F terms) of every F-polynomial with HULL_TERMS terms that
    mutation reaches on the 4-cycle without passing one of more than
    HULL_TERMS[1] terms."""
    found = explore(fp, quiver, rng, lambda f: len(f) <= HULL_TERMS[1]).values()
    return sorted(((seq, dict(f.terms)) for seq, f in found if len(f) >= HULL_TERMS[0]),
                  key=lambda entry: entry[0])


def hull_op(fp, quiver, seq):
    seed = fp.cluster.run_sequence(fp.cluster.b_matrix(quiver), seq)
    return hull_report(fp, seed.f[seq[-1] - 1])


def check_hull_report(rep):
    terms = terms_of(rep["terms"])
    if terms.get((0,) * len(next(iter(terms)))) != 1 or min(terms.values()) < 1:
        return "F-polynomial lacks unit constant term or positive coefficients"
    facets = [(tuple(n), h) for n, h in rep["facets"]]
    problem = hull_problem(terms, [tuple(v) for v in rep["vertices"]], facets,
                           [(tuple(n), h) for n, h in rep["equations"]])
    if problem:
        return problem
    for (normal, _), restriction in zip(facets, rep["restrictions"]):
        if terms_of(restriction) != face_terms(terms, normal):
            return f"restriction at {normal} differs"
    return None


def check_hull(expect, rep):
    if terms_of(rep["terms"]) != expect:
        return "F-polynomial differs from the one found in set-up"
    return check_hull_report(rep)


def hull_golden(fp, quiver):
    seed = fp.cluster.run_sequence(fp.cluster.b_matrix(quiver), (3, 4, 1, 2))
    return hull_report(fp, fp.cluster.find_by_delta(seed, (-1, 1, 1, 0)))


def check_hull_golden(rep):
    terms = terms_of(rep["terms"])
    if terms != CYCLE4_17_TERMS:
        return "F-polynomial differs from the 17-term golden polynomial"
    problem = check_hull_report(rep)
    if problem:
        return problem
    facets = {tuple(n): r for (n, _), r in zip(rep["facets"], rep["restrictions"])}
    if set(facets) != set(CYCLE4_FACETS):
        return f"facet normals {sorted(facets)} differ from the golden table"
    for normal, (dim_t, dim_tc, printed) in CYCLE4_FACETS.items():
        restriction = terms_of(facets[normal])
        if restriction != printed.terms:
            return f"restriction at {normal} differs from the golden table"
        lo = tuple(min(e[i] for e in restriction) for i in range(4))
        hi = tuple(max(e[i] for e in restriction) for i in range(4))
        if (lo, hi) != (dim_t, dim_tc):
            return f"support extremes at {normal}: {lo}, {hi}"
    return None


def setup_hull(fp, seed, workdir, rounds):
    rng = random.Random(f"hull:{seed}")
    cycle4 = make_quiver(fp, (("1", "2", "3", "4"), CYCLE4_ARROWS))
    catalog = hull_catalog(fp, cycle4, rng)
    # Round r relabels the vertices by the r-th of the 24 permutations, in
    # seeded order: the same hulls up to coordinate order, on new inputs.
    perms = list(itertools.permutations(range(4)))
    rng.shuffle(perms)
    out = []
    for r in range(rounds):
        perm = perms[r % len(perms)]
        quiver = make_quiver(fp, (("1", "2", "3", "4"),
                                  tuple((perm[s], perm[t]) for s, t in CYCLE4_ARROWS)))
        ops = [Op("hull golden (3,4,1,2)", {"seq": [3, 4, 1, 2]},
                  lambda fp: hull_golden(fp, cycle4), check_hull_golden)]
        for seq, terms in catalog:
            seq = tuple(perm[k - 1] + 1 for k in seq)
            expect = {tuple(e[perm.index(j)] for j in range(4)): c
                      for e, c in terms.items()}
            ops.append(Op(f"hull {len(terms)} terms seq {list(seq)} perm {list(perm)}",
                          {"seq": seq, "perm": perm},
                          lambda fp, q=quiver, seq=seq: hull_op(fp, q, seq),
                          lambda o, x=expect: check_hull(x, o)))
        out.append(ops)
    return out


# -- rigid-scan --------------------------------------------------------------

def sample_rigid(fp, rng, n, total):
    """A random small rigid instance drawn as acceptance criteria 7/8 draw
    them, conditioned on its vertex count and total dimension."""
    while True:
        arrows = []
        for s in range(n):
            for t in range(s + 1, n):
                arrows += [(s, t)] * rng.randrange(3)
        if not arrows:
            continue
        alpha = tuple(rng.randrange(4) for _ in range(n))
        if sum(alpha) != total:
            continue
        quiver = fp.quiver.Quiver(tuple(str(i + 1) for i in range(n)), tuple(arrows))
        sample = fp.rep.random_representation(quiver, alpha, 101, rng)
        if fp.rep.ext_dim_hereditary(sample, sample) == 0:
            return quiver, alpha


def check_verify(out, seen, what):
    report, problem = cli_report(out)
    if problem:
        return problem
    if not report["pass"]:
        return f"{what} check failed: {report['report']}"
    body = report["report"]
    if what == "vertices":
        if not body["rigid"]:
            return "rigid instance reported as not rigid"
        seen["vertices"] = body["vertices"]
    if what == "cones" and "vertices" in seen:
        if body["polytope"]["vertices"] != seen["vertices"]:
            return "cone polytope vertices differ from the vertex check's"
    return None


def check_saturation_control(out):
    report, problem = cli_report(out, expect_exit=1)
    if problem:
        return problem
    if report["pass"] or report["report"]["sublattice_witnesses"] != [[2, 3]]:
        return f"expected witness [[2, 3]], got {report['report']}"
    return None


def check_nonrigid_control(out):
    if out["exit"] != 3 or out["stdout"]:
        return f"expected exit 3 and no report, got exit {out['exit']}"
    return None


def setup_rigid_scan(fp, seed, workdir, rounds):
    rng = random.Random(f"rigid-scan:{seed}")
    k3 = make_quiver(fp, K3)
    recipe_args = RecipeArgs(workdir)
    # The controls keep recipe seed 0, as in the acceptance suite: for the
    # non-rigid K3 (2,3) the outcome of a seeded recipe depends on its seed.
    sat_control = recipe_args(k3, (3, 4), 0)
    nonrigid_control = recipe_args(k3, (2, 3), 0)
    out = []
    for r in range(rounds):
        ops = []
        for i, (n, total) in enumerate(RIGID_STRATA):
            quiver, alpha = sample_rigid(fp, rng, n, total)
            rs = rng.randrange(1 << 30)
            label = f"r{r}i{i}-{list(alpha)}-s{rs}"
            args = recipe_args(quiver, alpha, rs)
            seen = {}
            for what in ("saturation", "vertices", "cones"):
                argv = ["verify", "--what", what, "--strict"] + args
                ops.append(Op(f"verify-{what} {label}",
                              {"argv": argv, "arrows": quiver.arrows, "dims": alpha},
                              lambda fp, argv=argv: run_cli(fp, argv),
                              lambda o, s=seen, w=what: check_verify(o, s, w)))
        argv = ["verify", "--what", "saturation", "--strict"] + sat_control
        ops.append(Op("control K3 (3,4) saturation", {"argv": argv},
                      lambda fp, argv=argv: run_cli(fp, argv), check_saturation_control))
        argv = ["compute"] + nonrigid_control
        ops.append(Op("control K3 (2,3) compute", {"argv": argv},
                      lambda fp, argv=argv: run_cli(fp, argv), check_nonrigid_control))
        out.append(ops)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    round_cap: int       # rounds prepared in set-up; a run ends when they do
    trace_rounds: int    # fixed round count of a traced run


# Round caps allow at least 2.5 times the rounds a 35 s run needs today.
# BENCHMARK.json leaves out counting: its wall_s spread over ten seeds
# reached 0.26 on the shared reference machine, above the largest bound.
WORKLOADS = {w.name: w for w in (
    Workload("facets", setup_facets, 60, 1),
    Workload("counting", setup_counting, 200, 3),
    Workload("hull", setup_hull, 100, 3),
    Workload("rigid-scan", setup_rigid_scan, 120, 3),
)}
