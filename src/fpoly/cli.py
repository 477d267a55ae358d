"""Command-line interface.

Subcommands: compute, subdims, mutate, polytope, verify.  All output is
deterministic JSON (sorted keys) for a fixed seed; exit codes are a
stable contract: 0 success, 1 failed verification under --strict,
2 enumeration cost cap exceeded, 3 non-polynomial point counts,
4 a seeded recipe that cannot be certified generic, 5 a broken internal
invariant (a bug, not a failed theorem check).
"""

import argparse
import json
import sys

from .cluster import b_matrix, find_by_delta, run_sequence
from .errors import (CheckFailed, CostCapExceeded, GenericityError,
                     InvariantViolation, NonPolynomialCount)
from .grassmannian import subrep_dim_vectors, sub_dim_vectors
from .polynomial import MultiPoly, f_polynomial, first_primes
from .polytope import convex_hull
from .rep import RepRecipe
from .quiver import Quiver
from .stabilization import (newton_via_cones, verify_facet_restriction,
                            verify_saturation, verify_vertex_theorems)

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
ERROR_EXITS = {CostCapExceeded: 2, NonPolynomialCount: 3, GenericityError: 4,
               InvariantViolation: 5}


def _int_list(text):
    return tuple(int(x) for x in text.split(","))


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _recipe_from_args(args):
    if args.rep:
        return RepRecipe.from_json(_load_json(args.rep))
    if args.quiver and args.dims:
        quiver = Quiver.from_json(_load_json(args.quiver))
        return RepRecipe(quiver, _int_list(args.dims), seed=args.seed)
    raise SystemExit("either --rep or both --quiver and --dims are required")


def _emit(args, report):
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def cmd_compute(args):
    recipe = _recipe_from_args(args)
    poly = f_polynomial(recipe)
    degree = max(sum(g * (d - g) for g, d in zip(exp, recipe.dims))
                 for exp in poly.terms)
    report = {
        "command": "compute",
        "dims": list(recipe.dims),
        "seed": recipe.seed,
        "primes": first_primes(degree + 2),
        "fpoly": poly.to_json(),
        "pretty": str(poly),
    }
    _emit(args, report)
    return EXIT_OK


def cmd_subdims(args):
    recipe = _recipe_from_args(args)
    dims = sorted(subrep_dim_vectors(recipe.at_prime(args.prime)))
    report = {
        "command": "subdims",
        "prime": args.prime,
        "seed": recipe.seed,
        "subdims": [list(g) for g in dims],
    }
    _emit(args, report)
    return EXIT_OK


def cmd_mutate(args):
    quiver = Quiver.from_json(_load_json(args.quiver))
    seed = run_sequence(b_matrix(quiver), _int_list(args.seq))
    if args.delta:
        poly = find_by_delta(seed, _int_list(args.delta), dual=args.dual)
        report = {
            "command": "mutate",
            "seq": list(_int_list(args.seq)),
            "delta": list(_int_list(args.delta)),
            "fpoly": poly.to_json(),
            "pretty": str(poly),
        }
    else:
        report = {
            "command": "mutate",
            "seq": list(_int_list(args.seq)),
            "slots": [{"g": list(seed.g[i]),
                       "fpoly": seed.f[i].to_json(),
                       "pretty": str(seed.f[i])}
                      for i in range(seed.n)],
        }
    _emit(args, report)
    return EXIT_OK


def cmd_polytope(args):
    if args.fpoly:
        poly = MultiPoly.from_json(_load_json(args.fpoly))
        hull = convex_hull(poly.support())
        source = "fpoly"
    else:
        recipe = _recipe_from_args(args)
        hull = convex_hull(sub_dim_vectors(recipe))
        source = "subdims"
    report = {"command": "polytope", "source": source}
    report.update(hull.to_json())
    _emit(args, report)
    return EXIT_OK


def _verify_facets(recipe, fpoly):
    if fpoly is None:
        fpoly = f_polynomial(recipe)
    hull = convex_hull(fpoly.support())
    results = [verify_facet_restriction(recipe, delta, fpoly=fpoly)
               for delta, _ in hull.facets]
    return {"check": "facets",
            "pass": all(r["pass"] for r in results),
            "witnesses": [r for r in results if not r["pass"]],
            "facets": results}


def cmd_verify(args):
    recipe = _recipe_from_args(args)
    fpoly = (MultiPoly.from_json(_load_json(args.fpoly))
             if args.fpoly else None)
    if args.what == "vertices":
        result = verify_vertex_theorems(recipe)
    elif args.what == "saturation":
        result = verify_saturation(recipe)
    elif args.what == "facets":
        result = _verify_facets(recipe, fpoly)
    elif args.what == "cones":
        try:
            hull = newton_via_cones(recipe)
            result = {"check": "cones", "pass": True,
                      "witnesses": [], "polytope": hull.to_json()}
        except CheckFailed as exc:
            result = {"check": "cones", "pass": False,
                      "witnesses": [str(exc)]}
    report = {
        "command": "verify",
        "instance": {"dims": list(recipe.dims), "seed": recipe.seed},
        "check": result.get("check", args.what),
        "pass": result["pass"],
        "report": result,
    }
    _emit(args, report)
    if args.strict and not result["pass"]:
        return EXIT_FAILED_CHECK
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="fpoly",
        description="F-polynomials and Newton polytopes of quiver representations")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--rep", help="representation recipe JSON file")
        p.add_argument("--quiver", help="quiver JSON file")
        p.add_argument("--dims", help="dimension vector, e.g. 2,3")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write the JSON report to this file")

    p = sub.add_parser("compute", help="F-polynomial by point counting")
    common(p)
    p.set_defaults(func=cmd_compute)

    p = sub.add_parser("subdims", help="sub-dimension vectors at one prime")
    common(p)
    p.add_argument("--prime", type=int, default=3)
    p.set_defaults(func=cmd_subdims)

    p = sub.add_parser("mutate", help="cluster mutation pipeline")
    common(p)
    p.add_argument("--seq", required=True, help="mutation sequence, e.g. 3,4,1,2")
    p.add_argument("--delta", help="select the slot with this delta-vector")
    p.add_argument("--dual", action="store_true",
                   help="match the dual delta-vector instead")
    p.set_defaults(func=cmd_mutate)

    p = sub.add_parser("polytope", help="Newton polytope report")
    common(p)
    p.add_argument("--fpoly", help="F-polynomial JSON file")
    p.set_defaults(func=cmd_polytope)

    p = sub.add_parser("verify", help="structural theorem verification")
    common(p)
    p.add_argument("--what", required=True,
                   choices=("vertices", "saturation", "facets", "cones"))
    p.add_argument("--fpoly", help="precomputed F-polynomial JSON file")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any check fails")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR_EXITS[type(exc)]


if __name__ == "__main__":
    sys.exit(main())
