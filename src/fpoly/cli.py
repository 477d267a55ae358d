"""Command-line interface.

Subcommands: compute, subdims, mutate, polytope, verify.  All output is
deterministic JSON (sorted keys) for a fixed seed; exit codes are a
stable contract: 0 success, 1 failed verification under --strict,
2 a dimension vector over the fixed enumeration cost cap (checked before
any draw), 3 non-polynomial point counts, 4 a seeded recipe that cannot
be certified generic, 5 a broken internal invariant (a bug, not a failed
theorem check), 6 invalid input, an unwritable ``--out`` file or a closed
standard output.  Each error prints one ``error:`` line.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys

from .cluster import b_matrix, find_by_delta, run_sequence
from .errors import (CheckFailed, CostCapExceeded, GenericityError,
                     InvalidInput, InvariantViolation, NonPolynomialCount)
from .grassmannian import check_cost, subrep_dim_vectors, sub_dim_vectors
from .polynomial import MultiPoly, counted_primes, f_polynomial
from .polytope import convex_hull
from .rep import RepRecipe
from .quiver import Quiver
from .stabilization import (newton_via_cones, verify_facet_restriction,
                            verify_saturation, verify_vertex_theorems)

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
ERROR_EXITS = {CostCapExceeded: 2, NonPolynomialCount: 3, GenericityError: 4,
               InvariantViolation: 5, InvalidInput: 6}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidInput(message)


def _prime(text):
    p = int(text) if text.isdigit() else 0
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise argparse.ArgumentTypeError(f"{text} is not a prime")
    return p


@contextlib.contextmanager
def _reading(what):
    """Report an unreadable or malformed input as InvalidInput."""
    try:
        yield
    except (LookupError, OSError, TypeError, ValueError) as exc:
        raise InvalidInput(f"invalid {what}: {exc}") from None


def _int_list(text):
    with _reading("integer list"):
        return tuple(int(x) for x in text.split(","))


def _load_json(path, parse):
    with _reading(path), open(path) as fh:
        return parse(json.load(fh))


def _recipe_from_args(args):
    """The recipe that the arguments name, its cost cap checked before
    any representation is drawn."""
    if args.rep:
        recipe = _load_json(args.rep, RepRecipe.from_json)
    elif args.quiver and args.dims:
        quiver = _load_json(args.quiver, Quiver.from_json)
        with _reading("dimension vector"):
            recipe = RepRecipe(quiver, _int_list(args.dims), seed=args.seed)
    else:
        raise InvalidInput("either --rep or both --quiver and --dims are required")
    check_cost(recipe.dims)
    return recipe


def _emit(args, report):
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with _reading(args.out), open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError as exc:
            # Send the interpreter's flush at exit to devnull, not the pipe.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            raise InvalidInput(f"invalid standard output: {exc}") from None


def cmd_compute(args):
    recipe = _recipe_from_args(args)
    poly = f_polynomial(recipe)
    return {
        "command": "compute",
        "dims": list(recipe.dims),
        "seed": recipe.seed,
        "primes": counted_primes(recipe),
        "fpoly": poly.to_json(),
        "pretty": str(poly),
    }


def cmd_subdims(args):
    recipe = _recipe_from_args(args)
    dims = sorted(subrep_dim_vectors(recipe.at_prime(args.prime)))
    return {
        "command": "subdims",
        "prime": args.prime,
        "seed": recipe.seed,
        "subdims": [list(g) for g in dims],
    }


def cmd_mutate(args):
    if not args.quiver:
        raise InvalidInput("mutate requires --quiver")
    quiver = _load_json(args.quiver, Quiver.from_json)
    seq = _int_list(args.seq)
    if not all(1 <= k <= quiver.n for k in seq):
        raise InvalidInput(f"mutation indices must lie in 1..{quiver.n}")
    seed = run_sequence(b_matrix(quiver), seq)
    report = {"command": "mutate", "seq": list(seq)}
    if args.delta:
        delta = _int_list(args.delta)
        try:
            poly = find_by_delta(seed, delta, dual=args.dual)
        except KeyError as exc:
            raise InvalidInput(exc.args[0]) from None
        report.update(delta=list(delta), fpoly=poly.to_json(), pretty=str(poly))
    else:
        report["slots"] = [{"g": list(seed.g[i]),
                            "fpoly": seed.f[i].to_json(),
                            "pretty": str(seed.f[i])}
                           for i in range(seed.n)]
    return report


def cmd_polytope(args):
    if args.fpoly:
        points = _load_json(args.fpoly, MultiPoly.from_json).support()
        source = "fpoly"
    else:
        points, source = sub_dim_vectors(_recipe_from_args(args)), "subdims"
    return {"command": "polytope", "source": source, **convex_hull(points).to_json()}


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
    fpoly = _load_json(args.fpoly, MultiPoly.from_json) if args.fpoly else None
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
    return {
        "command": "verify",
        "instance": {"dims": list(recipe.dims), "seed": recipe.seed},
        "check": result.get("check", args.what),
        "pass": result["pass"],
        "report": result,
    }


@functools.cache
def build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and each call returns a fresh namespace."""
    parser = _Parser(
        prog="fpoly",
        description="F-polynomials and Newton polytopes of quiver representations")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--rep", help="representation recipe JSON file")
        p.add_argument("--quiver", help="quiver JSON file")
        p.add_argument("--dims", help="dimension vector, e.g. 2,3")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", help="write the JSON report to this file")
        p.set_defaults(func=func)
        return p

    command("compute", cmd_compute, "F-polynomial by point counting")
    p = command("subdims", cmd_subdims, "sub-dimension vectors at one prime")
    p.add_argument("--prime", type=_prime, default=3)
    p = command("mutate", cmd_mutate, "cluster mutation pipeline")
    p.add_argument("--seq", required=True, help="mutation sequence, e.g. 3,4,1,2")
    p.add_argument("--delta", help="select the slot with this delta-vector")
    p.add_argument("--dual", action="store_true",
                   help="match the dual delta-vector instead")
    p = command("polytope", cmd_polytope, "Newton polytope report")
    p.add_argument("--fpoly", help="F-polynomial JSON file")
    p = command("verify", cmd_verify, "structural theorem verification")
    p.add_argument("--what", required=True,
                   choices=("vertices", "saturation", "facets", "cones"))
    p.add_argument("--fpoly", help="precomputed F-polynomial JSON file")
    p.add_argument("--strict", action="store_true",
                   help="exit 1 when any check fails")
    return parser


def main(argv=None):
    try:
        args = build_parser().parse_args(argv)
        report = args.func(args)
        _emit(args, report)
    except tuple(ERROR_EXITS) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return ERROR_EXITS[type(exc)]
    failed = getattr(args, "strict", False) and not report["pass"]
    return EXIT_FAILED_CHECK if failed else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
