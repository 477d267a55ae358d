"""Command-line interface.

Subcommands: compute, subdims, mutate, polytope, verify.  All output is
deterministic JSON (sorted keys) for a fixed seed; exit codes are a
stable contract: 0 success, 1 failed verification under --strict,
2 a dimension vector over the fixed enumeration cost cap (checked before
any draw), 3 non-polynomial point counts, 4 no generic certificate (the
sub-dimension sets of explicit matrices differ across primes, a seeded
recipe on a quiver with a cycle has none, or no generic draw), 5 a
broken internal invariant (a bug, not a failed theorem check; the
command line takes no subspaces, so an invalid subrepresentation is one
too), 6 invalid input, an unwritable ``--out`` file or a closed standard
output.  Each error prints one ``error:`` line.
"""

import argparse
import contextlib
import functools
import json
import os
import sys

from .cluster import b_matrix, find_by_delta, run_sequence
from .errors import (CostCapExceeded, GenericityError, InvalidInput,
                     InvalidSubrepresentation, InvariantViolation,
                     NonPolynomialCount)
from .grassmannian import subrep_dim_vectors, sub_dim_vectors
from .polynomial import MultiPoly, counted_primes, f_polynomial
from .polytope import convex_hull
from .rep import RepRecipe
from .quiver import Quiver, is_prime
from .stabilization import (verify_cones, verify_facets, verify_saturation,
                            verify_vertex_theorems)

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
ERROR_EXITS = {CostCapExceeded: 2, NonPolynomialCount: 3, GenericityError: 4,
               InvariantViolation: 5, InvalidSubrepresentation: 5, InvalidInput: 6}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidInput(message)


def _prime(text):
    p = int(text) if text.isdigit() else 0
    if not is_prime(p):
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


def _nonzero_poly(data):
    poly = MultiPoly.from_json(data)
    if not poly:
        raise ValueError("the zero polynomial has no Newton polytope")
    return poly


def _recipe_from_args(args):
    """The recipe that the arguments name; one over the cost cap cannot
    be built, so nothing is drawn for it."""
    if args.rep:
        if args.quiver or args.dims or args.seed is not None:
            raise InvalidInput("--rep takes no --quiver, --dims or --seed")
        recipe = _load_json(args.rep, RepRecipe.from_json)
    elif args.quiver and args.dims:
        quiver = _load_json(args.quiver, Quiver.from_json)
        with _reading("dimension vector"):
            recipe = RepRecipe(quiver, _int_list(args.dims), seed=args.seed or 0)
    else:
        raise InvalidInput("either --rep or both --quiver and --dims are required")
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
    with _reading("cluster quiver"):
        b = b_matrix(quiver)
    seed = run_sequence(b, seq)
    report = {"command": "mutate", "seq": list(seq)}
    if args.delta:
        delta = _int_list(args.delta)
        try:
            poly = find_by_delta(seed, delta, dual=args.dual)
        except KeyError as exc:
            raise InvalidInput(exc.args[0]) from None
        report.update(delta=list(delta), fpoly=poly.to_json(), pretty=str(poly))
    else:
        report["slots"] = [{"g": [-x for x in delta], "fpoly": f.to_json(), "pretty": str(f)}
                           for delta, f in zip(seed.deltas(), seed.f)]
    return report


def cmd_polytope(args):
    if args.fpoly:
        if args.rep or args.quiver or args.dims or args.seed is not None:
            raise InvalidInput("--fpoly takes no --rep, --quiver, --dims or --seed")
        points = _load_json(args.fpoly, _nonzero_poly).support()
        source = "fpoly"
    else:
        points, source = sub_dim_vectors(_recipe_from_args(args)), "subdims"
    return {"command": "polytope", "source": source, **convex_hull(points).to_json()}


def cmd_verify(args):
    if args.fpoly and args.what != "facets":
        raise InvalidInput(f"--fpoly is read only by --what facets, not {args.what}")
    recipe = _recipe_from_args(args)
    fpoly = _load_json(args.fpoly, _nonzero_poly) if args.fpoly else None
    if fpoly is not None and fpoly.nvars != recipe.quiver.n:
        raise InvalidInput(f"invalid {args.fpoly}: {fpoly.nvars} variables "
                           f"for a quiver with {recipe.quiver.n} vertices")
    if args.what == "vertices":
        result = verify_vertex_theorems(recipe)
    elif args.what == "saturation":
        result = verify_saturation(recipe)
    elif args.what == "facets":
        result = verify_facets(recipe, fpoly)
    elif args.what == "cones":
        result = verify_cones(recipe)
    return {
        "command": "verify",
        "instance": {"dims": list(recipe.dims), "seed": recipe.seed},
        "check": result["check"],
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

    def command(name, func, help, recipe=True):
        p = sub.add_parser(name, help=help)
        p.add_argument("--quiver", help="quiver JSON file")
        p.add_argument("--out", help="write the JSON report to this file")
        if recipe:
            p.add_argument("--rep", help="representation recipe JSON file")
            p.add_argument("--dims", help="dimension vector, e.g. 2,3")
            p.add_argument("--seed", type=int, help="recipe seed (default 0)")
        p.set_defaults(func=func)
        return p

    command("compute", cmd_compute, "F-polynomial by point counting")
    p = command("subdims", cmd_subdims, "sub-dimension vectors at one prime")
    p.add_argument("--prime", type=_prime, default=3)
    p = command("mutate", cmd_mutate, "cluster mutation pipeline", recipe=False)
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
