#!/usr/bin/env python3
"""Layered end-to-end benchmark of fpoly.

Run from the repository root:

    python3 perfbench/run.py --workload facets --seed 1 --seconds 35 --trace 0

Workloads: facets, counting, hull, rigid-scan (see perfbench/README.md).
One caller runs the operations of a workload back to back in this process
(a closed loop with one client), round after round, until ``--seconds``
have passed and at least MIN_ROUNDS rounds and MIN_OPS operations are
done.  Every output is checked; a wrong output, an unexpected exception or
a wrong exit code counts as a failed operation and the run goes on.

With ``--trace 0`` the last stdout line reports the end-to-end metrics.
With ``--trace 1`` a fixed number of rounds runs once untraced and once
traced, both from a fresh import of fpoly; the outputs of the two passes
must agree, and the last line reports the per-layer metrics.  Details of
each run go to perfbench/results/BENCH_<workload>_seed<seed>_trace<t>.json.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
RESULTS = HERE / "results"

SETUP_REPEATS = 3      # setup_s is the median of this many cold set-ups
MIN_ROUNDS = 3
MIN_OPS = 30
TAIL_BEYOND = 10       # op_tail_s: highest percentile with this many samples beyond
MODULES = ("cli", "cluster", "errors", "grassmannian", "kernels", "polynomial",
           "polytope", "quiver", "rep", "stabilization")


def load_fpoly():
    """Import fpoly from this checkout's src/ in a cold state.

    Earlier imports are dropped first, so each call re-executes every module
    and starts with empty module-level caches.
    """
    for name in [m for m in sys.modules if m == "fpoly" or m.startswith("fpoly.")]:
        del sys.modules[name]
    for name in MODULES:
        importlib.import_module(f"fpoly.{name}")
    fp = types.SimpleNamespace(**{m: sys.modules[f"fpoly.{m}"] for m in MODULES})
    if Path(fp.kernels.__file__).resolve().parent != SRC / "fpoly":
        raise ImportError(f"fpoly imported from {fp.kernels.__file__}, not {SRC}")
    return fp


def prepare(fp, workload, seed, workdir, rounds):
    """The workload's set-up: inputs from the seed, recipe files in workdir."""
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    return workload.setup(fp, seed, workdir, rounds)


def digest(output):
    text = json.dumps(output, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def run_rounds(fp, rounds, seconds=None, fixed_rounds=None, tracer=None):
    """Run rounds back to back; return per-op records and round wall times."""
    clock = time.perf_counter
    records, walls = [], []
    start = clock()
    for r, ops in enumerate(rounds):
        if fixed_rounds is not None:
            if r >= fixed_rounds:
                break
        elif (clock() - start >= seconds and r >= MIN_ROUNDS
              and len(records) >= MIN_OPS):
            break
        t_round = clock()
        for op in ops:
            if tracer:
                tracer.begin_op(len(records), op.label)
            t0 = clock()
            try:
                output, problem = op.call(fp), None
            except Exception as exc:  # an unexpected error fails this op only
                output, problem = None, f"unexpected {type(exc).__name__}: {exc}"
            dt = clock() - t0
            if tracer:
                tracer.end_op()
            if problem is None:
                try:
                    problem = op.check(output)
                except Exception as exc:
                    problem = f"output did not parse: {type(exc).__name__}: {exc}"
            records.append({"label": op.label, "input": op.input, "seconds": dt,
                            "digest": digest(output), "problem": problem})
        walls.append(clock() - t_round)
    return records, walls


def tail(times):
    """(value, percentile) of the highest percentile with TAIL_BEYOND
    samples beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise ValueError(f"{n} operations: too few for a tail percentile")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "fpoly").glob("*.py*")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metadata(fp, args):
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "backend": fp.kernels.BACKEND,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "git_commit": git_commit(), "source_sha256": source_digest()}


def log_failures(workload, records):
    for rec in records:
        if rec["problem"]:
            print(f"FAIL {workload}: {rec['label']} input={json.dumps(rec['input'], default=repr)}"
                  f" -- {rec['problem']}", file=sys.stderr)


def end_to_end(args, workload):
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        fp = load_fpoly()
        rounds = prepare(fp, workload, args.seed, workdir, workload.round_cap)
        setup_times.append(time.perf_counter() - t0)
    try:
        records, walls = run_rounds(fp, rounds, seconds=args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    times = [r["seconds"] for r in records]
    failed = sum(1 for r in records if r["problem"])
    tail_value, tail_pct = tail(times)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "op_p50_s": (statistics.median(times), "s"),
        "op_tail_s": (tail_value, "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "success_ratio": ((len(records) - failed) / len(records), "ratio"),
    }
    notes = {
        "wall_s": f"median over {len(walls)} rounds of {len(rounds[0])} operations",
        "op_p50_s": f"median of {len(times)} operations",
        "op_tail_s": f"p{tail_pct:.1f} of {len(times)} operations ({TAIL_BEYOND} beyond)",
        "setup_s": f"median of {SETUP_REPEATS} cold set-ups",
    }
    return fp, records, metrics, notes, {"rounds": len(walls), "round_walls": walls,
                                         "setup_times": setup_times}


def traced(args, workload):
    from tracer import Tracer
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        fp = load_fpoly()
        rounds = prepare(fp, workload, args.seed, workdir, workload.trace_rounds)
        plain, plain_walls = run_rounds(fp, rounds, fixed_rounds=workload.trace_rounds)
        tracer = Tracer()
        fp = load_fpoly()
        tracer.install(fp)
        try:
            rounds = prepare(fp, workload, args.seed, workdir, workload.trace_rounds)
            records, walls = run_rounds(fp, rounds, fixed_rounds=workload.trace_rounds,
                                        tracer=tracer)
        finally:
            tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    mismatched = [t["label"] for p, t in zip(plain, records) if p["digest"] != t["digest"]]
    if len(plain) != len(records):
        mismatched.append(f"{len(plain)} untraced vs {len(records)} traced operations")
    for label in mismatched:
        print(f"FAIL {args.workload}: traced output differs from untraced: {label}",
              file=sys.stderr)
    layer = tracer.metrics()
    overhead = sum(walls) / sum(plain_walls)
    metrics = {k: (v, unit_of(k)) for k, v in layer.items()}
    metrics["trace.overhead_factor"] = (overhead, "x")
    notes = {k: f"base: {layer[k.rsplit('.', 1)[0] + '.calls']} calls"
             for k in layer if k.endswith("_ratio")}
    notes["trace.overhead_factor"] = (f"traced / untraced wall time of "
                                      f"{workload.trace_rounds} rounds")
    return fp, plain + records, metrics, notes, {"trace": tracer.dump(),
                                                 "mismatched": mismatched}


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fpoly" / "__init__.py").is_file():
        print(f"error: no fpoly sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]

    run = traced if args.trace else end_to_end
    fp, records, metrics, notes, extra = run(args, workload)
    log_failures(args.workload, records)
    failed = sum(1 for r in records if r["problem"]) + len(extra.get("mismatched", ()))
    print(f"fail_ratio {failed}/{len(records)} = {failed / len(records):.4f}")
    meta = metadata(fp, args)
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {unit}{note}")

    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json"
    out.write_text(json.dumps({"meta": meta, "notes": notes,
                               "metrics": {k: v for k, (v, _) in metrics.items()},
                               "operations": records, **extra},
                              default=repr, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
