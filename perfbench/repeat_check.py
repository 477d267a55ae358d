#!/usr/bin/env python3
"""Check that per-layer counts repeat exactly across two traced runs.

Run from the repository root:

    python3 perfbench/repeat_check.py [--seed 7] [workload ...]

Each named workload (default: all) runs twice with ``--trace 1`` and the
same seed.  Every count and count ratio must be identical; times may
differ.  Exits 1 on any mismatch, so a change can claim a count change
as a count, separate from any speed-up.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COUNT_SUFFIXES = (".calls", ".yielded", "_ratio", ".attempts", ".points_in",
                  ".subreps_folded")


def traced_counts(workload, seed):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, timeout=600, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload}: traced run failed; see {out.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()
            if k.endswith(COUNT_SUFFIXES)}


def main():
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first, second = (traced_counts(workload, args.seed) for _ in range(2))
        diff = sorted(k for k in first if first[k] != second.get(k))
        ok &= not diff
        print(f"{workload}: {len(first)} counts, "
              + (f"MISMATCH {diff}" if diff else "identical"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
