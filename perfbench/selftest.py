#!/usr/bin/env python3
"""Self-test: two same-seed traced ``flows`` runs give identical counts.

Usage (from the repository root)::

    python3 perfbench/selftest.py --seed 1

Runs ``run.py --workload flows --trace 1`` twice with the same seed and
compares the exact per-op counts (Nesterov and CG iterations, density
and bell calls, MILP solves and nodes per role, SA cost evaluations,
shared-memory segments).  Ops listed as limit-bound in either run (a
MILP solve stopped at its wall-clock limit) are reported and skipped:
their counts depend on machine load, which is the defect they show.
Exit status 0 when every other op's counts match, 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def traced_counts(seed: int) -> "tuple[dict, dict]":
    command = [sys.executable, str(ROOT / "perfbench" / "run.py"),
               "--workload", "flows", "--seed", str(seed), "--trace", "1"]
    subprocess.run(command, cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
                   timeout=600)
    path = ROOT / ".perfbench" / f"trace-flows-seed{seed}.json"
    with path.open() as handle:
        doc = json.load(handle)
    return doc["op_counts"], doc["limit_hits"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()

    first, first_hits = traced_counts(args.seed)
    second, second_hits = traced_counts(args.seed)
    bound = sorted(set(first_hits) | set(second_hits))
    mismatches = []
    for op in sorted(set(first) | set(second)):
        if op in bound:
            continue
        if first.get(op) != second.get(op):
            mismatches.append((op, first.get(op), second.get(op)))
    compared = len(set(first) | set(second)) - len(bound)
    print(f"compared exact counts of {compared} ops; "
          f"limit-bound ops skipped: {bound or 'none'}")
    for op, a, b in mismatches:
        print(f"MISMATCH {op}: {a} != {b}")
    return 1 if mismatches or compared == 0 else 0


if __name__ == "__main__":
    sys.exit(main())
