#!/usr/bin/env python3
"""Record the reference HPWL and area the output check compares with.

Usage (from the repository root)::

    python3 perfbench/reference.py

Runs default ``place()``, one call at a time, for every engine on every
paper testcase and every seed in ``workloads.SEEDS``, and writes
``perfbench/reference.json``.  A call during which a MILP solve
stopped at its wall-clock limit is re-run, up to ``ATTEMPTS`` times,
so that a reference depends on machine load only where no run avoids
the limit; those keys are listed under
``limit_bound_on_every_attempt``.  Re-record after a change that is meant
to alter placements, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import check, tracing  # noqa: E402
from perfbench.run import bootstrap  # noqa: E402
from perfbench.workloads import PAPER, SEEDS, place_kwargs  # noqa: E402

ATTEMPTS = 3


def main() -> int:
    bootstrap()
    from repro.api import place
    from repro.circuits import make

    values = {}
    always_bound = []
    rec = tracing.Recorder(traced=False)
    with tracing.hooks(rec):
        for circuit in PAPER:
            for engine in ("eplace-a", "xu-ispd19", "annealing"):
                for seed in SEEDS:
                    key = check.reference_key(engine, circuit, seed)
                    for attempt in range(ATTEMPTS):
                        op = f"{key}:{attempt}"
                        with rec.op_scope(op):
                            result = place(make(circuit), engine,
                                           **place_kwargs(engine, seed))
                        if not rec.limit_hits.get(op):
                            break
                        print(f"{key}: MILP time limit hit", flush=True)
                    else:
                        always_bound.append(key)
                    metrics = result.metrics()
                    values[key] = [metrics["hpwl"], metrics["area"]]
                print(f"{engine}:{circuit}: recorded", flush=True)
    with check.REFERENCE_PATH.open("w") as handle:
        json.dump({"schema": "perfbench.reference/1", "values": values,
                   "limit_bound_on_every_attempt": always_bound},
                  handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
