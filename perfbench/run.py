#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload flows --seed 1 --seconds 50 --trace 0

``--trace 0`` measures the end-to-end metrics with no layer hooks
installed.  ``--trace 1`` runs the same op list with the layer hooks
and prints the per-layer metrics instead; its spans and per-op counts
are written to ``.perfbench/trace-<workload>-seed<n>.json``.

The run is a fixed op list generated from ``--seed``; ``--seconds`` is
the nominal run length recorded in BENCHMARK.json and is only
reported, never used to cut the loop short (see README.md).  Every
returned placement is checked; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Exit status: 0 when every output passed its check, 1
when one did not, 2 when the program under test cannot be imported.

End-to-end timings are in reference seconds: measured seconds scaled
by the machine's speed where and when each op ran (calibrate.py).
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, NoReturn

_T_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(ROOT))

from perfbench import calibrate, check, tracing, workloads as wl  # noqa: E402

#: set-up is repeated this many times per run; the median is reported
SETUP_REPEATS = 3

#: times the import of the program in a fresh interpreter and prints
#: it in reference seconds, scaled by a calibration point taken in that
#: interpreter (it may run on another core than this process)
_IMPORT_PROBE = (
    "import sys, time; sys.path[:0] = sys.argv[1:3]; "
    "t = time.perf_counter(); import repro.api, repro.service; "
    "t = time.perf_counter() - t; "
    "from perfbench import calibrate; speed = calibrate.Speed(); "
    "speed.sample(); print(t * speed.scale)"
)

END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"),
    ("op_tail_s", "s"), ("eplace_a_s", "s"), ("xu_ispd19_s", "s"),
    ("annealing_s", "s"), ("hpwl_um", "um"), ("area_um2", "um2"),
    ("ok_frac", "frac"), ("slo_frac", "frac"), ("peak_rss_mib", "MiB"),
)

#: per-layer metric -> (unit, source); sources: ``self:<span>`` is a
#: layer's self time, ``count:<key>`` an exact count
PER_LAYER = {
    "eplace.gp_s": ("s", "self:eplace.gp"),
    "eplace.nesterov_iters": ("count", "count:eplace.nesterov_iters"),
    "eplace.batch_s": ("s", "self:eplace.batch"),
    "analytic.density_s": ("s", "self:analytic.density"),
    "analytic.density_calls": ("count", "count:analytic.density_calls"),
    "xu_ispd19.gp_s": ("s", "self:xu_ispd19.gp"),
    "analytic.cg_s": ("s", "self:analytic.cg"),
    "analytic.cg_iters": ("count", "count:analytic.cg_iters"),
    "analytic.bell_s": ("s", "self:analytic.bell"),
    "analytic.bell_calls": ("count", "count:analytic.bell_calls"),
    "legalize.ilp_s": ("s", "self:legalize.ilp"),
    "legalize.milp.base_s": ("s", "self:legalize.milp.base"),
    "legalize.milp.iterate_s": ("s", "self:legalize.milp.iterate"),
    "legalize.milp.refine_s": ("s", "self:legalize.milp.refine"),
    "legalize.milp.base_solves": (
        "count", "count:legalize.milp.base_solves"),
    "legalize.milp.iterate_solves": (
        "count", "count:legalize.milp.iterate_solves"),
    "legalize.milp.refine_solves": (
        "count", "count:legalize.milp.refine_solves"),
    "legalize.milp.nodes": ("count", "count:legalize.milp.nodes"),
    "legalize.milp.limit_hits": ("count", "count:legalize.milp.limit_hits"),
    "legalize.lp_s": ("s", "self:legalize.lp"),
    "annealing.sa_s": ("s", "self:annealing.sa"),
    "annealing.cost_s": ("s", "self:annealing.cost"),
    "annealing.cost_evals": ("count", "count:annealing.cost_evals"),
    "parallel.map_s": ("s", "self:parallel.map"),
    "parallel.shm_segments": ("count", "count:parallel.shm_segments"),
    "parallel.payload_bytes": ("bytes", "count:parallel.payload_bytes"),
    "service.queue_wait_s": ("s", "count:service.queue_wait_s"),
    "service.execute_s": ("s", "count:service.execute_s"),
    "service.refused": ("count", "count:service.refused"),
    "obs.registry.finalize_s": ("s", "self:obs.registry.finalize"),
    "api.op_s": ("s", "self:api.place+api.place_multiseed"),
}


def fail(message: str, code: int = 2) -> NoReturn:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def bootstrap() -> None:
    """Import the program under test from this checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        fail(f"no program to benchmark: {src / 'repro'} is missing")
    sys.path.insert(0, str(src))
    import repro
    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        fail(f"imported repro from {repro.__file__}, not from {src}")
    import repro.api  # noqa: F401  (the import cost is part of set-up)
    import repro.service  # noqa: F401


def import_probe() -> float:
    """Import time of the program in a fresh interpreter (reference s)."""
    probe = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(ROOT / "src"), str(ROOT)],
        capture_output=True, text=True, check=True, timeout=120)
    return float(probe.stdout)


def peak_rss_mib() -> float:
    """Largest peak RSS of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("flows", "service-mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    bootstrap()
    first_import = time.perf_counter() - _T_START
    references = check.load_references()
    ops = wl.OPS[args.workload](args.seed)
    WORK.mkdir(exist_ok=True)
    clock = time.perf_counter

    harness = None
    setups = []
    max_lag = 0.0
    rec = tracing.Recorder(traced=bool(args.trace))
    speed = calibrate.Speed()
    try:
        # set-up, SETUP_REPEATS times: an import of the program (this
        # process's, scaled by the point taken right after it, then
        # fresh interpreters'), then circuits and warm-up (or server
        # boot), scaled by the points on either side of it
        speed.sample()
        imports = [first_import * speed.scale]
        for repeat in range(SETUP_REPEATS):
            if repeat:
                imports.append(import_probe())
            t0 = clock()
            if args.workload == "service-mix":
                if harness is not None:
                    harness.close()
                harness = wl.ServiceHarness(WORK / f"runs-{args.seed}")
                harness.wait_healthy()
            else:
                wl.setup_local(ops)
            t1 = clock()
            speed.sample()
            setups.append((t1 - t0) * speed.scale_between(t0, t1))
        with tracing.hooks(rec):
            if harness is not None:
                outcomes, wall, wall_ref, max_lag = wl.run_service(
                    ops, harness, references, speed, bool(args.trace))
            else:
                outcomes, wall, wall_ref = wl.run_closed(
                    ops, rec, references, speed)
    finally:
        if harness is not None:
            harness.close()

    setup_s = wl.median(imports) + wl.median(setups)
    report = summarize(args, outcomes, wall, wall_ref, setup_s, max_lag,
                       rec, speed)
    print(json.dumps(report))
    return 0 if report["correct"] else 1


def summarize(args: argparse.Namespace, outcomes: "list[wl.Outcome]",
              wall: float, wall_ref: float, setup_s: float,
              max_lag: float, rec: tracing.Recorder, speed: calibrate.Speed
              ) -> "dict[str, Any]":
    """Print the human-readable report; return the result object.

    End-to-end timings are in reference seconds (see calibrate.py): an
    op's latency is scaled by the calibration samples around it, each
    set-up step by points taken next to it.  The per-layer metrics and
    ``slo_frac``'s latency limit are in measured seconds.
    """
    attempted = len(outcomes)
    ok = [o for o in outcomes if o.ok]
    latencies = [o.latency_s * o.scale for o in outcomes
                 if not math.isnan(o.latency_s)]
    # a refused job produced no output to be wrong; anything else that
    # went wrong (raised, failed job, failed check) is a wrong output
    incorrect = [o for o in outcomes
                 if any(not p.startswith("refused") for p in o.problems)]
    slo = wl.SLO_S[args.workload]
    by_engine = {engine: sum(o.latency_s * o.scale for o in outcomes
                             if o.op.engine == engine
                             and not math.isnan(o.latency_s))
                 for engine in ("eplace-a", "xu-ispd19", "annealing")}
    tail_value, tail_pct, tail_beyond = wl.tail(latencies)

    print(f"# workload {args.workload}  seed {args.seed}  trace "
          f"{args.trace}  ops {attempted}  (fixed list; nominal "
          f"--seconds {args.seconds:g})")
    for o in outcomes:
        flag = "ok" if o.ok else "FAIL"
        extra = "  limit-bound" if o.limit_bound else ""
        print(f"op {o.op.op_id:<34} {o.latency_s:8.3f} s (ref "
              f"{o.latency_s * o.scale:7.3f} s)  hpwl "
              f"{o.hpwl:10.4f}  {flag}{extra}"
              + ("" if o.ok else "  " + "; ".join(o.problems)))
    bound = [o for o in outcomes if o.limit_bound]
    print(f"# limit-bound ops (a MILP solve stopped at its wall-clock "
          f"limit): {len(bound)}")
    for o in bound:
        note = ("differs from reference" if o.limit_bound_mismatch
                else "matches reference")
        print(f"#   {o.op.op_id}: hpwl {o.hpwl:.4f} ({note})")
    print(f"# op_tail_s is p{tail_pct:.1f} of {len(latencies)} latencies, "
          f"{tail_beyond} samples beyond it")
    if args.workload == "service-mix":
        print(f"# client: largest send lag {max_lag * 1e3:.1f} ms")
    print(f"# machine speed: calibration kernel median "
          f"{speed.kernel_s * 1e3:.2f} ms over {len(speed.samples)} "
          f"samples, reference {calibrate.REFERENCE_S * 1e3:.0f} ms; "
          f"wall {wall:.3f} s measured, {wall_ref:.3f} s reference")

    if args.trace:
        metrics = layer_metrics(args, rec, wall, outcomes, max_lag)
        metrics["bench.kernel_s"] = {"value": speed.kernel_s, "unit": "s"}
    else:
        values = {
            "setup_s": setup_s,
            "wall_s": wall_ref,
            "op_p50_s": wl.median(latencies),
            "op_tail_s": tail_value,
            "eplace_a_s": by_engine["eplace-a"],
            "xu_ispd19_s": by_engine["xu-ispd19"],
            "annealing_s": by_engine["annealing"],
            "hpwl_um": sum(o.hpwl for o in ok),
            "area_um2": sum(o.area for o in ok),
            "ok_frac": len(ok) / attempted,
            "slo_frac": sum(1 for o in ok if o.latency_s <= slo) / attempted,
            "peak_rss_mib": peak_rss_mib(),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END}
    for name, entry in metrics.items():
        print(f"metric {name} = {entry['value']:.6g} {entry['unit']}")
    return {
        "correct": not incorrect,
        "attempted": attempted,
        "failed": attempted - len(ok),
        "metrics": metrics,
    }


def layer_metrics(args: argparse.Namespace, rec: tracing.Recorder,
                  wall: float, outcomes: "list[wl.Outcome]",
                  max_lag: float) -> "dict[str, Any]":
    """Per-layer metrics of a traced run; writes the span file."""
    self_s, totals = rec.self_s, rec.totals
    out = {}
    for name, (unit, source) in PER_LAYER.items():
        kind, keys = source.split(":", 1)
        table = self_s if kind == "self" else totals
        out[name] = {"value": float(sum(table.get(k, 0.0)
                                        for k in keys.split("+"))),
                     "unit": unit}
    gets = totals.get("service.cache_gets", 0)
    out["service.cache_hit_frac"] = {
        "value": totals.get("service.cache_hits", 0) / gets if gets else 0.0,
        "unit": "frac"}
    out["service.client_lag_s"] = {"value": max_lag, "unit": "s"}
    attributed = sum(self_s.values())
    unattributed = wall - attributed
    negative = {k: v for k, v in self_s.items() if v < -1e-6}
    if args.workload == "flows" and (negative or unattributed < -1e-6):
        fail(f"trace accounting broken: negative self times {negative}, "
             f"unattributed {unattributed:.6f} s", code=1)
    if args.workload == "flows":
        print(f"# accounting: layer self times {attributed:.4f} s + "
              f"unattributed {unattributed:.4f} s = traced wall "
              f"{wall:.4f} s")
    out["obs.traced_wall_s"] = {"value": wall, "unit": "s"}
    out["obs.unattributed_s"] = {"value": unattributed, "unit": "s"}
    out["obs.trace_overhead_s"] = {"value": rec.overhead_s, "unit": "s"}
    # Table III's runtime ratio over the single-seed paper-case ops of
    # the cases both engines ran
    ratio = 0.0
    if args.workload == "flows":
        paper = {engine: sum(o.latency_s * o.scale for o in outcomes
                             if o.op.engine == engine and o.op.mode == "place"
                             and o.op.circuit in wl.FLOWS_EPLACE)
                 for engine in ("annealing", "eplace-a")}
        ratio = paper["annealing"] / paper["eplace-a"]
    out["paper.sa_eplace_ratio"] = {"value": ratio, "unit": "ratio"}

    path = WORK / f"trace-{args.workload}-seed{args.seed}.json"
    with path.open("w") as handle:
        json.dump({
            "workload": args.workload, "seed": args.seed,
            "spans": rec.spans,
            "op_counts": rec.op_counts,
            "limit_hits": rec.limit_hits,
            "metrics": out,
        }, handle)
    print(f"# spans and per-op counts written to {path.relative_to(ROOT)}")
    return out


if __name__ == "__main__":
    sys.exit(main())
