"""The two fixed-work workloads.

A run is a fixed list of operations generated from the workload seed,
never a time budget: every run of a workload does the same amount of
work, and end-to-end metrics are sums or medians over that list.

* ``flows`` — closed loop, one client, serial in one process: default
  ``place()`` for SA on all ten paper testcases, ePlace-A on eight and
  Xu-ISPD19 on four of them, and one ``place_multiseed(batch=True)``
  call through the lockstep batch engine.  Table III at the defaults
  ``repro place`` uses, with no fork and no service: the control for
  ``parallel`` and ``service`` changes.  The MILP carries most of
  ePlace-A's time.
* ``service-mix`` — open loop against an in-process ``repro serve``
  (default config, 2 workers), one client thread, two connections,
  sends a fixed request list at 44% of the measured capacity, each
  send a seed-drawn fraction of the interval late.  Mostly SA and
  Xu-ISPD19 jobs, a minority of ePlace-A, a third of them repeats of
  an earlier request.  The only workload with
  queueing, admission, the dedupe cache, fork-per-job, result
  transport and registry finalize.
"""

from __future__ import annotations

import contextlib
import http.client
import itertools
import json
import math
import random
import shutil
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from . import calibrate, check, tracing

#: placer seeds reference.json covers
SEEDS = (1, 2, 3, 4)

PAPER = ("Adder", "CC-OTA", "Comp1", "Comp2", "CM-OTA1", "CM-OTA2",
         "SCF", "VGA", "VCO1", "VCO2")

#: ePlace-A cases in ``flows``: all but SCF and VCO2, which the run
#: budget leaves out (see README.md); SA runs on all ten
FLOWS_EPLACE = ("Adder", "CC-OTA", "Comp1", "Comp2", "CM-OTA1", "CM-OTA2",
                "VGA", "VCO1")

#: Xu-ISPD19 cases in ``flows``
FLOWS_XU = ("Adder", "CC-OTA", "Comp1", "CM-OTA1")

#: the seed every single-seed op runs at: the engines' own default,
#: i.e. what ``repro place`` runs with no flags.  One case's runtime
#: differs up to 3x between placer seeds, so drawing them from the
#: workload seed would make the timings measure the draw
PLACER_SEED = 1

#: the ``flows`` op through the lockstep batch engine (BatchedDensityGrid)
FLOWS_BATCH = ("eplace-a", "Adder", (1, 2))

#: distinct service-mix requests (engine, circuit) in send order,
#: engines interleaved so the load is even
SERVICE_DISTINCT = (
    ("annealing", "Adder"), ("xu-ispd19", "Adder"),
    ("annealing", "CC-OTA"), ("eplace-a", "Adder"),
    ("annealing", "Comp1"), ("xu-ispd19", "CC-OTA"),
    ("annealing", "Comp2"), ("eplace-a", "CC-OTA"),
    ("annealing", "CM-OTA1"), ("xu-ispd19", "CM-OTA1"),
    ("annealing", "CM-OTA2"), ("eplace-a", "Comp1"),
    ("annealing", "VGA"), ("xu-ispd19", "VCO1"),
    ("annealing", "VCO1"), ("eplace-a", "CM-OTA1"),
    ("annealing", "SCF"),
)
#: after every second distinct request from the fourth on, an earlier
#: request is sent again (engines in turn): a cache hit, or a dedupe
#: while the first copy is still running
SERVICE_REPEAT_ENGINES = ("annealing", "xu-ispd19", "eplace-a")
#: seconds between sends: 44% of the 2-worker capacity measured on
#: this job mix (see perfbench/README.md)
SERVICE_INTERVAL_S = 2.0
#: each send is due up to this share of the interval late, drawn from
#: the workload seed (independent users do not send on a grid)
SERVICE_JITTER = 0.25
#: poll period for pending jobs; coarse enough that the client's own
#: requests take little CPU from the two workers (the latency
#: resolution it costs is about 3% of a median job)
SERVICE_POLL_S = 0.05
#: a calibration point (about 15 ms) runs when no job is pending and
#: the next send is due in this window (s): late enough that the last
#: job's bookkeeping is done, early enough not to delay the send
CALIBRATION_WINDOW_S = (0.1, 0.1 + 2 * SERVICE_POLL_S)

#: per-op latency limits for ``slo_frac`` (s)
SLO_S = {"flows": 30.0, "service-mix": 10.0}


@dataclass
class Op:
    """One operation of a workload's fixed list."""

    op_id: str
    engine: str
    circuit: str
    seeds: "tuple[int, ...]"
    mode: str = "place"
    at: float = 0.0  # scheduled send offset (service-mix)


@dataclass
class Outcome:
    """What one op produced, as the client saw it."""

    op: Op
    latency_s: float = float("nan")
    ok: bool = False
    hpwl: float = float("nan")
    area: float = float("nan")
    problems: "list[str]" = field(default_factory=list)
    limit_bound: bool = False
    limit_bound_mismatch: bool = False
    #: factor from measured to reference seconds (calibrate.py)
    scale: float = 1.0


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"perfbench:{workload}:{seed}")


def flows_ops(seed: int) -> "list[Op]":
    """Every flows op in a seed-shuffled order; placer seeds are fixed."""
    ops = []
    for circuit in PAPER:
        engines = ["annealing"]
        engines += ["eplace-a"] if circuit in FLOWS_EPLACE else []
        engines += ["xu-ispd19"] if circuit in FLOWS_XU else []
        ops += [Op(f"{engine}:{circuit}", engine, circuit, (PLACER_SEED,))
                for engine in engines]
    engine, circuit, seeds = FLOWS_BATCH
    ops.append(Op(f"{engine}:batch:{circuit}", engine, circuit, seeds,
                  "batch"))
    _rng("flows", seed).shuffle(ops)
    return ops


def service_ops(seed: int) -> "list[Op]":
    """The fixed request list; the seed jitters each send time."""
    rng = _rng("service-mix", seed)
    repeat_engines = itertools.cycle(SERVICE_REPEAT_ENGINES)
    schedule = []
    for index, request in enumerate(SERVICE_DISTINCT):
        schedule.append(request)
        if index >= 3 and index % 2 == 1:
            engine = next(repeat_engines)
            schedule.append(next(
                r for r in reversed(SERVICE_DISTINCT[:index - 1])
                if r[0] == engine))
    return [Op(f"job{index:02d}:{engine}:{circuit}", engine, circuit,
               (PLACER_SEED,), "job",
               (index + rng.uniform(0.0, SERVICE_JITTER))
               * SERVICE_INTERVAL_S)
            for index, (engine, circuit) in enumerate(schedule)]


OPS: "dict[str, Callable[[int], list[Op]]]" = {
    "flows": flows_ops,
    "service-mix": service_ops,
}


def place_kwargs(engine: str, seed: int) -> "dict[str, Any]":
    """``place()`` defaults with the engine's seed set.

    Uses the same helper ``place_multiseed`` and the service use, so
    both workloads run byte-identical engine configurations.
    """
    from repro.api import _reseed_kwargs
    return _reseed_kwargs(engine, {}, seed)


# ---------------------------------------------------------------------------
# set-up


def warm_up() -> None:
    """One short op per engine: loads lazy modules and solver state."""
    from repro.annealing import SAParams
    from repro.api import place
    from repro.circuits import make
    from repro.eplace import EPlaceParams
    from repro.legalize import DetailedParams
    from repro.xu_ispd19 import XuParams

    place(make("Adder"), "annealing", params=SAParams(iterations=400))
    place(make("Adder"), "eplace-a",
          gp_params=EPlaceParams(utilization=0.8, eta=0.3, max_iters=20,
                                 min_iters=1),
          dp_params=DetailedParams(iterate_rounds=1, refine_rounds=0))
    place(make("Adder"), "xu-ispd19",
          gp_params=XuParams(stages=1, cg_iterations=5))


def setup_local(ops: "list[Op]") -> None:
    """Circuit construction for the op list plus one warm-up per engine."""
    from repro.circuits import make
    for op in ops:
        make(op.circuit)
    warm_up()


# ---------------------------------------------------------------------------
# closed-loop workloads


def _check(outcome: Outcome, placement: Any, seed: int,
           references: "dict[str, list[float]]") -> "check.Verdict":
    verdict = check.check_placement(
        placement, outcome.op.engine, outcome.op.circuit, seed,
        references, outcome.limit_bound)
    outcome.problems.extend(verdict.problems)
    outcome.limit_bound_mismatch |= verdict.limit_bound_mismatch
    return verdict


def run_closed(ops: "list[Op]", rec: tracing.Recorder,
               references: "dict[str, list[float]]", speed: calibrate.Speed
               ) -> "tuple[list[Outcome], float, float]":
    """Run ``ops`` back to back; check outputs after the timed loop.

    A calibration point runs before each op and after the last one,
    and, unless the run is traced, kernel samples run during each op
    (their time is taken off its latency); each op's latency is scaled
    by the samples around and during it.  Returns outcomes, the ops'
    own wall time and that wall time in reference seconds.
    """
    from repro.api import place, place_multiseed
    from repro.circuits import make

    raw: "list[tuple[Outcome, Any, float, float, float]]" = []
    clock = time.perf_counter
    for op in ops:
        speed.sample()
        # in a traced run the samples would land in the layers' spans
        sampling = (contextlib.nullcontext() if rec.traced
                    else speed.during())
        stolen = speed.stolen_s
        outcome = Outcome(op)
        result: Any = None
        start = clock()
        with sampling:
            circuit = make(op.circuit)
            t0 = clock()
            try:
                if op.mode == "place":
                    with tracing.op_span(rec, "api.place", op.op_id):
                        result = place(circuit, op.engine,
                                       **place_kwargs(op.engine,
                                                      op.seeds[0]))
                else:
                    with tracing.op_span(rec, "api.place_multiseed",
                                         op.op_id):
                        result = place_multiseed(
                            circuit, op.engine, seeds=op.seeds, batch=True)
            except Exception as exc:  # an op that raises is a failed op
                outcome.problems.append(
                    f"raised {type(exc).__name__}: {exc}")
        end = clock()
        stolen = speed.stolen_s - stolen
        outcome.latency_s = end - t0 - stolen
        raw.append((outcome, result, start, end, stolen))
    speed.sample()

    outcomes = []
    wall = wall_ref = 0.0
    for outcome, result, start, end, stolen in raw:
        outcome.scale = speed.scale_between(start, end)
        wall += end - start - stolen
        wall_ref += (end - start - stolen) * outcome.scale
        outcome.limit_bound = rec.limit_hits.get(outcome.op.op_id, 0) > 0
        if result is not None:
            results = result if isinstance(result, list) else [result]
            verdicts = [
                _check(outcome, r.placement, s, references)
                for r, s in zip(results, outcome.op.seeds)
            ]
            best = min(verdicts, key=lambda v: v.hpwl)
            outcome.hpwl, outcome.area = best.hpwl, best.area
            outcome.ok = all(v.ok for v in verdicts)
        outcomes.append(outcome)
    return outcomes, wall, wall_ref


# ---------------------------------------------------------------------------
# service-mix


class ServiceHarness:
    """An in-process ``repro serve`` with its HTTP server on a thread."""

    def __init__(self, runs_root: Path) -> None:
        from repro.service import ServiceConfig, make_server
        self.runs_root = runs_root
        self.service, self.server = make_server(
            ServiceConfig(runs_root=str(runs_root)))
        self.service.start()
        self.thread = threading.Thread(
            target=self.server.serve_forever, name="perfbench-http",
            kwargs={"poll_interval": 0.05}, daemon=True)
        self.thread.start()
        self.host, self.port = self.server.server_address[:2]

    def wait_healthy(self, timeout_s: float = 30.0) -> None:
        deadline = time.monotonic() + timeout_s
        while True:
            try:
                status, _ = request(self.connection(), "GET", "/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("service did not answer /healthz")
            time.sleep(0.005)

    def connection(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port, timeout=60)

    def close(self) -> None:
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10)
        self.service.stop()
        shutil.rmtree(self.runs_root, ignore_errors=True)


def request(conn: http.client.HTTPConnection, method: str, path: str,
            doc: "dict[str, Any] | None" = None) -> "tuple[int, Any]":
    body = None if doc is None else json.dumps(doc).encode()
    headers = {"Content-Type": "application/json"} if body else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    payload = response.read()
    return response.status, json.loads(payload) if payload else None


def run_service(ops: "list[Op]", harness: ServiceHarness,
                references: "dict[str, list[float]]", speed: calibrate.Speed,
                traced: bool) -> "tuple[list[Outcome], float, float, float]":
    """Send ``ops`` on schedule; poll until every job is terminal.

    Latency runs from the scheduled send time to the poll that saw the
    job terminal, so a stalled generator charges later jobs its delay.
    A calibration point is taken shortly before each send that finds
    no job pending (so it neither competes with the workers nor delays
    the send), and after the last job; unless the run is traced, the
    forked job children sample while they run; each job's latency is
    scaled by the samples around and during it.  Returns outcomes, wall
    time, wall time in reference seconds (only the part after the last
    scheduled send is scaled: the rest is set by the schedule) and the
    generator's largest lag.
    """
    from repro.circuits import make
    from repro.placement.io import placement_from_dict
    from repro.service.protocol import DONE, TERMINAL_STATES

    sender, poller = harness.connection(), harness.connection()
    outcomes = [Outcome(op) for op in ops]
    docs: "dict[int, Any]" = {}
    pending: "dict[int, str]" = {}
    ended: "dict[int, float]" = {}
    clock = time.perf_counter
    speed.sample()
    start = clock()
    next_index = 0
    max_lag = 0.0
    idle_sampled = False
    try:
        kernel_dir = harness.runs_root.with_name(
            harness.runs_root.name + "-kernel")
        # in a traced run the samples would lengthen the timed layers
        sampling = (contextlib.nullcontext() if traced
                    else speed.in_children(kernel_dir))
        with sampling:
            while next_index < len(ops) or pending:
                now = clock() - start
                if next_index < len(ops) and now >= ops[next_index].at:
                    op = ops[next_index]
                    max_lag = max(max_lag, now - op.at)
                    status, doc = request(sender, "POST", "/jobs", {
                        "circuit": op.circuit, "method": op.engine,
                        "seed": op.seeds[0]})
                    accepted = status in (200, 202)
                    if accepted and doc["state"] in TERMINAL_STATES:
                        ended[next_index] = clock()
                        outcomes[next_index].latency_s = (
                            ended[next_index] - start - op.at)
                        docs[next_index] = doc
                    elif accepted:
                        pending[next_index] = doc["id"]
                    else:
                        outcomes[next_index].problems.append(
                            f"refused: HTTP {status}")
                    next_index += 1
                    idle_sampled = False
                    continue
                for index, job_id in list(pending.items()):
                    status, doc = request(poller, "GET", f"/jobs/{job_id}")
                    if status == 200 and doc["state"] not in TERMINAL_STATES:
                        continue
                    ended[index] = clock()
                    outcomes[index].latency_s = (
                        ended[index] - start - ops[index].at)
                    docs[index] = doc if status == 200 else {
                        "state": f"HTTP {status}"}
                    del pending[index]
                due = (ops[next_index].at - (clock() - start)
                       if next_index < len(ops) else math.inf)
                low, high = CALIBRATION_WINDOW_S
                if not pending and not idle_sampled and low < due <= high:
                    speed.sample()
                    idle_sampled = True
                    continue
                wait = min(SERVICE_POLL_S, due)
                if wait > 0:
                    time.sleep(wait)
        end = clock()
        speed.sample()
    finally:
        sender.close()
        poller.close()

    for index, doc in docs.items():
        outcome = outcomes[index]
        if doc.get("state") != DONE:
            outcome.problems.append(
                f"job ended {doc.get('state')}: {doc.get('error', '')}")
            continue
        result = doc["result"]
        op = outcome.op
        try:
            placement = placement_from_dict(make(op.circuit),
                                            result["placement"])
        except (KeyError, ValueError) as exc:
            outcome.problems.append(f"unreadable placement: {exc}")
            continue
        verdict = _check(outcome, placement, op.seeds[0], references)
        outcome.hpwl, outcome.area = verdict.hpwl, verdict.area
        outcome.ok = verdict.ok
    for index, finished in ended.items():
        outcomes[index].scale = speed.scale_between(
            start + ops[index].at, finished)
    last_send = start + ops[-1].at
    wall = end - start
    wall_ref = ops[-1].at + (end - last_send) * speed.scale_between(
        last_send, end)
    return outcomes, wall, wall_ref, max_lag


def tail(latencies: "list[float]") -> "tuple[float, float, int]":
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  Needs eleven or more
    samples; fewer is an error, never a silently thinner tail.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        raise ValueError(f"tail needs >= 11 samples, got {n}")
    index = n - 11
    return ordered[index], 100.0 * index / (n - 1), n - 1 - index


def median(values: "list[float]") -> float:
    return float(statistics.median(values))
