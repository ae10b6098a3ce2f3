"""Layer tracing for the benchmark: spans, self times and exact counts.

Every hook here lives in the benchmark, not in ``repro``: each one
replaces a public function (or method) of one layer with a wrapper
that times the call and counts its work, and :func:`hooks` restores
the originals on exit.  Two sets exist:

* *check hooks* run in every run, traced or not.  They only note MILP
  solves that stopped at the wall-clock limit (HiGHS status 1), which
  the output check needs to tell a limit-bound result from a wrong one.
  They cost a few microseconds per MILP solve.
* *layer hooks* run only in the traced run.  They record one span per
  layer call (name, start, end, parent span, op id) and fold calls
  that happen thousands of times per op (density, bell, SA cost) into
  per-layer totals instead of spans.

A span's self time is its duration minus its children's durations
(children on one thread run one after another).  Engines the service
forks run in child processes, which these hooks do not reach.
"""

from __future__ import annotations

import contextlib
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable, Iterator

#: names of the exact counts a traced run keeps per op (self-test)
COUNT_KEYS = (
    "eplace.nesterov_iters", "analytic.density_calls",
    "analytic.cg_iters", "analytic.bell_calls",
    "legalize.milp.base_solves", "legalize.milp.iterate_solves",
    "legalize.milp.refine_solves", "legalize.milp.nodes",
    "annealing.cost_evals",
)

#: HiGHS status returned when ``milp`` stopped at its time limit
MILP_TIME_LIMIT = 1

_clock = time.perf_counter


class _Frame:
    __slots__ = ("index", "start", "child_s")

    def __init__(self, index: int, start: float) -> None:
        self.index = index
        self.start = start
        self.child_s = 0.0


class Recorder:
    """In-memory spans, per-layer self times and per-op counts.

    ``traced`` False keeps only the check-hook state (limit hits), so
    an untraced run pays for nothing else.  Thread-safe: the service
    workload records from its worker threads.
    """

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.spans: "list[dict[str, Any]]" = []
        self.self_s: "dict[str, float]" = defaultdict(float)
        self.totals: "Counter[str]" = Counter()
        self.op_counts: "dict[str, Counter[str]]" = defaultdict(Counter)
        self.limit_hits: "dict[str, int]" = defaultdict(int)
        self.overhead_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- per-thread context ---------------------------------------------
    def _stack(self) -> "list[_Frame]":
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def op(self) -> "str | None":
        return getattr(self._local, "op", None)

    @contextlib.contextmanager
    def op_scope(self, op_id: str) -> Iterator[None]:
        """Attribute everything recorded on this thread to ``op_id``."""
        previous = self.op
        self._local.op = op_id
        try:
            yield
        finally:
            self._local.op = previous

    # -- recording --------------------------------------------------------
    def count(self, key: str, n: float = 1) -> None:
        if not self.traced:
            return
        op = self.op
        with self._lock:
            self.totals[key] += n
            if op is not None and key in COUNT_KEYS:
                self.op_counts[op][key] += n

    def note_limit_hit(self) -> None:
        with self._lock:
            self.limit_hits[self.op or "?"] += 1

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[_Frame]:
        """Time one layer call; its self time goes to ``name``."""
        if not self.traced:
            yield _Frame(-1, 0.0)
            return
        t0 = _clock()
        stack = self._stack()
        with self._lock:
            index = len(self.spans)
            self.spans.append({})  # filled on exit, keeps start order
        frame = _Frame(index, 0.0)
        stack.append(frame)
        t1 = _clock()
        frame.start = t1
        try:
            yield frame
        finally:
            t2 = _clock()
            stack.pop()
            duration = t2 - frame.start
            self_s = duration - frame.child_s
            parent = stack[-1] if stack else None
            if parent is not None:
                parent.child_s += duration
            record = {
                "name": name, "start": frame.start, "end": t2,
                "self_s": self_s, "op": self.op,
                "parent": parent.index if parent else None,
                "thread": threading.get_ident(),
            }
            with self._lock:
                self.spans[index] = record
                self.self_s[name] += self_s
                self.overhead_s += (t1 - t0) + (_clock() - t2)

    def leaf(self, name: str, calls: str, fn: Callable[..., Any],
             *args: Any, **kwargs: Any) -> Any:
        """Time a hot call without a span: self time and call count."""
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = _clock()
            duration = t1 - t0
            stack = self._stack()
            if stack:
                stack[-1].child_s += duration
            op = self.op
            with self._lock:
                self.self_s[name] += duration
                self.totals[calls] += 1
                if op is not None and calls in COUNT_KEYS:
                    self.op_counts[op][calls] += 1
                self.overhead_s += _clock() - t1


# ---------------------------------------------------------------------------
# hooks


_ACTIVE: "list[Recorder]" = []
_milp_role = threading.local()


def _recorder() -> Recorder:
    return _ACTIVE[-1]


def _timed(name: str, original: Callable[..., Any],
           after: "Callable[[Recorder, Any], None] | None" = None
           ) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        rec = _recorder()
        with rec.span(name):
            result = original(*args, **kwargs)
        if after is not None:
            after(rec, result)
        return result
    wrapper.__wrapped__ = original  # type: ignore[attr-defined]
    return wrapper


def _leaf(name: str, calls: str,
          original: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return _recorder().leaf(name, calls, original, *args, **kwargs)
    wrapper.__wrapped__ = original  # type: ignore[attr-defined]
    return wrapper


def _role_scope(role: str, original: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        previous = getattr(_milp_role, "role", "base")
        _milp_role.role = role
        try:
            return original(*args, **kwargs)
        finally:
            _milp_role.role = previous
    wrapper.__wrapped__ = original  # type: ignore[attr-defined]
    return wrapper


def _milp_hook(original: Callable[..., Any]) -> Callable[..., Any]:
    """``scipy.optimize.milp`` as called from ``repro.legalize.ilp``."""
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        rec = _recorder()
        role = getattr(_milp_role, "role", "base")
        with rec.span(f"legalize.milp.{role}"):
            result = original(*args, **kwargs)
        if int(result.status) == MILP_TIME_LIMIT:
            rec.note_limit_hit()
            rec.count("legalize.milp.limit_hits")
        rec.count(f"legalize.milp.{role}_solves")
        nodes = getattr(result, "mip_node_count", None)
        if nodes is not None:
            rec.count("legalize.milp.nodes", int(nodes))
        return result
    wrapper.__wrapped__ = original  # type: ignore[attr-defined]
    return wrapper


def _shm_loads_hook(original: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(blob: Any) -> Any:
        rec = _recorder()
        rec.count("parallel.shm_segments", len(blob.segments))
        rec.count("parallel.payload_bytes", len(blob.data))
        return original(blob)
    wrapper.__wrapped__ = original  # type: ignore[attr-defined]
    return wrapper


def _job_put_hook(original: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(queue: Any, job: Any) -> Any:
        job._perfbench_times = {"put": _clock()}
        return original(queue, job)
    return wrapper


def _job_running_hook(original: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(job: Any) -> bool:
        started = original(job)
        times = getattr(job, "_perfbench_times", None)
        if started and times is not None:
            times["run"] = _clock()
            _recorder().count("service.queue_wait_s",
                              times["run"] - times["put"])
        return started
    return wrapper


def _job_finish_hook(original: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(job: Any, *args: Any, **kwargs: Any) -> Any:
        result = original(job, *args, **kwargs)
        times = getattr(job, "_perfbench_times", None)
        if times is not None and "run" in times:
            _recorder().count("service.execute_s", _clock() - times["run"])
        return result
    return wrapper


def _cache_get_hook(original: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(cache: Any, fingerprint: str) -> Any:
        doc = original(cache, fingerprint)
        rec = _recorder()
        rec.count("service.cache_gets")
        if doc is not None:
            rec.count("service.cache_hits")
        return doc
    return wrapper


def _submit_hook(original: Callable[..., Any]) -> Callable[..., Any]:
    def wrapper(service: Any, doc: Any) -> Any:
        status, body, headers = original(service, doc)
        if status in (429, 503):
            _recorder().count("service.refused")
        return status, body, headers
    return wrapper


def _eplace_after(rec: Recorder, result: Any) -> None:
    rec.count("eplace.nesterov_iters", int(result.stats["iterations"]))


def _cg_after(rec: Recorder, result: Any) -> None:
    rec.count("analytic.cg_iters", int(result.iterations))


def _patches(traced: bool) -> "list[tuple[Any, str, Callable[[Any], Any]]]":
    """(owner, attribute, hook factory) for every patched name."""
    import repro.api as api
    from repro import parallel
    from repro.legalize import ilp

    patches: "list[tuple[Any, str, Callable[[Any], Any]]]" = [
        (ilp, "milp", _milp_hook),
        (ilp, "iterate_directions",
         lambda f: _role_scope("iterate", f)),
        (ilp, "refine_directions", lambda f: _role_scope("refine", f)),
    ]
    if not traced:
        return patches
    from repro.analytic import BatchedDensityGrid, BellDensityGrid, \
        DensityGrid
    from repro.annealing.incremental import IncrementalCostEvaluator
    from repro.obs.registry import RunWriter
    from repro.service import app
    from repro.service.cache import ResultCache
    from repro.service.queue import Job, JobQueue
    from repro.xu_ispd19 import global_place as xu_gp

    def timed(name: str, after: Any = None) -> Callable[[Any], Any]:
        return lambda f: _timed(name, f, after)

    patches += [
        (api, "eplace_global", timed("eplace.gp", _eplace_after)),
        (api, "eplace_global_batch", timed("eplace.batch")),
        (api, "xu_global", timed("xu_ispd19.gp")),
        (api, "detailed_place", timed("legalize.ilp")),
        (api, "lp_two_stage_detailed_placement", timed("legalize.lp")),
        (api, "anneal_place", timed("annealing.sa")),
        (app, "parallel_map_live", timed("parallel.map")),
        (xu_gp, "conjugate_gradient", timed("analytic.cg", _cg_after)),
        (DensityGrid, "energy_and_grad",
         lambda f: _leaf("analytic.density", "analytic.density_calls", f)),
        (BatchedDensityGrid, "energy_and_grad",
         lambda f: _leaf("analytic.density", "analytic.density_calls", f)),
        (BellDensityGrid, "penalty_and_grad",
         lambda f: _leaf("analytic.bell", "analytic.bell_calls", f)),
        (IncrementalCostEvaluator, "propose",
         lambda f: _leaf("annealing.cost", "annealing.cost_evals", f)),
        (parallel, "shm_loads", _shm_loads_hook),
        (RunWriter, "finalize", timed("obs.registry.finalize")),
        (ResultCache, "get", _cache_get_hook),
        (app.PlacementService, "submit", _submit_hook),
        (JobQueue, "put", _job_put_hook),
        (Job, "mark_running", _job_running_hook),
        (Job, "finish", _job_finish_hook),
    ]
    return patches


@contextlib.contextmanager
def hooks(recorder: Recorder) -> Iterator[Recorder]:
    """Install the hooks for ``recorder``; restore everything on exit."""
    installed: "list[tuple[Any, str, Any]]" = []
    _ACTIVE.append(recorder)
    try:
        for owner, attr, factory in _patches(recorder.traced):
            original = vars(owner)[attr]
            setattr(owner, attr, factory(original))
            installed.append((owner, attr, original))
        yield recorder
    finally:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)
        _ACTIVE.remove(recorder)


@contextlib.contextmanager
def op_span(recorder: Recorder, name: str, op_id: str) -> Iterator[None]:
    """Span of one benchmark op, attributing its work to ``op_id``."""
    with recorder.op_scope(op_id), recorder.span(name):
        yield
