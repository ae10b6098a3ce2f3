"""Machine-speed calibration: timings in reference seconds.

The benchmark runs on a few cores of a shared host whose speed changes
by 20-30% from one second to the next and drifts as much over minutes,
for every kind of work the program does (interpreter loops, numpy, the
MILP solver).  A run-to-run spread that large hides any change to the
program.  So the benchmark times a short fixed kernel, independent of
the program under test, around and during each op, and scales the
op's time by how much slower or faster than its reference time the
kernel ran:

    reported = measured * REFERENCE_S / mean(kernel times around the op)

A reported second is a second on a machine where the kernel takes
``REFERENCE_S``.  A change to the program moves the measured time and
not the kernel, so it moves the reported time by the same share.

*Around* an op is a calibration point just before and just after it
(each the median of three kernel runs, so one interrupted run does not
scale an op).  *During* an op that runs in this thread, a timer signal
runs the kernel every ``PERIOD_S``; the time the kernel takes is taken
off the op's latency.  An op that runs in a forked child (a service
job) samples in the child the same way, and writes its samples to a
file the benchmark reads after the run; that time stays in the job's
latency, which it lengthens by about 5%.  Samples taken on another
core while the op runs do not track it: the host's slowdowns are per
core.

The kernel is numpy work on a 64x64 array (FFT round trip, matmul,
elementwise exp).  Of the candidates tried over seven minutes of
interleaved samples (an interpreter loop, dict updates, this numpy
mix, a small HiGHS MILP), it tracked the program's own drift best.
Measured over about 30 repeats of each of five ops (two SA, two
ePlace-A, one Xu-ISPD19) on the 2-CPU machine the benchmark was built
on, the quartile spread of one op's latency was 17-34% measured,
7-15% scaled by the points around it and 6-8% scaled by those and the
samples during it.
"""

from __future__ import annotations

import contextlib
import os
import shutil
import signal
import statistics
import time
from pathlib import Path
from typing import Iterator

import numpy as np

#: median kernel time (s) on the 2-CPU machine the benchmark was built
#: on; fixed, so that reported times from different runs compare
REFERENCE_S = 0.005

#: kernel runs per calibration point (the point is their median)
RUNS_PER_POINT = 3

#: seconds between kernel samples during an op (about 5% of its time)
PERIOD_S = 0.1

_MATRIX = np.random.default_rng(0).random((64, 64))


def kernel() -> None:
    """About 5 ms of numpy work."""
    for _ in range(30):
        np.fft.irfft2(np.fft.rfft2(_MATRIX))
        _MATRIX @ _MATRIX
        np.exp(_MATRIX).sum()


def _timed_kernel() -> "tuple[float, float]":
    t0 = time.perf_counter()
    kernel()
    t1 = time.perf_counter()
    return (t0 + t1) / 2, t1 - t0


#: where forked children write their samples, while that is wanted.
#: Module state because a fork hook cannot be unregistered: the one
#: hook below reads what the active :meth:`Speed.in_children` set.
_child_dir: "Path | None" = None


def _sample_in_child() -> None:
    """After a fork: sample every ``PERIOD_S`` into this child's file.

    The interval timer is not inherited across fork, so the child
    starts its own; it ends with the child.
    """
    if _child_dir is None:
        return
    fd = os.open(_child_dir / f"{os.getpid()}.txt",
                 os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)

    def handler(signum: int, frame: object) -> None:
        middle, duration = _timed_kernel()
        os.write(fd, f"{middle!r} {duration!r}\n".encode())

    signal.signal(signal.SIGALRM, handler)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


os.register_at_fork(after_in_child=_sample_in_child)


class Speed:
    """Timestamped kernel samples of one run and the scales they give."""

    def __init__(self) -> None:
        #: (midpoint, kernel time) of each point or sample, perf_counter s
        self.samples: "list[tuple[float, float]]" = []
        #: kernel time spent inside :meth:`during` blocks so far (s)
        self.stolen_s = 0.0

    def sample(self, count: int = 1) -> None:
        """Take ``count`` calibration points."""
        for _ in range(count):
            runs = [_timed_kernel() for _ in range(RUNS_PER_POINT)]
            middle = statistics.fmean(t for t, _ in runs)
            self.samples.append((middle, statistics.median(
                d for _, d in runs)))

    @contextlib.contextmanager
    def during(self) -> Iterator[None]:
        """Sample the kernel every ``PERIOD_S`` in this thread.

        Main thread only (SIGALRM).  The signal handler runs between
        the program's bytecodes, never inside a C call; each sample's
        time is added to ``stolen_s``.
        """
        def handler(signum: int, frame: object) -> None:
            middle, duration = _timed_kernel()
            self.samples.append((middle, duration))
            self.stolen_s += duration

        previous = signal.signal(signal.SIGALRM, handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextlib.contextmanager
    def in_children(self, directory: Path) -> Iterator[None]:
        """Children forked in this block sample every ``PERIOD_S``.

        Their samples go to files in ``directory`` (removed after) and
        join this run's samples when the block ends.
        """
        global _child_dir
        directory.mkdir(parents=True, exist_ok=True)
        _child_dir = directory
        try:
            yield
        finally:
            _child_dir = None
            for path in directory.glob("*.txt"):
                for line in path.read_text().splitlines():
                    middle, duration = line.split()
                    self.samples.append((float(middle), float(duration)))
            self.samples.sort()
            shutil.rmtree(directory, ignore_errors=True)

    @property
    def kernel_s(self) -> float:
        """Median kernel time of this run (s)."""
        return float(statistics.median(d for _, d in self.samples))

    @property
    def scale(self) -> float:
        """Factor from measured to reference seconds, whole run."""
        return REFERENCE_S / self.kernel_s

    def scale_between(self, start: float, end: float) -> float:
        """Factor for work done in [start, end]: the samples inside it,
        the last before it and the first after it."""
        before = [d for t, d in self.samples if t < start]
        inside = [d for t, d in self.samples if start <= t <= end]
        after = [d for t, d in self.samples if t > end]
        near = before[-1:] + inside + after[:1]
        if not near:
            return self.scale
        return REFERENCE_S / statistics.fmean(near)
