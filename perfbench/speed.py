"""The CPU's current speed, sampled while the benchmark runs.

On a shared machine the same code runs up to a third slower for seconds
or minutes at a time, and each virtual CPU drifts on its own, so raw
wall-clock figures of one run cannot be compared with another's.  The
benchmark therefore pins itself to one CPU (``pin_to_one_cpu``) and
starts a child process on that CPU which times a fixed reference kernel
every ``PERIOD_S`` seconds.  A solve's seconds are scaled by
``NOMINAL_KERNEL_S`` over the kernel time around it, which gives seconds
at the reference speed: a solve that does more work reads longer, a CPU
that slows down does not.

The kernel runs in its own process: it shares no interpreter lock and no
heap with the solves, and it times itself in its own CPU seconds, so the
moments a solve holds the CPU do not count against it.  What it does
share with the solves is the CPU, its clock and its caches, which is the
point.  The kernel is small-array numpy arithmetic driven from a Python
loop, the same mix of interpreter and dispatch overhead as the solver's
inner loop.

    python3 perfbench/speed.py    # the sampler; stops at end of stdin
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import subprocess
import sys
import threading
import time

PERIOD_S = 0.02
# Samples this far either side of an interval count towards its speed; an
# interval with fewer than MIN_SAMPLES there takes the nearest ones.
PAD_S = 0.5
MIN_SAMPLES = 10
# Scaled seconds are seconds at the speed where the kernel takes 0.7 ms of
# CPU, about its typical time on the machine where the benchmark was
# defined (2 vCPUs of an Intel Xeon, Python 3.11, numpy 2.4).
NOMINAL_KERNEL_S = 7.0e-4


@functools.cache
def _arrays():
    import numpy as np

    rng = np.random.default_rng(0)
    return rng.random((40, 3, 3)), rng.random((40, 3)), np.arange(40) % 7


def kernel() -> float:
    """Fixed work: the same arithmetic on the same arrays every call."""
    import numpy as np

    payoff, mix, group = _arrays()
    out = 0.0
    for _ in range(30):
        values = (payoff * mix[:, None, :]).sum(axis=2)
        table = np.zeros((7, 3))
        np.add.at(table, group, values)
        out += float(np.maximum(table, 0.2).max())
    return out


def pin_to_one_cpu() -> int | None:
    """Pin this process, and the processes it starts later, to one CPU."""
    if not hasattr(os, "sched_setaffinity"):
        return None
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _sample() -> None:
    """Child side: time ``kernel`` until stdin closes, then print samples."""
    stop = threading.Event()

    def wait_for_eof():
        sys.stdin.read()
        stop.set()

    threading.Thread(target=wait_for_eof, daemon=True).start()
    kernel()  # warm: imports and first-call costs are not samples
    print("ready", flush=True)
    samples = []  # (perf_counter at start, CPU seconds of the kernel)
    while not stop.wait(PERIOD_S):
        start, cpu = time.perf_counter(), time.thread_time()
        kernel()
        samples.append((start, time.thread_time() - cpu))
    json.dump(samples, sys.stdout)


class Speedometer:
    """Runs the sampler process for the ``with`` block, then scales times.

    ``time.perf_counter`` reads one system-wide clock (CLOCK_MONOTONIC on
    Linux), so the child's sample times and the parent's intervals compare.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []
        self.start_s = 0.0  # seconds spent waiting for the sampler to start

    def __enter__(self) -> "Speedometer":
        start = time.perf_counter()
        self._proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        if self._proc.stdout.readline().strip() != "ready":
            self._proc.kill()
            self._proc.wait()
            raise RuntimeError("the speed sampler did not start")
        self.start_s = time.perf_counter() - start
        return self

    def __exit__(self, *exc) -> None:
        out, _ = self._proc.communicate("", timeout=60)
        if exc[0] is None:
            self.samples = [tuple(s) for s in json.loads(out)]
            if not self.samples:
                raise RuntimeError("the speed sampler took no samples")

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel CPU seconds around the interval [start, end]."""

        def distance(t: float) -> float:
            return max(start - t, t - end, 0.0)

        near = sorted(self.samples, key=lambda s: distance(s[0]))
        count = max(MIN_SAMPLES, sum(distance(t) <= PAD_S for t, _ in near))
        return statistics.median(d for _, d in near[:count])

    def scale(self, start: float, end: float) -> float:
        """Factor turning raw seconds in [start, end] into reference seconds."""
        return NOMINAL_KERNEL_S / self.kernel_s(start, end)


if __name__ == "__main__":
    _sample()
