"""Operation timing normalised against a fixed reference kernel.

The benchmark host shares its cores with other tenants.  Their load slows
every instruction, not just scheduling (process CPU time tracks wall time),
by up to about 1.8x, and it changes from one second to the next.  The median
of raw wall times therefore moves by 20-35 % between runs minutes apart, and
even the minimum of 0.1 s operations moves by tens of per cent.

:class:`Clock` runs a small fixed kernel between consecutive operations and
times each operation against the mean of the kernel runs on either side.
The kernel does none of the program's work, so its time depends only on the
host and numpy; dividing by it cancels most of the host's slowdown.  Each
workload uses the kernel whose kind of work dominates its own hot path,
because kinds of work slow down by different factors under the same load:

* ``vector``: random draws and numpy arithmetic on arrays of 184,320
  elements, with a working set of about 10 MB, like a simulation chunk;
* ``small_arrays``: a Python loop of numpy operations on 64-element
  arrays, like the Legendre recurrences behind the expected-value model's
  quadrature nodes;
* ``python``: interpreter-bound dict and loop work, like file parsing.

A normalised time is ``op_time / kernel_time * nominal``: the operation's
time on a host where the kernel takes its nominal time, which is the
kernel's uncontended time on the host the benchmark was written on (Intel
Xeon, 2 vCPUs, Python 3.11.7, numpy 2.4.6).  The nominal time is only a
scale; a comparison of two commits does not depend on it.
"""

from __future__ import annotations

import os
from time import perf_counter

import numpy as np


def _vector() -> int:
    rng = np.random.Generator(np.random.PCG64(0))
    n = 184_320
    phase = np.cumsum(0.005 * rng.standard_normal(n))
    a = rng.random(n) < 0.02
    b = rng.random(n) < 0.02
    click = rng.random(n) < -np.expm1(-1e-3 * np.cos(phase) ** 2)
    state = (a.astype(np.int64) << 1) | b
    return int(np.bincount(state[click], minlength=4).sum())


def _small_arrays() -> float:
    x = np.linspace(-1.0, 1.0, 64)
    c0, c1 = np.zeros(64), np.ones(64)
    for i in range(600):
        c0, c1 = 0.5 * c1 - 0.25 * c0, 0.5 * c0 + (c1 * x * (2 * i + 1)) / (4 * i + 4)
    return float(c1[0])


def _python() -> int:
    counts = {}
    for i in range(25_000):
        counts[i % 97] = counts.get(i % 97, 0) + i
    return len(counts)


KERNELS = {
    "vector": (_vector, 0.0100),
    "small_arrays": (_small_arrays, 0.0028),
    "python": (_python, 0.0024),
}
"""Kernel name -> (function, nominal seconds)."""
KERNEL_REPEATS = 3
KERNEL_SHARE = 0.1
"""The kernel runs at least ``KERNEL_REPEATS`` times after each operation,
and for at least ``KERNEL_SHARE`` of the operation's time, so that long
operations are compared with the host's speed over a comparable interval."""


class Clock:
    """Times operations, each against the kernel runs just before and after.

    With ``parallel=True`` every gap also times the kernel in this process
    and in a forked child at once, the reference for operations that keep
    both of the host's CPUs busy.
    """

    def __init__(self, kernel: str, parallel: bool = False):
        self._kernel, self._nominal = KERNELS[kernel]
        self._parallel = parallel
        self._kernel()  # the first run pays one-time costs
        self._last = self._kernel_times()

    def _repeat(self, budget: float) -> float:
        """Mean time of kernel runs repeated for about ``budget`` seconds,
        and at least ``KERNEL_REPEATS`` times."""
        t0 = perf_counter()
        runs = 0
        while runs < KERNEL_REPEATS or perf_counter() - t0 < budget:
            self._kernel()
            runs += 1
        return (perf_counter() - t0) / runs

    def _kernel_times(self, budget: float = 0.0) -> tuple:
        serial = self._repeat(budget)
        if not self._parallel:
            return serial, None
        t0 = perf_counter()
        pid = os.fork()
        if pid == 0:
            try:
                for _ in range(KERNEL_REPEATS):
                    self._kernel()
            finally:
                os._exit(0)
        for _ in range(KERNEL_REPEATS):
            self._kernel()
        os.waitpid(pid, 0)
        return serial, (perf_counter() - t0) / KERNEL_REPEATS

    def time(self, fn, parallel: bool = False):
        """Run ``fn()``; return ``(output, seconds, normalised seconds)``.
        ``parallel`` selects the two-CPU reference."""
        before = self._last
        t0 = perf_counter()
        out = fn()
        seconds = perf_counter() - t0
        self._last = self._kernel_times(KERNEL_SHARE * seconds)
        i = 1 if parallel else 0
        return out, seconds, seconds / (0.5 * (before[i] + self._last[i])) * self._nominal
