"""Speed probe: how fast the host runs a fixed kernel while a command runs.

The host's speed drifts in steps of tens of percent that last from a
second to minutes, in CPU time as in wall time, so a command's time alone
says as much about the host as about the program.  While a `SpeedProbe` is
active, the kernel below runs for a moment every INTERVAL_S of the
process's CPU time (from a SIGPROF timer, in the main thread, so on the
same CPU as the program), and its CPU time is recorded.  `rescale` turns
a command's CPU time into the time it would take at the kernel's nominal
speed.

The kernel is the benchmark's own code and mixes the kinds of work the
program does: small BLAS products and ufuncs, interpreted calls, dict
lookups, number formatting and pointer chasing through a few MB.  It
allocates no objects that the cyclic gc tracks, so it does not change
when the program's gc runs.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

import numpy as np

INTERVAL_S = 0.05  # CPU seconds between two probes
ROUNDS = 30  # kernel rounds per probe, about 1.2 ms
NOMINAL_S = 0.0012  # CPU seconds of one probe at the speed results are rescaled to
CAPACITY = 1 << 16  # probes kept per command, an hour of CPU time

_RNG = np.random.default_rng(0)
_W, _X = _RNG.standard_normal((64, 96)), _RNG.standard_normal((8, 64))
_TABLE = {f"k{i}": float(i) for i in range(256)}
_KEYS = tuple(_TABLE)
# Python floats in shuffled order: reading them chases pointers through a
# few MB, as the program's object graphs do
_FLOATS = [float(i) for i in range(1 << 17)]
random.Random(0).shuffle(_FLOATS)
_SPAN = 40  # floats read per round
_next = 0


def _axpy(a: float, x: float, y: float) -> float:
    return a * x + y


def kernel(rounds: int) -> float:
    """A small BLAS product and ufuncs, interpreted calls, dict lookups and
    number formatting each round, then a pointer chase."""
    global _next
    acc = 0.0
    for i in range(rounds):
        h = np.tanh(_X @ _W)
        g = 1.0 / (1.0 + np.exp(-h))
        acc += float((g * h).sum())
        for j in range(i, i + 16):
            acc = _axpy(0.5, _TABLE[_KEYS[j]], acc)
        acc += len(f"{acc:.3f},{i},{g[0, 0]:.6g}")
    n = len(_FLOATS)
    for j in range(_next, _next + rounds * _SPAN):
        acc += _FLOATS[j % n]
    _next = (_next + rounds * _SPAN) % n
    return acc


class SpeedProbe:
    """Context manager; `samples` holds the CPU seconds of each probe.

    Samples go to a preallocated array while the probe runs: a Python float
    kept from each probe would pin the allocator's arenas and raise the
    program's peak RSS by an amount that depends on when the probes ran.
    """

    def __init__(self):
        self.samples: list[float] = []
        self._buffer = np.zeros(CAPACITY)
        self._count = 0
        kernel(ROUNDS)  # warm up

    def _tick(self, signum, frame) -> None:
        t = time.thread_time()  # process_time lags inside a SIGPROF handler
        kernel(ROUNDS)
        if self._count < len(self._buffer):
            self._buffer[self._count] = time.thread_time() - t
            self._count += 1

    def __enter__(self) -> SpeedProbe:
        self._count = 0
        self._tick(signal.SIGPROF, None)  # one probe even for a command shorter than the interval
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.samples = self._buffer[:self._count].tolist()


def speed(samples: list[float]) -> float:
    """The host's speed over the samples, relative to the nominal one.

    A median, as a few probes take ten times as long as the rest."""
    return NOMINAL_S / statistics.median(samples)


def rescale(cpu_s: float, samples: list[float]) -> float:
    """CPU seconds of the program alone (without the probes), at nominal speed."""
    return (cpu_s - sum(samples)) * speed(samples)
