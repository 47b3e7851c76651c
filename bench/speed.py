"""Machine-speed gauge: rescales wall times to a fixed reference speed.

The benchmark runs on a few vCPUs of a shared host. Other tenants slow the
whole vCPU, often by half or more, in spells of seconds that can cover a
whole run, and CPU time slows with wall time (the loss is not steal time),
so neither wall time nor CPU time repeats from run to run.

The gauge runs a fixed calibration kernel, in the mix of work driftcast does
(small NumPy layers forward and backward with in-place parameter updates,
and seeded generators drawing small batches), every PERIOD_S of wall time
from a SIGALRM handler, on the same thread as the program, and notes how
long it took. A timed window (one method pass, set-up, sweep) is cut at the
probes into stretches; each stretch's wall time is scaled by
REF_KERNEL_NS / (the mean kernel time of the two probes around it), and the
window's rescaled time is the sum. Probe time itself is left out. The result
is the wall time the window would take at the speed at which the kernel
takes REF_KERNEL_NS, so a slower program still reads slower, while a slower
machine does not.
"""

from __future__ import annotations

import signal
import time
from typing import List, Tuple

PERIOD_S = 0.04             # wall time between two timer probes
REPEATS = 2                 # a probe keeps the faster of this many kernel runs
# the kernel's time at the reference speed: its fast state on the 2-vCPU
# Intel Xeon cloud VM the benchmark was written on
REF_KERNEL_NS = 500_000


class Gauge:
    """Probes the machine's speed and rescales timed windows by it."""

    def __init__(self) -> None:
        # numpy is imported here, after the caller has pinned BLAS threads
        import numpy as np
        self._np = np
        rng = np.random.default_rng(7)
        self._x = rng.standard_normal((2, 96))
        self._embed = rng.standard_normal((96, 64)) * 0.1
        self._layers = [rng.standard_normal((64, 64)) * 0.1 for _ in range(6)]
        self._seeds = np.random.SeedSequence(9)
        self.probes: List[Tuple[int, int, int]] = []   # (start, end, kernel ns)
        self._busy = False
        self._saved_handler = None

    def kernel(self) -> float:
        """The same work on every call; the tiny learning rate keeps the
        weights, and so the cost, from drifting."""
        np = self._np
        s = 0.0
        for _ in range(3):
            hs = [np.tanh(self._x @ self._embed)]
            for w in self._layers:
                hs.append(np.tanh(hs[-1] @ w))
            g = hs[-1]
            for w, h_in, h_out in zip(reversed(self._layers), reversed(hs[:-1]),
                                      reversed(hs[1:])):
                g = g * (1 - h_out * h_out)
                grad = h_in.T @ g
                g = g @ w.T
                w -= 1e-9 * grad
            self._embed -= 1e-9 * (self._x.T @ g)
            s += float(g.sum())
        for child in self._seeds.spawn(12):
            v = np.random.default_rng(child).standard_normal((20, 8))
            s += float(np.mean((v @ v[0]) ** 2))
        return s

    def probe(self) -> int:
        """Run the kernel; returns the probe's index."""
        if self._busy:          # the timer fired during an explicit probe
            return len(self.probes) - 1
        self._busy = True
        clock = time.perf_counter_ns
        start = clock()
        best = None
        for _ in range(REPEATS):
            a = clock()
            self.kernel()
            took = clock() - a
            best = took if best is None or took < best else best
        self.probes.append((start, clock(), best))
        self._busy = False
        return len(self.probes) - 1

    def start(self) -> None:
        """Probe every PERIOD_S of wall time until stop()."""
        self._saved_handler = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._saved_handler)

    def rescale(self, first: int, last: int, t0: int, t1: int) -> Tuple[int, float]:
        """Wall time of [t0, t1] less probe time, and that time rescaled.

        Probe `first` ended before t0 and probe `last` started after t1;
        every probe between them fell inside the window.
        """
        probes = self.probes[first:last + 1]
        wall = 0
        rescaled = 0.0
        for (_, end, before), (begin, _, after) in zip(probes, probes[1:]):
            stretch = min(begin, t1) - max(end, t0)
            if stretch > 0:
                wall += stretch
                rescaled += stretch * 2 * REF_KERNEL_NS / (before + after)
        return wall, rescaled

    def timed(self, fn, *args, **kwargs):
        """Call fn between two probes; returns (its result, wall ns, rescaled ns)."""
        first = self.probe()
        t0 = time.perf_counter_ns()
        out = fn(*args, **kwargs)
        t1 = time.perf_counter_ns()
        last = self.probe()
        return (out, *self.rescale(first, last, t0, t1))
