"""CPU-speed sampling for the end-to-end times.

The benchmark runs on shared machines where the other tenants of a physical
core can slow this process down by up to 2x, switching within a second and
staying slow for minutes. On a 2-vCPU machine, per-repetition wall times
spread over 1.9-3.5 s on one workload for that reason alone, so medians of
raw wall time could not resolve a 25% change.

The Speedometer times a fixed probe, the same numpy update on a 257-point
and on a 4097-point array (the workloads' smallest and largest grids, one
bound by interpreter overhead and one by vector arithmetic), every
INTERVAL_S from a SIGALRM handler. Each interval between two samples
is scaled by REF_PROBE_S / (the probe's duration at its end), which gives
its length on a core where the probe takes REF_PROBE_S; the probes' own time
is left out. REF_PROBE_S only sets the scale: it is near the probe's in-run
duration on an uncontended core of the machine the baseline was recorded on,
so that scaled wall times there come close to uncontended wall times. Compare
scaled times only with scaled times from the same machine. Raw wall times
are reported beside them.
"""
from __future__ import annotations

import signal
from time import perf_counter

import numpy as np

INTERVAL_S = 0.02
REF_PROBE_S = 3.2e-4

_GRIDS = ((np.linspace(-1.0, 1.0, 257), 10), (np.linspace(-1.0, 1.0, 4097), 6))


def probe() -> float:
    t = perf_counter()
    for x, iterations in _GRIDS:
        for _ in range(iterations):
            y = x + 0.1 * np.arctan(x) - 0.5 * x
            x = np.clip(x - 0.01 * y, -1.0, 1.0)
    return perf_counter() - t


class Speedometer:
    def __init__(self) -> None:
        self.samples: list[tuple[float, float, float]] = []  # start, probe, handler

    def _tick(self, signum, frame) -> None:
        t0 = perf_counter()
        d = probe()
        self.samples.append((t0, d, perf_counter() - t0))

    def __enter__(self) -> "Speedometer":
        self.samples.append((perf_counter(), probe(), 0.0))
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled(self, start: float, end: float) -> float:
        """Length of [start, end] at reference speed, probes left out."""
        total, prev = 0.0, start
        last_probe = self.samples[0][1]
        for t0, d, spent in self.samples:
            if t0 <= start:
                last_probe = d
                continue
            if t0 >= end:
                return total + (end - prev) * REF_PROBE_S / d
            total += (t0 - prev) * REF_PROBE_S / d
            prev, last_probe = t0 + spent, d
        return total + (end - prev) * REF_PROBE_S / last_probe

    def probe_time(self, start: float, end: float) -> float:
        return sum(spent for t0, _, spent in self.samples if start < t0 < end)
