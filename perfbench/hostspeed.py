"""Host-speed probe: a fixed kernel that does not touch the program.

On a shared virtual machine the speed of the same code drifts by up to
2x over minutes, which swamps the run-to-run spread of any wall time.
The benchmark therefore times this probe right before and right after
every timed set-up and every closed-loop pass, and divides each wall
time by the host's slowdown at that moment: the mean of the two probe
times over :data:`NOMINAL_S`. A reported time is thus "seconds on a
host where the probe takes ``NOMINAL_S``". The probe runs none of the
program's code, so a faster program reads faster whatever the host
does. The raw wall times and slowdowns go to the result file.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time that counts as slowdown 1; about its median on the 2-vCPU
# host the README's numbers come from. It only scales the reported times.
NOMINAL_S = 0.1

_rng = np.random.default_rng(0)
_SMALL_X = _rng.standard_normal((64, 32))
_SMALL_W = _rng.standard_normal((32, 32))
_WIDE = _rng.standard_normal((256, 256)).astype(np.float32)
_CSV = ",".join(str(i) for i in range(40000))


def probe() -> float:
    """Seconds for one pass of the kernel; each part mirrors a workload's mix."""
    t0 = time.perf_counter()
    for _ in range(1500):  # many small numpy ops: per-op autodiff overhead
        h = np.tanh(_SMALL_X @ _SMALL_W)
        float(((1.0 - h * h) * 0.5).sum())
    counts: dict[int, int] = {}
    for i in range(150000):  # plain Python: dict updates and parsing, as in CSV loading
        counts[i % 1000] = counts.get(i % 1000, 0) + i
    sum(int(field) for field in _CSV.split(","))
    for _ in range(60):  # BLAS products, as in wide relation layers
        float(np.exp((_WIDE @ _WIDE) * 1e-3).sum())
    return time.perf_counter() - t0


class Bracketed:
    """Times steps between probes; each step's slowdown is the mean of its two probes."""

    def __init__(self):
        self._last = probe()

    def run(self, step):
        """``(result, wall seconds, slowdown)`` of ``step()``."""
        t0 = time.perf_counter()
        result = step()
        seconds = time.perf_counter() - t0
        after = probe()
        slowdown = (self._last + after) / 2.0 / NOMINAL_S
        self._last = after
        return result, seconds, slowdown
