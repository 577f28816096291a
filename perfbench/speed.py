"""Host-speed probe: scales measured times to a reference host speed.

On a shared host the same code runs up to twice as slowly in spells that
last from seconds to minutes, so raw times of two runs of one program can
differ by a third. The probe is a fixed piece of work that never touches the
package: small numpy eigendecompositions and products with pure-Python
dict, float and JSON work (the small-op part), and for the workloads in
KERNEL_PROBE also a quadrature-style array kernel, the mix of the package's
own ops. It is timed between the passes of ops, so it sees the same spell
as they do. A time t measured next to probes that took p seconds is
reported as t * reference_s(workload) / p: the time it would have taken on
a host where the probe takes its reference time.

A change to the package cannot move the probe, except by work it leaves
running outside its calls (threads of its own), which would also slow the
probe and so read as a speed-up.
"""
from __future__ import annotations

import json
import time

import numpy as np

# median times of the probe's two parts on the host the benchmark was written
# on (2-vCPU x86-64 VM, Python 3.11, numpy 2.4 with OpenBLAS); only the unit
# of the scaled times depends on them
SMALL_OPS_S = 0.004
KERNEL_S = 0.0035
# workloads whose time is mostly in array kernels (hdensity's quadrature);
# over whole runs the small-op part alone tracks the others' time best
KERNEL_PROBE = ("density-cli",)

_rng = np.random.default_rng(20180319)
_MATRICES = [(lambda g: g @ g.T + np.eye(n))(_rng.normal(size=(n, n)))
             for n in (2, 3, 3, 4, 5, 8, 12) for _ in range(10)]
# a quadrature-style kernel: points against nodes, then weights
_T = _rng.uniform(0.1, 3.0, size=(64, 1))
_U = _rng.uniform(0.1, 3.0, size=(1, 200))
_W = _rng.uniform(size=200)


def _small_ops() -> float:
    total = 0.0
    for m in _MATRICES:
        w, v = np.linalg.eigh(m)
        total += float(((v * np.sqrt(w)) @ v.T)[0, 0])
        acc: dict = {}
        for i in range(100):
            acc[i % 7] = acc.get(i % 7, 0.0) + i * 0.5
        total += len(json.dumps(acc))
    return total


def _kernel() -> float:
    total = 0.0
    for _ in range(30):
        k = (_U * _U - 1.0) * (1.0 - _T) ** 2 / ((_T + _U) * (1.0 + _T * _U) * (1.0 + _U) ** 2)
        total += float((k @ _W)[0])
    return total


def reference_s(workload: str) -> float:
    """The probe's time for `workload` on the reference host."""
    return SMALL_OPS_S + (KERNEL_S if workload in KERNEL_PROBE else 0.0)


def probe(workload: str) -> float:
    """Seconds one run of the workload's fixed probe work takes now."""
    t0 = time.perf_counter()
    _small_ops()
    if workload in KERNEL_PROBE:
        _kernel()
    return time.perf_counter() - t0


def scale_factors(probes: list, workload: str) -> list:
    """Scale factor for each interval between consecutive probes.

    The host's speed over interval k is read from the median of the probes
    at most two boundaries away from it (up to four probes), so one probe
    that a context switch slowed does not move it.
    """
    ref = reference_s(workload)
    return [ref / float(np.median(probes[max(0, k - 1):k + 3]))
            for k in range(len(probes) - 1)]


_small_ops()   # first calls pay for numpy's lazy set-up, not a timed probe
_kernel()
