"""The reference kernel that op latencies are expressed in.

The benchmark's host is a small share of a machine whose other tenants
change its speed by up to 1.5x for seconds at a time; Python bytecode and
numpy calls slow down together, though not by quite the same factor.  Timing this fixed kernel just before
and just after an op measures the CPU's speed at that moment, and the op's
latency over the mean of the two is a figure that those swings cancel out
of.  The kernel mixes, by time, a quarter of interpreter loop, half of
numpy calls on tiny arrays (where numpy's per-call overhead dominates) and
a quarter of small complex matrix products: the shares that best cancelled
the swings for all four workloads together, in op-by-op timings of each
part.  It imports nothing from qsense, so no change to the program can
change it.
"""

from __future__ import annotations

import time

import numpy as np

_M = np.random.default_rng(1).standard_normal((32, 32)) + 1j  # read-only
_V = np.ones(4)  # read-only


def kernel_seconds() -> float:
    """Wall time of one pass of the reference kernel (about 12 ms)."""
    start = time.perf_counter()
    total = 0
    for i in range(70000):
        total += i & 7
    for _ in range(4200):
        np.add(_V, _V)
        _V.sum()
    for _ in range(24):
        _M @ _M
        np.kron(_M[:4, :4], _M[:8, :8])
        np.einsum("ij,jk->ik", _M, _M)
    return time.perf_counter() - start
