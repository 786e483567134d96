"""A fixed reference computation that measures the host's current speed.

The benchmark's shared 2-vCPU host changes speed by 25-40% in phases that
last from seconds to minutes, at identical CPU time per op, so raw wall
times of runs minutes apart disagree by more than any useful bound. The
runner times this kernel next to every op and divides op times by the host
speed it shows.

The kernel never calls qmoments and allocates nothing large (its buffers
are made once), so the program's allocator state does not reach it; of two
passes the faster counts, so caches or BLAS threads left busy by the op
that just ended do not either. A change to the program therefore moves the
scaled times as it moves wall time. The mix follows the program's hot
paths: a sine transform as an elementwise numpy product, a heap-driven
adaptive loop in pure Python, and small Hermitian eigendecompositions.
"""

from __future__ import annotations

import heapq
import math
import time

import numpy as np

# Median of reference_seconds() on the reference machine (2-vCPU Intel Xeon,
# Python 3.11, numpy 2.4 with OpenBLAS): scaled times are seconds there.
NOMINAL_S = 0.0035

_K = np.linspace(0.1, 50.0, 48)[:, None]
_R = np.linspace(0.0, 40.0, 4000)[None, :]
_U = _R * np.exp(-_R)
_M = np.array([[1.0 / (1.0 + i + j) for j in range(12)] for i in range(12)])
_BUF = np.empty((48, 4000))
_SUM = np.empty(48)


def _kernel() -> float:
    t0 = time.perf_counter()
    np.multiply(_K, _R, out=_BUF)
    np.sin(_BUF, out=_BUF)
    np.multiply(_BUF, _U, out=_BUF)
    _BUF.sum(axis=1, out=_SUM)
    heap = []
    x = 0.3
    for i in range(1500):
        x = 3.99 * x * (1.0 - x)
        heapq.heappush(heap, (-x, i, math.sqrt(x)))
        if len(heap) > 64:
            heapq.heappop(heap)
    for _ in range(4):
        np.linalg.eigh(_M + x * np.eye(12))
    return time.perf_counter() - t0


def reference_seconds() -> float:
    """Wall time of the kernel: the faster of two passes."""
    return min(_kernel(), _kernel())
