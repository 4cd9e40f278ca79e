"""Host-speed probe: a fixed mix of the kinds of work the pipeline does.

On a shared host the speed of a process drifts by 20-50% over minutes,
while its CPU time keeps tracking its wall time: it runs, only slower.
Each repetition times this probe before and after the workload, and the
runner scales the repetition's times by ``PROBE_NOMINAL_S / probe
time``, which gives seconds at a nominal host speed.  The probe uses
numpy and scipy only, never the package, so a change to the package
cannot move it.
"""
from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

# Median probe time on the 2-core Xeon host the bounds were set on.
PROBE_NOMINAL_S = 0.2


def _once() -> float:
    rng = np.random.default_rng(0)
    n, nnz = 20_000, 200_000
    A = sp.csr_matrix((rng.standard_normal(nnz),
                       (rng.integers(0, n, nnz), rng.integers(0, n, nnz))),
                      shape=(n, n))
    x = rng.standard_normal(n)
    B = rng.standard_normal((3000, 3, 3))
    B = B @ B.transpose(0, 2, 1) + 3.0 * np.eye(3)
    t0 = time.perf_counter()
    table = {}
    for i in range(150_000):
        table[(i % 997, i % 13)] = i
    for _ in range(200):
        x = A @ x
        x /= np.linalg.norm(x)
    for _ in range(20):
        np.linalg.inv(B)
    for i in range(3000):
        B[i][np.ix_([0, 1], [0, 1])].sum()
    return time.perf_counter() - t0


def probe() -> float:
    """Median seconds of three passes of interpreter, sparse mat-vec,
    batched small-matrix and indexing work."""
    return sorted(_once() for _ in range(3))[1]
