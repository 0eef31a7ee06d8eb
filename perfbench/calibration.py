"""Calibration kernels: fixed work that uses nothing from ellipfim.

A shared virtual machine can slow down 1.3-1.8x for tens of seconds at
a time (seen on a 2-vCPU VM, in process CPU time as much as in wall
time).  Dividing a latency by the time of kernel runs made in the same
run cancels most of that, when the kernel does the same kind of work.  No change to the
program can move a kernel.  Each workload family has its own kernel.
"""

import numpy as np
from scipy import linalg, stats

_DATA = np.random.default_rng(0).standard_normal((100, 4))
_GRID = np.arange(1, 101) / 101.0
_FACTOR = np.random.default_rng(1).standard_normal((32, 32))
_DENSE = np.random.default_rng(2).standard_normal((512, 512))


def estimator_mix():
    """Tyler-style fixed-point steps, rank-score quantiles, small eigh."""
    v = np.eye(4)
    for _ in range(100):
        w = linalg.cho_solve(linalg.cho_factor(v, lower=True), _DATA.T).T
        q = np.einsum("ij,ij->i", _DATA, w)
        v = (4 / 100) * _DATA.T @ (_DATA / q[:, None])
        v /= np.trace(v) / 4
    for _ in range(10):
        stats.chi2.ppf(_GRID, df=4)
        stats.f.ppf(_GRID, 4, 3.0)
        np.linalg.eigh(v)


def dense_mix():
    """An m=32 Kronecker product and a dense product of matrices past L2."""
    np.kron(_FACTOR, _FACTOR)
    _DENSE @ _DENSE
