"""Host-speed calibration: a fixed kernel timed next to the workload.

On a shared virtual machine the same work runs up to ~1.5x slower from one
second or minute to the next as other tenants load the host, and a run of
30 s cannot average that out. So the benchmark times this ~10 ms kernel
next to the work it times and scales the work's times by

    NOMINAL_S / (mean of the kernel times around them)

which reports them in seconds of a host running at the nominal speed.
The in-process workloads time the kernel after every round, while the
round loop waits. Sweep times are not scaled (README.md says why).

The kernel resembles the simulator's work, so it slows with the host in
about the same proportion: small-matrix numpy calls (an mlp1 20-32-10 SGD
step on a batch of 10) and a pure-Python loop of integer and dict work.
It creates only a few objects the garbage collector tracks and makes no
BLAS call large enough to thread, so state that fedsample sets in its
process does not change its speed.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

SGD_STEPS = 100
PY_ITERS = 20_000
# About the median kernel time on a 2-vCPU shared VM (Python 3.11, numpy
# 2.4), so that scaled times read close to wall seconds there.
NOMINAL_S = 0.010


def _sgd(steps: int) -> None:
    rng = np.random.default_rng(0)
    x = rng.standard_normal((50, 20))
    y = rng.integers(0, 10, 50)
    w1 = rng.standard_normal((20, 32)) * 0.1
    b1 = np.zeros(32)
    w2 = rng.standard_normal((32, 10)) * 0.1
    b2 = np.zeros(10)
    rows = np.arange(10)
    for step in range(steps):
        i = (step * 10) % 50
        xb, yb = x[i:i + 10], y[i:i + 10]
        h = np.tanh(xb @ w1 + b1)
        z = h @ w2 + b2
        z -= z.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        p[rows, yb] -= 1.0
        p /= 10
        dh = (p @ w2.T) * (1.0 - h * h)
        w2 -= 0.1 * (h.T @ p)
        b2 -= 0.1 * p.sum(axis=0)
        w1 -= 0.1 * (xb.T @ dh)
        b1 -= 0.1 * dh.sum(axis=0)


def _python(iters: int) -> int:
    acc = 0
    table: dict[int, int] = {}
    for i in range(iters):
        acc = (acc * 31 + i) % 1_000_003
        table[i & 255] = acc
    return acc


def kernel_s() -> float:
    """Seconds the kernel takes now, after a short untimed warm-up."""
    _sgd(10)
    _python(2_000)
    start = perf_counter()
    _sgd(SGD_STEPS)
    _python(PY_ITERS)
    return perf_counter() - start


def factor(kernel_times: list[float]) -> float:
    """Scale for the workload times measured between these kernel times."""
    return NOMINAL_S * len(kernel_times) / sum(kernel_times)
