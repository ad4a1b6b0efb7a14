"""Host-speed calibration for the timed metrics.

The benchmark shares its machine with other work, whose load changes the
speed of this process by tens of percent from one minute to the next
(pass times of identical code moved by up to 50 % between runs). A fixed
kernel, independent of msd, is timed between operations; each timed
sample (a pass, or one interpreter start) is scaled by ``REFERENCE_S``
over the kernel's median time alongside it, and the run reports the
median of the scaled samples: the time at the host speed where the
kernel takes ``REFERENCE_S``.
The kernel mixes the three kinds of work msd's hot spots do: small-matrix
numpy calls in a Python loop (RK4 moment steps), pure-Python recursion
over a tree (expression evaluation), and numpy over large arrays (EM
steps over paths). REFERENCE_S is fixed; changing it rescales every
figure recorded so far.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REFERENCE_S = 0.015

_TREE = ("+", ("*", "a", ("-", "t", 1.5)), ("/", ("+", "t", "a"), ("*", 2.0, "t")))


def _eval(node, env):
    if isinstance(node, tuple):
        op, lhs, rhs = node
        x, y = _eval(lhs, env), _eval(rhs, env)
        return x + y if op == "+" else x - y if op == "-" else x * y if op == "*" else x / y
    if isinstance(node, str):
        return env[node]
    return node


def kernel_seconds() -> float:
    """Time one run of the calibration kernel (about 15 ms on an idle host)."""
    start = time.perf_counter()
    p = np.eye(2)
    a = np.array([[-1.0, 0.3], [0.0, -2.0]])
    g = np.diag([0.2, 0.3])
    for _ in range(120):
        ap = a @ p
        p = p + 1e-3 * (ap + ap.T + g @ p @ g.T)
        p = (p + p.T) / 2.0
    env = {"a": 0.5, "t": 1.0}
    for k in range(1500):
        env["t"] = 1.0 + k * 1e-3
        _eval(_TREE, env)
    x = np.linspace(0.0, 1.0, 200_000)
    for _ in range(4):
        x = x + 1e-3 * (x * 0.5) + 0.01 * np.sin(x)
    return time.perf_counter() - start


def scaled_median(times: list[float], kernels: list[float]) -> float:
    """Median over i of times[i] * REFERENCE_S / kernels[i], where kernels[i]
    is the kernel's median time measured alongside times[i]."""
    return statistics.median(t * REFERENCE_S / k for t, k in zip(times, kernels))
