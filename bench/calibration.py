"""Calibration kernel for timing on a host whose speed drifts.

On a shared machine the speed a process gets drifts by a third or more
over minutes, so raw wall times of two runs are not comparable. The
benchmark times this fixed, interpreter-bound kernel between analyses and
converts each measured time to reference seconds:

    reference time = measured time * REFERENCE_S / kernel time nearby

A reference second is a second on a machine where the kernel takes
REFERENCE_S. The kernel never calls walkergeo, so a change to the program
does not move it. Its mix follows the program's: dict and float work,
small objects built recursively, and 3x3 numpy arithmetic.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Kernel time on an Intel Xeon 2.1 GHz virtual machine with 2 vCPUs,
# CPython 3.11 and numpy 2.4, in its quicker phases (up to about 15 ms in
# its slower ones).
REFERENCE_S = 0.009


class _Jet:
    __slots__ = ("c",)

    def __init__(self, c: dict):
        self.c = c

    def __add__(self, other: "_Jet") -> "_Jet":
        out = dict(self.c)
        for k, v in other.c.items():
            out[k] = out.get(k, 0.0) + v
        return _Jet(out)

    def __mul__(self, other: "_Jet") -> "_Jet":
        out: dict = {}
        for (a0, a1), va in self.c.items():
            for (b0, b1), vb in other.c.items():
                if a0 + b0 + a1 + b1 <= 2:
                    k = (a0 + b0, a1 + b1)
                    out[k] = out.get(k, 0.0) + va * vb
        return _Jet(out)


_TREE = ("*", ("+", "x", "y"), ("*", ("+", "x", 1.5), ("+", "y", "x")))


def _evaluate(node, x: float, y: float) -> _Jet:
    if isinstance(node, tuple):
        a, b = _evaluate(node[1], x, y), _evaluate(node[2], x, y)
        return a * b if node[0] == "*" else a + b
    if node == "x":
        return _Jet({(0, 0): x, (1, 0): 1.0})
    if node == "y":
        return _Jet({(0, 0): y, (0, 1): 1.0})
    return _Jet({(0, 0): float(node)})


def kernel() -> float:
    """Run the kernel once; returns its wall time in seconds."""
    start = time.perf_counter()
    acc = 0.0
    table: dict = {}
    for i in range(24000):
        table[i & 63] = (i * 0.5, i)
        acc += table[i & 63][0] * 1.0001
    for i in range(300):
        acc += _evaluate(_TREE, 0.5 + i * 0.01, 1.25).c[(1, 1)]
    m = np.eye(3)
    for i in range(600):
        g = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, i * 0.1]])
        m = (m @ g - g) / (1.0 + np.abs(m).max())
    return time.perf_counter() - start


def to_reference(measured: list[float], kernels: list[float]) -> list[float]:
    """Reference seconds of measured[i], timed between kernels[i] and
    kernels[i + 1]; the median of the kernels nearest to it sets the scale,
    so one disturbed kernel run does not."""
    if len(kernels) != len(measured) + 1:
        raise ValueError("need one kernel time before each measurement "
                         "and one after the last")
    return [
        t * REFERENCE_S / statistics.median(kernels[max(0, i - 1): i + 3])
        for i, t in enumerate(measured)
    ]
