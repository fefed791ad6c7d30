"""Machine-speed calibration for wall times measured on a shared host.

On a host whose CPUs are shared with other tenants, the same Python code
runs up to ~60 % slower for stretches of tens of seconds, and raw wall
times of identical runs a minute apart differ by more than any useful
regression bound.  So every op is bracketed by a fixed calibration kernel,
and its wall time is scaled by REFERENCE_S / (mean kernel time around the
op): the result is the op's time on a machine where the kernel takes
REFERENCE_S.  A slower program still reads slower; a slower host does not.

The kernel has two halves of about equal time, because contention slows
interpreter-bound and memory-bound code by different amounts: sparse-
polynomial arithmetic on dicts of exponent tuples (the engine's kind of
work), and contractions of fresh 4 MB arrays over one axis of a [2]*18
tensor (the dense oracle's kind of work).  It is written here and shares
no code with holoqsim, so no change to the program can move it.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# Kernel wall time on the reference machine: one x86_64 Xeon vCPU,
# Python 3.11, numpy 2.4, uncontended.
REFERENCE_S = 0.040

_NVARS = 16
_BASE = {tuple(((k >> (j // 2)) & 1) if j % 2 else 1 - ((k >> (j // 2)) & 1)
               for j in range(_NVARS)): complex(k, 1) for k in range(64)}


_FLIP = np.array([[0, 1], [1, 0]], dtype=complex)


def _unit(j: int) -> tuple[int, ...]:
    return tuple(int(i == j) for i in range(_NVARS))


def kernel_seconds() -> float:
    """Wall time of one pass of the calibration kernel."""
    start = perf_counter()
    for _ in range(6):
        poly = _BASE
        for v in range(4):
            form = {_unit(2 * v): 0.7 + 0j, _unit(2 * v + 1): 0.7 + 0j}
            out: dict[tuple[int, ...], complex] = {}
            for e1, c1 in poly.items():
                for e2, c2 in form.items():
                    key = tuple(int(x + y) for x, y in zip(e1, e2))
                    out[key] = out.get(key, 0j) + c1 * c2
            poly = {k: c for k, c in out.items() if abs(c) > 1e-14}
    for axis in (0, 6, 12):
        tensor = np.ones([2] * 18, dtype=complex)
        tensor = np.moveaxis(np.tensordot(_FLIP, tensor, axes=([1], [axis])), 0, axis).copy()
    return perf_counter() - start


class Gauge:
    """Scale factors to reference speed, one per op, from kernels around it."""

    def __init__(self):
        self.last = kernel_seconds()

    def factor(self) -> float:
        """REFERENCE_S over the mean of the previous and a fresh kernel time."""
        before, self.last = self.last, kernel_seconds()
        return REFERENCE_S / (0.5 * (before + self.last))
