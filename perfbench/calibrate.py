"""Follow a shared machine's speed with fixed kernels timed between operations.

On a shared host the speed of one core drifts by up to 2x over tens of
seconds, which no amount of repetition inside a 20-second run removes. So
every timed operation is also reported in reference seconds: its measured
seconds times REFERENCE_S / the kernel's measured time, where the kernel is
timed just before and just after the operation and the two are averaged.
On a machine running at the reference speed the two numbers agree; the raw
seconds are always printed beside the reference seconds.

The kernels use no batchsim code, so a change to batchsim cannot move them.
The interpreter kernel follows bytecode, dict and allocation work (the CLI,
the scheduler, the serializers); the numpy kernel follows streaming array
arithmetic (the CG solver), which the drift affects differently.
"""

from __future__ import annotations

import time

# median kernel times on an Intel Xeon (2 vCPU, KVM), Python 3.11, numpy 2.4
REFERENCE_S = {"python": 0.024, "numpy": 0.020}


def python_kernel() -> float:
    start = time.perf_counter()
    total, table, items = 0, {}, []
    for k in range(60_000):
        total += k * k % 7
        key = f"k{k % 997}"
        table[key] = table.get(key, 0) + 1
        if k % 8 == 0:
            items.append((k, key))
    items.sort(key=lambda item: item[1])
    return time.perf_counter() - start


def numpy_kernel_factory():
    import numpy as np

    a = np.linspace(0.0, 1.0, 80**3)
    b = a[::-1].copy()

    def numpy_kernel() -> float:
        start = time.perf_counter()
        for _ in range(5):
            c = 6.0 * a
            c[1:] -= b[:-1]
            c /= 3.0
            c += float(np.dot(c, a)) * 1e-9 * b
        return time.perf_counter() - start

    return numpy_kernel


KERNEL_FACTORIES = {"python": lambda: python_kernel, "numpy": numpy_kernel_factory}


class Speed:
    """Converts measured seconds to reference seconds, one operation at a time."""

    def __init__(self, kind: str):
        self.kernel = KERNEL_FACTORIES[kind]()
        self.reference_s = REFERENCE_S[kind]
        self.samples = [self.kernel()]

    def lap(self, raw_s: float) -> float:
        """Reference seconds for an operation of raw_s seconds that ended just now."""
        self.samples.append(self.kernel())
        return raw_s * self.reference_s * 2 / (self.samples[-2] + self.samples[-1])
