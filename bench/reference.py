"""Fixed reference workloads that track the speed of the host.

On a shared virtual machine the host's speed changes by 20-30% within
minutes, and CPU time changes with it: the same parse or ``train_stream``
took 0.72 s in one minute and 0.55 s a few minutes later, and a whole
benchmark run read 30% faster than the run before it.  The benchmark
times the references next to every measured operation and divides each
time by the host's speed factor:

    scaled time = measured time / speed factor

The speed factor is the median, over three kernels, of each kernel's CPU
time divided by its time on the nominal host.  The kernels do the kinds of
work bbsvm does: splitting LIBSVM text into floats with small NumPy
products, scattering sparse rows into dense vectors and testing them
against ball centers, and plain Python integer and dict work.  One kernel
alone also picks up the layout of the process it runs in: a text kernel
twice this one's length read 0.037 s in one fresh process and 0.047-0.058 s
in five others, while ``train_stream`` moved the other way.  The median of three ignores one
such kernel.  The kernels never call bbsvm, so no change to the library
moves them.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

_LINE = "+1 " + " ".join(f"{i}:{0.123456789 * i!r}" for i in range(1, 21))
_GRAM = np.outer(np.linspace(-1.0, 1.0, 20), np.linspace(-1.0, 1.0, 20)) + np.eye(20)
_X = np.linspace(-1.0, 1.0, 20)


def _text() -> float:
    total = 0.0
    for k in range(800):
        tokens = _LINE.split()
        values = np.array([float(t.partition(":")[2]) for t in tokens[1:]])
        total += float(values @ _GRAM @ _X) + sum(i * 0.5 for i in range(k % 20))
    return total


_RNG = np.random.default_rng(0)
_ROWS = [
    (np.sort(_RNG.choice(300, 60, replace=False)), _RNG.standard_normal(60))
    for _ in range(64)
]
_CENTERS = _RNG.standard_normal((9, 301))


class _Ball:
    def __init__(self, center: np.ndarray, radius: float):
        self.center = center
        self.radius = radius


def _sparse() -> int:
    balls = [_Ball(c, 20.0) for c in _CENTERS]
    inside = 0
    for k in range(600):
        idx, vals = _ROWS[k % len(_ROWS)]
        z = np.zeros(301)
        z[idx] = vals
        z[300] = 0.5
        for b in balls:
            d = z - b.center
            inside += float(d @ d) <= b.radius * b.radius
    return inside


def _python() -> int:
    counts: dict[int, int] = {}
    total = 0
    for k in range(40_000):
        key = k % 517
        counts[key] = counts.get(key, 0) + k * 3 // 7
        total += len(str(k))
    return total


# Each kernel with its CPU time on the nominal host, which sets the unit of
# every scaled time; on a shared 2-core virtual machine the kernels took
# 1.2 to 1.8 times these.
KERNELS = ((_text, 0.012), (_sparse, 0.0115), (_python, 0.0125))


def speed_factor() -> float:
    """Median over the kernels of CPU time / nominal CPU time."""
    ratios = []
    for kernel, nominal in KERNELS:
        start = time.process_time()
        kernel()
        ratios.append((time.process_time() - start) / nominal)
    return statistics.median(ratios)
