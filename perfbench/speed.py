"""Machine-speed probe used to normalise wall times on a shared host.

``kernel_seconds`` times a fixed scalar float/complex loop, the same kind of
interpreted code as the program. Its time is benchmark code only, so a change
to the program moves the measured walls but never the probe.
"""

import math
import time

ITERATIONS = 16000
# The probe's time on an idle core of the machine the bounds were set on
# (a shared 2-core x86-64 host, Python 3.11); normalised seconds are seconds there.
REF_SECONDS = 7.0e-3


def kernel_seconds() -> float:
    t0 = time.perf_counter()
    acc, x = 0j, 0.1
    for _ in range(ITERATIONS):
        r = math.sqrt(x * x + 1.0)
        z = complex(x, r) / (r + 1.0)
        acc += z * z.conjugate() + math.exp(-x)
        x += 1e-5
    return time.perf_counter() - t0


def normalised(walls, kernels) -> float:
    """Sum of walls, each rescaled by the probe times measured just before and after it."""
    return sum(w * 2.0 * REF_SECONDS / (k0 + k1) for w, k0, k1 in zip(walls, kernels, kernels[1:]))
