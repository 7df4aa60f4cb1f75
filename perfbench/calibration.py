"""Host-speed calibration: a fixed kernel timed beside every measurement.

On a shared host the same op runs 1.5x slower in some minutes than in
others, and it is the host's speed that changes, not steal: the process's
CPU time swings with its wall time.  The benchmark therefore times this
kernel, which never touches btevolve, right beside each op and set-up
probe, and reports times scaled to the host speed at which the kernel
takes NOMINAL_S.  A change to btevolve moves the op and not the kernel, so
it still shows in full.
"""

from __future__ import annotations

import gc
import json
import time

# a round figure for the median wall time of kernel() on a 2-vCPU 2.1 GHz
# Xeon VM, where it read 7.5-10.5 ms depending on the host's load
NOMINAL_S = 0.010


def kernel() -> float:
    """Interpreter loops, dict and JSON work and small numpy calls, the mix
    btevolve's ops are made of, and no BLAS call large enough to start a
    thread.  Call it only once btevolve has loaded numpy, so that it never
    moves an import into the measurement."""
    import numpy as np

    x = np.linspace(-2.0, 2.0, 64)
    total = 0.0
    for i in range(480):
        total += float(np.dot(x, np.log1p(np.exp(x * (i % 7)))))
        total += len(json.dumps({"round": i, "scores": [j * 0.5 for j in range(24)]}))
    return total


def seconds() -> float:
    """Wall time of one kernel() call.  The garbage collector is held off
    meanwhile: the kernel frees all it allocates by reference counting, and
    a collection would walk the caller's heap and tie the reading to it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
