"""Host-speed probe that the end-to-end timings are divided by.

On a shared host the same op can take twice as long from one second to
the next, and the median of a 20-second run moved by about 20% between
runs. A fixed probe, a Python dict loop plus small matrix products like
the ops' mix of interpreter and BLAS work, is timed between every two
measured samples; each sample is scaled by the reference probe time over
the mean of the probes on either side of it. That roughly halved the run
to run spread of the medians. The raw wall times are reported too.
"""

from __future__ import annotations

import time

import numpy as np

# Reported times are seconds on a host that runs probe() in this time.
PROBE_REF_S = 0.006

_M = np.full((48, 48), 0.01)


def probe() -> float:
    """Seconds taken by a fixed amount of interpreter and BLAS work.

    Call it once before the first reading: the first call in a process
    pays for cold caches and BLAS start-up.
    """
    start = time.perf_counter()
    table = {}
    total = 0
    for i in range(30000):
        table[i & 255] = (i, i * i)
        total += len(table)
    a = _M
    for _ in range(160):
        a = (a @ _M) * 0.5
    return time.perf_counter() - start


def adjusted(samples: list) -> list[float]:
    """Scale each [wall, probe before, probe after] sample by
    PROBE_REF_S / mean(probe before, probe after); failed samples
    (wall None) are dropped."""
    return [
        wall * PROBE_REF_S / (0.5 * (before + after))
        for wall, before, after in samples
        if wall is not None
    ]
