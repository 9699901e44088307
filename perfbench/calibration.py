"""Machine-speed normalisation of measured times.

The reference machine is a virtual machine whose speed swings by up to a
factor of two within seconds and drifts by a quarter over minutes, because
it shares its processors with other tenants. Every quarter second a fixed
slice of work, independent of diffalg, is timed between requests, and
each request's wall time is rescaled by REFERENCE_S over the mean of the
two calibrations around it. Each import timed for setup_s is rescaled the
same way, by the slice timed in its own interpreter right after it. The result reads as milliseconds on a machine
where the slice takes REFERENCE_S, and it moves one for one with the
program's own speed.
"""
from __future__ import annotations

import json
import time

import numpy as np

# median time of calibrate() between requests on the reference machine
# (2-vCPU VM, OpenBLAS with 2 threads)
REFERENCE_S = 0.0175
EVERY_S = 0.25


def calibrate() -> float:
    """Seconds for a fixed slice of work like the program's own mix:
    tuple and dict bookkeeping in the interpreter, many small numpy calls,
    small dense decompositions, one memory-bound contraction of the size
    of a d = 18 associativity check, and JSON."""
    rng = np.random.default_rng(0)
    a = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
    c = rng.standard_normal((18, 18, 18)) + 1j * rng.standard_normal((18, 18, 18))
    v = np.arange(16.0)
    rows = [[float(x), float(-x)] for x in range(400)]
    t0 = time.perf_counter()
    table = {}
    for i in range(3000):
        k = (i % 5, i % 7, i % 11)
        table[k] = table.get(k, 0) + sum(x * y for x, y in zip(k, k[::-1]))
    for _ in range(150):
        np.einsum("i,i->", np.asarray(v, dtype=complex), v)
    for _ in range(3):
        np.linalg.svd(a)
        np.linalg.lstsq(a, a[:, 0], rcond=None)
    np.einsum("ijl,lkm->ijkm", c, c)
    for _ in range(3):
        json.dumps({"rows": rows}, sort_keys=True, indent=2)
    return time.perf_counter() - t0


def normalize(latencies: list[float], calibrations: list) -> list[float]:
    """Per-request times at reference speed. calibrations holds (index,
    seconds) pairs: the calibration ran just before request `index`, and
    the last one after the final request."""
    out = []
    for (i0, c0), (i1, c1) in zip(calibrations, calibrations[1:]):
        scale = REFERENCE_S / ((c0 + c1) / 2.0)
        out += [t * scale for t in latencies[i0:i1]]
    return out

