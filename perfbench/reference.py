"""Fixed reference work that measures how fast the host runs right now.

The benchmark runs on shared hosts whose speed changes by up to 2x within
seconds with the load of other tenants, and may stay slow for minutes.
Every timed call is therefore followed by one `chunk()`: a fixed mix of the
kind of work semoff does per slot (interpreter-level Python, numpy ufuncs on
per-device vectors of 8, and reductions over a 2,000 x 8 policy table). The
chunk never changes, so its time tracks only the host. A call's time is
reported scaled to a fixed host speed, the one at which a chunk takes
`CHUNK_S`:

    reported = measured * CHUNK_S / (mean of the chunks before and after)

On a host that runs the chunk in CHUNK_S the reported time is the wall time.
"""

from __future__ import annotations

import time

import numpy as np

# A round figure near the chunk's time on an uncontended core of a 2-vCPU
# x86-64 KVM guest (Python 3.11, numpy 2.4); it only sets the scale.
CHUNK_S = 300e-6

_LINE = np.arange(2000, dtype=float)
_TABLE = np.random.default_rng(0).random((2000, 8))
_DEVICES = np.linspace(1.0, 2.0, 8)
_SAMPLE = np.random.default_rng(1).random(64)
# The table-sized result goes to a buffer allocated once: a fresh 128 KB
# array per chunk would be mapped and unmapped each time, and its cost then
# follows the allocator's state after the timed call, not the host's speed.
_PRODUCT = np.empty_like(_TABLE)


def chunk() -> float:
    acc = 0.0
    y = np.exp(-_LINE * 1e-3) * 1.5 + np.log1p(_LINE)
    acc += float(y[int(np.argmin(y * (_LINE % 7)))])
    g = np.multiply(_TABLE, _DEVICES, out=_PRODUCT).sum(axis=1) - _TABLE[:, 3] * 0.5
    acc += float(g[int(np.argmin(g))])
    for i in range(4):
        w = _DEVICES * (i + 1) - 1.5
        with np.errstate(invalid="ignore"):
            st = np.sqrt(np.maximum(w, 0.0) / 3.0)
        out = np.where((w > 0) & (_DEVICES > 1.2), np.minimum(st, 2.0), 0.0)
        acc += float(np.sum(out))
    s = np.sort(_SAMPLE)
    acc += float(s[int(np.searchsorted(s, 0.5)) % 64] + np.percentile(_SAMPLE, 90))
    table: dict[int, int] = {}
    for i in range(150):
        table[i & 15] = i * 3 % 7
        acc += table.get(i & 7, 0) + len(str(i))
    return acc


def timed_chunk() -> float:
    """Seconds one chunk takes now."""
    t0 = time.perf_counter()
    chunk()
    return time.perf_counter() - t0
