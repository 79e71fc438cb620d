"""A fixed reference computation that measures how fast the machine is right now.

The worker runs it right after its set-up and after every sample of the
timed section.  It mixes, in about equal parts of time, what the
program spends its time on: an interpreted Python loop, many numpy calls
on tiny arrays (per-call overhead), element-wise numpy passes over an
array larger than the cache, and small dense BLAS and LAPACK calls on
one thread.  Its code and inputs never change, so its time moves only
with the machine, and a time of the program measured in units of it
moves only with the program.
"""

from __future__ import annotations

import time

import numpy as np

_RNG = np.random.default_rng(12345)
_SQUARE = _RNG.standard_normal((200, 200))
_SPD = _SQUARE @ _SQUARE.T + 200.0 * np.eye(200)
_VECTOR = _RNG.standard_normal(250_000)  # 2 MB: larger than the cache, small beside the program
_SCRATCH = np.empty_like(_VECTOR)


def reference_s() -> float:
    """Seconds one run of the reference computation takes (about 0.16 s on a 2.1 GHz Xeon)."""
    t0 = time.perf_counter()
    total = 0
    for i in range(600_000):
        total += i * i
    tiny = np.ones(50)
    for _ in range(8000):
        tiny = np.exp(-tiny) * 0.5 + tiny.sum() * 1e-3
    for _ in range(48):
        np.abs(_VECTOR, out=_SCRATCH)
        np.negative(_SCRATCH, out=_SCRATCH)
        np.exp(_SCRATCH, out=_SCRATCH)
        np.multiply(_SCRATCH, _VECTOR, out=_SCRATCH)
        _SCRATCH.sum()
    for _ in range(60):
        np.linalg.cholesky(_SPD)
        _SQUARE @ _SQUARE
    return time.perf_counter() - t0
