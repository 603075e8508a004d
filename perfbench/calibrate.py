"""A fixed reference task that tracks how fast the machine runs right now.

On a shared host the same code runs up to twice as slow for seconds to
minutes at a time.  Timing this task between requests, in the same process
and the same stretch of time, measures that speed, so that request times
can be given at a fixed reference speed.  The task uses none of the
program's code: it mimics its mix of interpreter work and small-array numpy
calls.
"""

from __future__ import annotations

import numpy as np

# The task's median time on an unloaded 2-CPU Xeon host.
REFERENCE_TASK_MS = 0.6

_ROWS = np.random.default_rng(0).integers(0, 2, size=(144, 192), dtype=np.uint8)
_PICK = np.arange(0, 144, 12)


def reference_task() -> float:
    """About a millisecond of fixed work; returns a value so it is not skipped."""
    acc: dict[int, float] = {}
    for i in range(24):
        u = _ROWS[_PICK].sum(axis=0, dtype=np.int64).reshape(24, 8) / 12.0
        mu = 1.0 + 3.0 / (1.0 + np.exp(-u))
        rho = mu / mu.sum(axis=1, keepdims=True)
        acc[i % 5] = acc.get(i % 5, 0.0) + float(np.cumsum(rho, axis=1)[:, -1].sum())
        acc[i % 5] += sum(int(x) for x in _PICK[: 4 + i % 8])
    return sum(acc.values())
