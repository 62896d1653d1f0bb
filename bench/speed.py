"""The machine's speed at this moment, read from a fixed calibration kernel.

The reference machine is shared with other tenants, and its speed drifts:
stretches of a few seconds to several minutes run up to twice as slow, with
no CPU steal to show for it.  A time measured in one stretch cannot be
compared with one measured in another.  So the closed loops read the
machine's speed just before every timed operation and set-up, outside the
timing, and report *reference-speed seconds*::

    scaled = seconds * speed
    speed = (REFERENCE_SECONDS / calibration time) ** SENSITIVITY

On the reference machine in a calm stretch the speed is about 1.0, so scaled
times read as plain seconds there; in a stretch twice as slow the speed is
about 0.5, and the scaled times stay where they were.

The kernel does the kinds of work the program does, on inputs fixed here:
it builds a dict key by key (the interpreter), copies and walks a
dict-of-dicts adjacency like ``Graph.copy`` (allocation and pointer
chasing), and sorts, gathers and sums 200k floats (NumPy).  It never calls
the program, so a change to the program cannot change the speed it reads.
"""

from __future__ import annotations

import time

import numpy as np

#: Calibration time that reads as speed 1.0: the kernel's time on the
#: reference machine (2 vCPUs, Python 3.11, NumPy 2.4) in a calm stretch.
REFERENCE_SECONDS = 0.012

#: How much harder the program's operations are slowed than the kernel.
#: Over about 130 closed-loop runs that read speeds of 0.6-1.2 with an
#: exponent of 1, the scaled throughputs and latencies still moved as
#: speed ** 0.2 (0.18-0.25 for throughput, 0.09-0.34 for latency, on every
#: closed loop): the 20k-node operations lose more to a contended machine
#: than the small kernel does.  Rescaled with 1.2, the same runs move as
#: speed ** 0.05 or less on ``cold-solve`` and ``warm-mixed``, and as
#: speed ** 0.15 or less on ``edge-stream``.
SENSITIVITY = 1.2

#: Passes of the kernel per reading; their total is the calibration time.
PASSES = 2

#: A reading younger than this is reused, so a run of short operations
#: does not spend more time calibrating than operating.
MAX_AGE_SECONDS = 0.1

_KEYS = list(range(20_000))
_ADJACENCY = {u: {(u * 7 + j) % 5_000: 1.0 for j in range(1, 7)}
              for u in range(5_000)}
_rng = np.random.default_rng(20_240_601)
_VALUES = _rng.random(200_000)
_GATHER = _rng.integers(0, _VALUES.size, _VALUES.size)
_SEGMENTS = np.arange(0, _VALUES.size, 10)
del _rng

_latest = [float("-inf"), 1.0]   # (perf_counter at the reading, speed)


def _kernel() -> None:
    table: dict = {}
    for key in _KEYS:
        table[key] = table.get(key ^ 1, 0) + 1
    total = 0.0
    for row in {u: dict(nbrs) for u, nbrs in _ADJACENCY.items()}.values():
        for weight in row.values():
            total += weight
    np.add.reduceat(np.sort(_VALUES)[_GATHER], _SEGMENTS)


def calibration_seconds() -> float:
    """Wall time of :data:`PASSES` passes of the kernel."""
    start = time.perf_counter()
    for _ in range(PASSES):
        _kernel()
    return time.perf_counter() - start


def speed() -> float:
    """The machine's speed now, relative to the reference machine's."""
    if time.perf_counter() - _latest[0] >= MAX_AGE_SECONDS:
        reading = (REFERENCE_SECONDS / calibration_seconds()) ** SENSITIVITY
        _latest[:] = time.perf_counter(), reading
    return _latest[1]
