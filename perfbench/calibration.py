"""Machine-speed calibration around every timed operation.

The benchmark shares its machine with other tenants, whose load moves the
speed of a single core by up to 1.6x, in phases of seconds to minutes.  A
fixed kernel of numpy and interpreter work is timed before and after every
operation (and every set-up probe); the operation's time is divided by the
mean of those two kernel times over REFERENCE_S.  Times then read as seconds
on a machine that runs the kernel in REFERENCE_S, and runs of the same code
agree however busy the machine was.  Raw times are printed next to them.
"""

from __future__ import annotations

import time

import numpy as np

# the kernel's time on an unloaded core of a 2-vCPU Intel Xeon VM (numpy 2.4,
# Python 3.11); only the unit of the scaled times depends on it
REFERENCE_S = 3.4e-3

_X = np.linspace(0.0, 10.0, 100_000)
_Z = np.empty(_X.size, dtype=complex)  # preallocated: no page faults in the timing


def _kernel() -> float:
    t0 = time.perf_counter()
    np.multiply(_X, 1j, out=_Z)
    np.exp(_Z, out=_Z)
    s = 0
    for i in range(20_000):
        s += i * i
    return time.perf_counter() - t0


def sample() -> float:
    """Best of two kernel runs, in units of REFERENCE_S (1.3 = 30% slower)."""
    return min(_kernel(), _kernel()) / REFERENCE_S
