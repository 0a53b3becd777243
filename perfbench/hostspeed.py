"""Host speed, measured by a fixed kernel between pieces of timed work.

On a shared host the processor runs in fast and slow spells lasting
from a fraction of a second to minutes; in a slow spell the same work
takes up to 2.4x as long, and a spell can outlast a whole run.  So the
benchmark times a fixed calibration kernel, benchmark code that calls
nothing in the program, before and after every piece of timed work, and
reports each timing at the *reference speed*: the speed at which one
pass of the kernel takes ``REFERENCE_S``.

A time ``t`` measured while the kernel took ``c`` per pass is reported
as ``t * REFERENCE_S / c``; a rate is divided by the same factor.  The
kernel mixes what the program's hot paths mix: interpreted loops and
float arithmetic, dict updates, small NumPy operations and JSON.  The
program's own code never runs in it, so a change to the program moves
the timed work and not the kernel.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

#: Seconds one kernel pass takes at the reference speed.
REFERENCE_S = 0.005
#: Kernel passes per calibration; the calibration is their mean.
PASSES = 5


def kernel_pass() -> float:
    """One pass of the calibration kernel."""
    rng = np.random.default_rng(7)
    values = rng.random(512)
    matrix = rng.random((20, 20))
    vector = rng.random(20)
    acc = 0.0
    table: dict[int, float] = {}
    for i in range(6000):
        x = float(values[i % 512])
        acc += x * x - (x if i & 1 else -x)
        table[i % 97] = table.get(i % 97, 0.0) + acc
        if i % 10 == 0:
            vector = matrix @ vector
            vector /= np.linalg.norm(vector)
            np.sort(values)
    json.loads(json.dumps(table))
    return acc


def calibrate() -> float:
    """Seconds of one kernel pass now: the mean of ``PASSES``."""
    start = time.perf_counter()
    for _ in range(PASSES):
        kernel_pass()
    return (time.perf_counter() - start) / PASSES


class Speed:
    """Calibrations taken between the pieces of a run's timed work.

    Create it before the first piece and call :meth:`split` after each
    one; a piece's factor comes from the calibrations either side of it.
    """

    def __init__(self) -> None:
        self.passes = [calibrate()]
        self._start = time.perf_counter()

    def restart(self) -> None:
        """Start the next piece now; what ran since the last calibration
        belongs to no piece."""
        self._start = time.perf_counter()

    def split(self) -> tuple[float, float]:
        """``(seconds, factor)`` of the work since the previous split.

        ``seconds`` is the wall time since the previous calibration
        ended; ``seconds * factor`` is that time at the reference speed.
        """
        seconds = time.perf_counter() - self._start
        self.passes.append(calibrate())
        self._start = time.perf_counter()
        return seconds, REFERENCE_S / statistics.fmean(self.passes[-2:])

    @property
    def pass_ms(self) -> float:
        """Median kernel pass over the run, ms."""
        return 1e3 * statistics.median(self.passes)
