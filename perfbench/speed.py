"""How fast the machine runs at the moment, from a fixed piece of reference work.

On a shared machine, neighbours slow a core by 30-60 % for seconds to
minutes at a time, and CPU time inflates with wall time, so neither clock
can subtract the disturbance, and a whole run can fall inside it.  modalred
is pure Python, so a fixed pure-Python computation timed just before and
after an instance slows down by nearly the same factor.  The benchmark
times that reference between instances, at most every ``EVERY_S`` seconds,
and reports each time scaled by ``REFERENCE_S / (median reference time of
the samples around it)``: the time the work would take on the reference
machine undisturbed.
The scale factor is close to 1 when nothing disturbs the run, and the work
measured is unchanged, so a slower program still reads slower.
"""

from __future__ import annotations

import statistics
import time

# the reference work undisturbed on the reference machine (2 vCPUs, CPython 3.11)
REFERENCE_S = 0.0021
EVERY_S = 0.1
# samples on each side of an instance that estimate the speed around it
WINDOW = 4


def _reference_work() -> int:
    # dict, tuple and int operations, the mix the program's inner loops run
    table: dict = {}
    for i in range(6000):
        key = (i & 63, i >> 6)
        table[key] = table.get(key, 0) + (i * 2654435761 & 0xFFFF).bit_length()
    return len(table)


def reference_s() -> float:
    """One timing of the reference work, in seconds."""
    began = time.perf_counter()
    _reference_work()
    return time.perf_counter() - began


def around(samples: list[float], k: int) -> float:
    """The reference time around the point just after sample ``k``."""
    return statistics.median(samples[max(k - WINDOW + 1, 0) : k + WINDOW + 1])


class Sampler:
    """Reference timings taken during a pass, at most every ``EVERY_S``."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0  # seconds the sampling itself took
        self.last = float("-inf")

    def sample(self) -> None:
        began = time.perf_counter()
        self.samples.append(reference_s())
        self.last = time.perf_counter()
        self.spent += self.last - began

    def tick(self) -> int:
        """Sample if due; the index of the latest sample."""
        if time.perf_counter() - self.last >= EVERY_S:
            self.sample()
        return len(self.samples) - 1
