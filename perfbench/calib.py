"""Host-speed calibration and unit timing.

A shared host drifts in speed from run to run by far more than the
changes a benchmark has to resolve.  A fixed pure-Python reference loop,
timed in the same process beside every unit of work, moves with that
drift; rescaling by it leaves mostly the cost of the program itself.
The loop imports nothing from the program under test, so no change to
the program can change it.
"""

from __future__ import annotations

import gc
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, List, Tuple

#: What one reference loop takes on the reference host (a 2-vCPU x86-64
#: container, CPython 3.11).  Calibrated seconds read close to raw wall
#: seconds on that host when it is running at that speed.
NOMINAL_SECONDS = 0.015

#: How strongly the simulator's host time follows the reference loop's
#: as the host slows down: the slope of log(simulation seconds) against
#: log(reference seconds) over twelve processes on that host was 0.76
#: for sim_hot and 0.78 for sim_branchy (correlation 0.97-0.98).  A
#: plain ratio (exponent 1) over-corrects: the tight loop loses more
#: speed on a busy host than the simulator does.
SENSITIVITY = 0.77

_ITERATIONS = 30_000
_CHECKSUM = 1934315408


class _Cell:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0


def _step(cell: _Cell, table: dict, i: int) -> None:
    key = (cell.value ^ i) & 1023
    cell.value = (cell.value * 33 + table.get(key, i)) & 0xFFFFFFFF
    table[key] = cell.value >> 3


def reference_loop(iterations: int = _ITERATIONS) -> int:
    """Interpreter work of the simulator's kind: calls, slot attributes,
    dict probes, list indexing and masked integer arithmetic."""
    cell = _Cell()
    table: dict = {}
    lanes = [0] * 64
    for i in range(iterations):
        _step(cell, table, i)
        lanes[i & 63] += cell.value & 7
    return cell.value ^ sum(lanes)


def reference_seconds() -> float:
    """Host seconds one reference loop takes now."""
    start = time.perf_counter()
    checksum = reference_loop()
    seconds = time.perf_counter() - start
    if checksum != _CHECKSUM:
        raise RuntimeError("reference loop checksum %d != %d"
                           % (checksum, _CHECKSUM))
    return seconds


def rescale(raw_seconds: float, reference: float) -> float:
    """Raw host seconds measured while the reference loop took
    ``reference`` seconds, rescaled to the reference host's speed."""
    return raw_seconds * (NOMINAL_SECONDS / reference) ** SENSITIVITY


#: One timed unit: raw host seconds, and the same rescaled by the mean of
#: the reference timings taken just before and just after it.
Sample = Tuple[float, float]


@dataclass
class UnitTimer:
    """Times units of work, each between two reference-loop timings.

    The host's slow spells come and go within a run, so each unit is
    rescaled by the reference timings on either side of it rather than
    by one figure for the whole run.  Garbage is collected before every
    unit, outside the timed region, so one unit's garbage is not charged
    to the next.
    """

    reference: List[float] = field(default_factory=list)

    def run(self, fn: Callable, *args) -> Tuple[object, Sample]:
        """``(fn(*args), (raw, calibrated) seconds)``; exceptions
        propagate after the closing reference timing is taken."""
        gc.collect()
        before = reference_seconds()
        self.reference.append(before)
        start = time.perf_counter()
        try:
            value = fn(*args)
            raw = time.perf_counter() - start
        finally:
            after = reference_seconds()
            self.reference.append(after)
        return value, (raw, rescale(raw, (before + after) / 2))

    def calibrated(self, raw_seconds: float) -> float:
        """Raw seconds rescaled by the run's median reference timing,
        for times (such as traced spans) not bracketed as one unit."""
        return rescale(raw_seconds, statistics.median(self.reference))
