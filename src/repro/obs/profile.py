"""Phase profiler: attribute host wall-time to named simulator phases.

A :class:`PhaseProfiler` accumulates ``perf_counter`` deltas per phase
name via context managers::

    prof = PhaseProfiler()
    with prof.phase("randomize"):
        ...
    with prof.phase("simulate", workload="gcc", mode="vcfr"):
        ...
    print(prof.format_table())

Phases nest; time is *inclusive* (a child's time is also inside its
parent's), matching how one reads a flame graph top-down.  When an
:class:`~repro.obs.events.EventLog` is attached, each completed phase
also emits a ``phase`` record, so offline analysis
(``repro.tools.stats``) sees the same attribution as the live process.

:meth:`PhaseProfiler.sample` splits a block's time by *layer* without
touching the code it measures: a ``SIGPROF`` interval timer charges
each tick to the innermost frame in the ``repro`` package, keyed by
module (``arch.cache``, ``ilr.flow``, ...; generated trace code and
block-tier shape handlers count as ``<trace>`` and ``<shape>``), and
the block's seconds are split in proportion to the ticks as nested
``sim.<layer>`` phases.  Whatever tier runs is what gets sampled.

The split is biased by code shape, chiefly towards Python callees of
generated code.  CPython runs a signal handler only at its next
eval-breaker check (a function entry, a loop back edge, the return
from a C call), so a tick is charged to wherever that check falls, not
to where it arrived.  Straight-line Python without C calls (generated
trace code between model calls) is charged to the next function it
calls: in a controlled probe (CPython 3.11, shared 2-vCPU x86-64
host), a ``<trace:...>`` loop of 8 arithmetic
statements and one call into ``repro.arch.branch`` read 82.5% for the
callee against a true 21% (92.9% against 9.2% with 32 statements).
The bias can also run the other way: when each statement calls a C
function, a callee with no check of its own is charged to the caller's
next C call (7.5% against a true 38%).  Charging a tick that lands on a
function entry to its caller does not fix this: the callee then reads
0%.  Read the shares of the modules that generated code calls as
indications, not measurements; timing with and without a change is
the measurement.
"""

from __future__ import annotations

import os
import signal
import time
from contextlib import contextmanager
from typing import Dict, Optional

__all__ = ["PhaseProfiler"]

#: Interval of the sampler's ``ITIMER_PROF`` timer, in seconds of
#: process CPU time.  The kernel rounds it up to its tick (4 ms at
#: ``HZ=250``), so this is a request, not a guarantee.
SAMPLE_PERIOD = 0.001

#: Source directory of the ``repro`` package, with a trailing separator.
_PACKAGE_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__))) \
    + os.sep


def _layer_of(filename: str) -> Optional[str]:
    """Layer a code object's ``co_filename`` belongs to, or None when
    the code lies outside the ``repro`` package."""
    if filename.startswith(("<trace:", "<shape:")):
        return filename[:6] + ">"  # "<trace:0x401000>" -> "<trace>"
    if not filename.startswith(_PACKAGE_DIR):
        return None
    module = os.path.splitext(filename[len(_PACKAGE_DIR):])[0]
    return module.replace(os.sep, ".")


class PhaseStat:
    """Accumulated time for one phase name."""

    __slots__ = ("seconds", "calls")

    def __init__(self):
        self.seconds = 0.0
        self.calls = 0

    def add(self, seconds: float) -> None:
        self.seconds += seconds
        self.calls += 1


class PhaseProfiler:
    """Named wall-time accumulator with optional event-log mirroring."""

    def __init__(self, events=None):
        self.stats: Dict[str, PhaseStat] = {}
        self.events = events

    @contextmanager
    def phase(self, name: str, **fields):
        """Time a block under ``name``; extra ``fields`` only annotate
        the emitted event (the accumulator keys on the name alone, so
        per-workload detail lives in the log, not the table)."""
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            stat = self.stats.get(name)
            if stat is None:
                stat = self.stats[name] = PhaseStat()
            stat.add(elapsed)
            if self.events is not None:
                self.events.phase(name, elapsed, **fields)

    @contextmanager
    def sample(self, **fields):
        """Split the block's host time by layer (see the module doc).

        Arms ``ITIMER_PROF`` at :data:`SAMPLE_PERIOD` with a ``SIGPROF``
        handler that counts ticks per layer; on exit the timer and the
        handler in force before are restored (also when the block
        raises) and each layer's share of the block's wall seconds is
        added as phase ``sim.<layer>``, with its tick count as calls.
        ``fields`` annotate the emitted events.  Signal handlers can
        only be installed on the main thread, so enter it there.

        A tick is handled at the next eval-breaker check (function
        entry, loop back edge, return from a C call), so the time of
        straight-line code before a call is charged to the callee:
        Python callees of generated code read high (see the module
        doc).
        """
        ticks: Dict[str, int] = {}

        def tick(_signum, frame):
            while frame is not None:
                layer = _layer_of(frame.f_code.co_filename)
                if layer is not None:
                    ticks[layer] = ticks.get(layer, 0) + 1
                    return
                frame = frame.f_back

        previous = signal.signal(signal.SIGPROF, tick)
        timer = signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD,
                                 SAMPLE_PERIOD)
        start = time.perf_counter()
        try:
            yield self
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_PROF, *timer)
            signal.signal(signal.SIGPROF, previous)
            total = sum(ticks.values())
            for layer, count in sorted(ticks.items()):
                self.add("sim." + layer, elapsed * count / total,
                         calls=count, **fields)

    def add(self, name: str, seconds: float, calls: int = 1,
            **fields) -> None:
        """Fold externally-measured time into phase ``name``.

        :meth:`sample` deposits each layer's share here once per block
        instead of timing anything per instruction.
        """
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = PhaseStat()
        stat.seconds += seconds
        stat.calls += calls
        if self.events is not None:
            self.events.phase(name, seconds, **fields)

    def merge_snapshot(self, snapshot: Dict[str, dict]) -> None:
        """Fold another profiler's :meth:`snapshot` into this one.

        Unlike :meth:`add`, nothing is re-emitted to the event log: the
        sweep engine replays the worker's own buffered ``phase`` records
        separately, so emitting here would double-count them offline.
        """
        for name, stat in snapshot.items():
            mine = self.stats.get(name)
            if mine is None:
                mine = self.stats[name] = PhaseStat()
            mine.seconds += stat["seconds"]
            mine.calls += stat["calls"]

    # -- inspection --------------------------------------------------------

    @property
    def total_seconds(self) -> float:
        return sum(stat.seconds for stat in self.stats.values())

    def snapshot(self) -> Dict[str, dict]:
        return {
            name: {"seconds": round(stat.seconds, 6), "calls": stat.calls}
            for name, stat in self.stats.items()
        }

    def reset(self) -> None:
        self.stats.clear()

    def format_table(self, title: Optional[str] = None) -> str:
        """Aligned per-phase breakdown, hottest phase first."""
        total = self.total_seconds
        lines = []
        if title:
            lines.append(title)
        width = max([len("phase")] + [len(name) for name in self.stats])
        lines.append("%-*s %10s %7s %7s"
                     % (width, "phase", "seconds", "calls", "%"))
        for name, stat in sorted(
            self.stats.items(), key=lambda kv: -kv[1].seconds
        ):
            share = 100.0 * stat.seconds / total if total else 0.0
            lines.append(
                "%-*s %10.4f %7d %6.1f%%"
                % (width, name, stat.seconds, stat.calls, share)
            )
        lines.append("%-*s %10.4f" % (width, "total", total))
        return "\n".join(lines)
