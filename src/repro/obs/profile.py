"""Sampled host time by layer: ``sim.<layer>`` child spans.

:func:`sample` splits a block's host time by *layer* without touching
the code it measures: a ``SIGPROF`` interval timer charges each tick to
the innermost frame in the ``repro`` package, keyed by module
(``arch.cache``, ``ilr.flow``, ...; generated trace code and block-tier
shape handlers count as ``<trace>`` and ``<shape>``), and the block's
self time is split in proportion to the ticks as ``sim.<layer>`` child
spans of the span open around the block, each also written as a
``phase`` record.  Whatever tier runs is what gets sampled.

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

Which layers receive ticks varies run to run, so a sampled trace's
:meth:`~repro.obs.trace.Tracer.structure` is not deterministic.
"""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from typing import Dict, Optional

from .trace import Tracer, log_phase

__all__ = ["sample", "SAMPLE_PERIOD"]

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


@contextmanager
def sample(tracer: Tracer, events, **fields):
    """Split the block's self time by layer (see the module doc).

    A ``SIGPROF`` handler on an ``ITIMER_PROF`` timer counts ticks per
    layer while the span open at entry is the innermost one; both are
    restored on exit, also when the block raises.  The block's time less
    its child spans' is split by ticks into ``sim.<layer>`` spans laid
    end to end from its start, each logged to ``events`` with
    ``fields``.  Enter it on the main thread (signal handlers live
    there).
    """
    parent = tracer.current
    first = len(tracer.spans)
    ticks: Dict[str, int] = {}

    def tick(_signum, frame):
        if tracer.current is not parent:
            return  # a child span's time is its own
        while frame is not None:
            layer = _layer_of(frame.f_code.co_filename)
            if layer is not None:
                ticks[layer] = ticks.get(layer, 0) + 1
                return
            frame = frame.f_back

    previous = signal.signal(signal.SIGPROF, tick)
    timer = signal.setitimer(signal.ITIMER_PROF, SAMPLE_PERIOD,
                             SAMPLE_PERIOD)
    start = tracer.clock()
    try:
        yield
    finally:
        elapsed = tracer.clock() - start
        signal.setitimer(signal.ITIMER_PROF, *timer)
        signal.signal(signal.SIGPROF, previous)
        parent_id = parent.span_id if parent is not None else None
        own = elapsed - sum(span.seconds for span in tracer.spans[first:]
                            if span.parent_id == parent_id)
        total = sum(ticks.values())
        for layer, count in sorted(ticks.items()):
            seconds = own * count / total
            span = tracer.add_span("sim." + layer, seconds, start=start)
            if span is not None:
                log_phase(events, span, **fields)
            start += seconds
