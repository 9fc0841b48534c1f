"""Simulator-wide observability layer.

Three independent instruments, designed to be threaded through every
subsystem without coupling them to each other, plus a sampler:

* :mod:`repro.obs.events` — a structured event log emitting typed JSONL
  records (``run_start``, ``phase``, ``checkpoint``, ``drc_evict``,
  ``spec_dispatch``, ``spec_done``, ``run_end``, ...) through a
  pluggable sink (null / in-memory / file), replacing ad-hoc prints;
  :func:`~repro.obs.events.follow_events` tails a growing log live.
* :mod:`repro.obs.trace` — hierarchical span tracing (``sweep → spec →
  attempt → phase``) with deterministic content-derived span ids,
  pickle-safe cross-process capture, and Chrome ``trace_event`` export:
  the one host-time instrument.  A phase is a span that also writes a
  ``phase`` record; :func:`~repro.obs.trace.span_table` renders host
  time by span path.
* :mod:`repro.obs.store` — a SQLite run store indexing every completed
  run (spec fingerprint, config digest, key stats, span rollups) plus
  fuzz findings, with backfill from cache directories and JSONL logs.
* :mod:`repro.obs.profile` — a ``SIGPROF`` sampler that splits a
  simulation's time into ``sim.<layer>`` child spans.

Run statistics live on result objects and ``run_end`` events (tier
telemetry in their ``tiers`` field); the sweep engine's fault counts
are a plain counter, :data:`repro.harness.sweep.FAULT_COUNTS`.
``repro.tools.stats`` consumes both surfaces: JSONL logs for one-sweep
analysis, the run store for cross-history queries (``best`` /
``compare`` / ``history`` / raw SQL).  :func:`status` (stderr chatter),
:func:`format_table` (aligned text tables) and :func:`sparkline`
(inline series) are the output helpers every CLI and report shares.
"""

from __future__ import annotations

import sys
from typing import Sequence

from .events import (
    EventLog,
    FileSink,
    MemorySink,
    NullSink,
    follow_events,
    make_sink,
    open_log,
    read_events,
)
from .store import RunStore
from .trace import NULL_TRACER, Span, TickClock, Tracer, rollup_spans

__all__ = [
    "EventLog",
    "NullSink",
    "MemorySink",
    "FileSink",
    "make_sink",
    "open_log",
    "read_events",
    "follow_events",
    "Span",
    "Tracer",
    "TickClock",
    "NULL_TRACER",
    "rollup_spans",
    "RunStore",
    "status",
    "format_table",
    "sparkline",
]


def status(message: str) -> None:
    """Print a diagnostic/progress line to stderr.

    Every CLI routes its non-product chatter ("wrote X", timings,
    heartbeats) through here so machine-readable stdout (``--json``,
    report tables) is never polluted.
    """
    print(message, file=sys.stderr, flush=True)


def format_table(headers, rows) -> str:
    """Align ``rows`` under ``headers`` with simple column padding."""
    table = [tuple(str(c) for c in headers)]
    table += [tuple(str(c) for c in row) for row in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
    lines = []
    for idx, row in enumerate(table):
        lines.append("  ".join(
            cell.ljust(widths[i]) for i, cell in enumerate(row)
        ).rstrip())
        if idx == 0:
            lines.append("  ".join("-" * widths[i]
                                   for i in range(len(headers))))
    return "\n".join(lines)


#: Eight-level bar glyphs for inline sparklines.
_SPARK = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float]) -> str:
    """Unicode sparkline scaled to the series' own min..max (a flat
    series sits mid-height)."""
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = hi - lo
    if span <= 0:
        return _SPARK[3] * len(values)
    return "".join(
        _SPARK[min(7, int((v - lo) / span * 7.999))] for v in values
    )
