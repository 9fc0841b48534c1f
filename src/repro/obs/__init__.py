"""Simulator-wide observability layer.

Five independent instruments, designed to be threaded through every
subsystem without coupling them to each other:

* :mod:`repro.obs.metrics` — an always-on metrics registry (counters,
  gauges, fixed-bucket histograms) with snapshot/reset semantics.  The
  hot simulation loops keep their ``__slots__`` stat dataclasses; the
  registry is the cross-run aggregation point they sync into.
* :mod:`repro.obs.events` — a structured event log emitting typed JSONL
  records (``run_start``, ``phase``, ``checkpoint``, ``drc_evict``,
  ``spec_dispatch``, ``spec_done``, ``run_end``, ...) through a
  pluggable sink (null / in-memory / file), replacing ad-hoc prints;
  :func:`~repro.obs.events.follow_events` tails a growing log live.
* :mod:`repro.obs.profile` — context-manager phase timers attributing
  host wall-time to simulator phases and harness stages.
* :mod:`repro.obs.trace` — hierarchical span tracing (``sweep → spec →
  attempt → phase``) with deterministic content-derived span ids,
  pickle-safe cross-process capture, and Chrome ``trace_event`` export.
* :mod:`repro.obs.store` — a SQLite run store indexing every completed
  run (spec fingerprint, config digest, key stats, span rollups) plus
  fuzz findings, with backfill from cache directories and JSONL logs.

``repro.tools.stats`` consumes both surfaces: JSONL logs for one-sweep
analysis, the run store for cross-history queries (``best`` /
``compare`` / ``history`` / raw SQL).  :func:`status` (stderr chatter)
and :func:`format_table` (aligned text tables) are the output helpers
every CLI and report shares.
"""

from __future__ import annotations

import sys

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
from .metrics import Counter, Gauge, Histogram, MetricsRegistry, get_registry
from .profile import PhaseProfiler
from .store import RunStore
from .trace import NULL_TRACER, Span, TickClock, Tracer, rollup_spans

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "EventLog",
    "NullSink",
    "MemorySink",
    "FileSink",
    "make_sink",
    "open_log",
    "read_events",
    "follow_events",
    "PhaseProfiler",
    "Span",
    "Tracer",
    "TickClock",
    "NULL_TRACER",
    "rollup_spans",
    "RunStore",
    "status",
    "format_table",
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
