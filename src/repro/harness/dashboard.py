"""Live TTY sweep dashboard fed by the structured event stream.

``python -m repro.harness --dashboard`` renders a small self-updating
status block on stderr while a sweep runs: per-spec progress (which
specs are in flight, on which attempt), done/cached/failed counts,
retry/quarantine totals, the cache hit rate, and a rolling IPC
sparkline from ``checkpoint`` events.

The dashboard is a pure *consumer* of the event vocabulary in
:mod:`repro.obs.events` — it learns everything from ``spec_dispatch``,
``spec_done``, ``run_retry``, ``run_failed``, ``pool_rebuild``, and
``checkpoint`` records.  It also understands the fuzzing vocabulary
(``fuzz_program`` counts as a completed unit of work, ``fuzz_finding``
as a failure), so ``python -m repro.tools.fuzz --dashboard`` renders
the same status block over a fuzzing session.  :meth:`Dashboard.attach` tees an
:class:`~repro.obs.events.EventLog`'s sink, so the same records that go
to the JSONL file (or nowhere) also drive the display; :meth:`feed`
accepts records from :func:`~repro.obs.events.follow_events`, so the
same dashboard can watch a *different process's* sweep by tailing its
event file.

Everything is injectable (stream, clock, ANSI on/off, render interval)
so tests drive it deterministically against a ``StringIO``.
"""

from __future__ import annotations

import sys
import time
from collections import deque
from typing import Dict, Iterable, List, Optional

__all__ = ["Dashboard"]

_BARS = "▁▂▃▄▅▆▇█"


def _sparkline(values: Iterable[float]) -> str:
    values = list(values)
    if not values:
        return ""
    lo, hi = min(values), max(values)
    spread = (hi - lo) or 1.0
    return "".join(
        _BARS[int((v - lo) / spread * (len(_BARS) - 1))] for v in values
    )


def _label(record: dict) -> str:
    """Spec label of an engine record: its ``label`` field, rebuilt
    from the run fields (mirroring ``RunSpec.label``) for records that
    predate it."""
    if "label" in record:
        return record["label"]
    workload = record.get("workload", "?")
    mode = record.get("mode", "?")
    if mode == "vcfr":
        return "%s/vcfr@%d" % (workload, record.get("drc_entries", 0))
    return "%s/%s" % (workload, mode)


class _TeeSink:
    """Sink wrapper: every record feeds the dashboard, then the inner
    sink.  ``enabled`` is True even over a :class:`NullSink` inner —
    the dashboard needs the records even when nothing is persisted."""

    enabled = True

    def __init__(self, inner, dashboard: "Dashboard"):
        self.inner = inner
        self.dashboard = dashboard

    def write(self, record: dict) -> None:
        self.dashboard.observe(record)
        self.inner.write(record)

    def close(self) -> None:
        self.inner.close()


class Dashboard:
    """Rolling sweep status renderer.

    On a TTY (``ansi=True``) the block redraws in place via cursor-up;
    otherwise it degrades to an occasional plain status line, so piping
    stderr to a file stays readable.  Rendering is throttled to
    ``interval`` seconds — event bursts cost one string format, not one
    redraw each.
    """

    def __init__(self, stream=None, total: int = 0, *,
                 interval: float = 0.25, ansi: Optional[bool] = None,
                 clock=None, ipc_window: int = 40):
        self.stream = stream if stream is not None else sys.stderr
        self.total = total
        self.interval = interval
        if ansi is None:
            ansi = bool(getattr(self.stream, "isatty", lambda: False)())
        self.ansi = ansi
        self.clock = clock if clock is not None else time.monotonic
        #: label -> attempt currently in flight.
        self.running: Dict[str, int] = {}
        self.done = 0
        self.cached = 0
        self.failed = 0
        self.findings = 0
        self.retries = 0
        self.pool_rebuilds = 0
        #: rotation-service race telemetry.
        self.races = 0
        self.rotations = 0
        #: datacenter-fleet telemetry (``tenant_point`` events).
        self.fleet_tenants = 0
        self.fleet_served = 0
        #: execution-tier totals from ``run_end`` tier telemetry.
        self.block_execs = 0
        self.trace_entries = 0
        self.trace_bailouts = 0
        self.ipc = deque(maxlen=ipc_window)
        self._last_render = None
        self._last_lines = 0
        self._log = None

    # -- wiring ------------------------------------------------------------

    def attach(self, log) -> None:
        """Tee ``log``'s sink through this dashboard.

        Forces the log on (a dashboard over a null sink still needs the
        records); the original sink still receives every record, so
        ``--events`` output is unchanged by ``--dashboard``.
        """
        log.sink = _TeeSink(log.sink, self)
        log.enabled = True
        self._log = log

    def feed(self, records: Iterable[dict]) -> None:
        """Drive the dashboard from an external record stream (e.g.
        ``follow_events`` tailing another process's JSONL log)."""
        for record in records:
            self.observe(record)

    # -- state -------------------------------------------------------------

    def observe(self, record: dict) -> None:
        kind = record.get("kind")
        if kind == "spec_dispatch":
            self.running[_label(record)] = record.get("attempt", 0)
        elif kind == "spec_done":
            self.running.pop(_label(record), None)
            self.done += 1
            if record.get("cached"):
                self.cached += 1
        elif kind == "run_retry":
            self.retries += 1
        elif kind == "run_failed":
            self.running.pop(_label(record), None)
            self.done += 1
            self.failed += 1
        elif kind == "pool_rebuild":
            self.pool_rebuilds += 1
        elif kind == "checkpoint" and "ipc" in record:
            self.ipc.append(record["ipc"])
        elif kind == "run_end" and record.get("tiers"):
            tiers = record["tiers"]
            blocks = tiers.get("blocks") or {}
            traces = tiers.get("traces") or {}
            self.block_execs += blocks.get("execs", 0)
            self.trace_entries += traces.get("entries", 0)
            self.trace_bailouts += traces.get("bailouts", 0)
        elif kind == "fuzz_program":
            self.done += 1
            if not record.get("ok", True):
                self.failed += 1
        elif kind == "fuzz_finding":
            self.findings += 1
        elif kind == "race_point":
            self.races += 1
        elif kind == "rotation":
            self.rotations += 1
        elif kind == "tenant_point":
            self.fleet_tenants += 1
            self.fleet_served += record.get("served", 0)
        else:
            return
        self.maybe_render()

    # -- rendering ---------------------------------------------------------

    def render(self) -> str:
        """The current status block (pure; no I/O)."""
        total = " / %d" % self.total if self.total else ""
        head = "sweep %d%s done" % (self.done, total)
        parts = [head]
        if self.cached:
            rate = 100.0 * self.cached / max(1, self.done)
            parts.append("cache %d (%.0f%%)" % (self.cached, rate))
        if self.failed:
            parts.append("failed %d" % self.failed)
        if self.findings:
            parts.append("findings %d" % self.findings)
        if self.retries:
            parts.append("retries %d" % self.retries)
        if self.pool_rebuilds:
            parts.append("pool rebuilds %d" % self.pool_rebuilds)
        if self.races or self.rotations:
            race = "races %d" % self.races
            if self.rotations:
                race += " rot %d" % self.rotations
            parts.append(race)
        if self.fleet_tenants:
            parts.append("fleet %d tenants %d served"
                         % (self.fleet_tenants, self.fleet_served))
        if self.block_execs or self.trace_entries:
            tier = "tiers blk %d" % self.block_execs
            if self.trace_entries:
                tier += " trc %d" % self.trace_entries
            if self.trace_bailouts:
                tier += " bail %d" % self.trace_bailouts
            parts.append(tier)
        if self.ipc:
            parts.append("ipc %s %.3f" % (_sparkline(self.ipc),
                                          self.ipc[-1]))
        lines: List[str] = ["  ".join(parts)]
        for label in sorted(self.running):
            attempt = self.running[label]
            suffix = "  (attempt %d)" % attempt if attempt else ""
            lines.append("  > %s%s" % (label, suffix))
        return "\n".join(lines)

    def maybe_render(self) -> None:
        now = self.clock()
        if (self._last_render is not None
                and now - self._last_render < self.interval):
            return
        self._last_render = now
        self._draw(self.render())

    def finish(self) -> None:
        """Render the final state unconditionally."""
        self._draw(self.render())
        if self.ansi:
            self.stream.write("\n")
            self.stream.flush()

    def _draw(self, block: str) -> None:
        if self.ansi:
            out = ""
            if self._last_lines:
                # Cursor up over the previous block, erase to bottom.
                out += "\x1b[%dA\x1b[J" % self._last_lines
            out += block + "\n"
            # The trailing newline leaves the cursor one row below the
            # block, so next redraw rewinds over every written line.
            self._last_lines = block.count("\n") + 1
            self.stream.write(out)
        else:
            # Non-TTY: single-line summaries only (no control codes).
            self.stream.write(block.split("\n", 1)[0] + "\n")
        self.stream.flush()
