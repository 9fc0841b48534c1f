"""Structured event log: typed JSONL records through a pluggable sink.

Producers call ``log.emit(kind, **fields)``; the record is a flat dict
``{"kind": ..., "t": <seconds since log creation>, **fields}``.  Known
kinds (consumed by ``repro.tools.stats``):

``run_start``        one simulation/emulation begins (workload, mode)
``checkpoint``       periodic progress sample (instantaneous IPC, miss
                     rates since the previous checkpoint)
``phase``            one profiled host-time phase completed (seconds)
``drc_evict``        DRC evictions since the last checkpoint (aggregated
                     so a hot run cannot flood the log)
``cache_fill_burst`` a streak of consecutive IL1 fetch misses ended —
                     the signature of naive ILR's destroyed locality
``run_end``          the run finished (totals)
``spec_dispatch``    the sweep engine started (or scheduled) one
                     attempt of a spec (any job kind: run, race, fleet)
                     — the dashboard's "running" edge
``spec_done``        a spec completed (result committed; ``cached``
                     marks cache hits) — the dashboard's "done" edge
``run_retry``        a sweep attempt failed and was rescheduled
                     (attempt number, failure kind, error)
``run_failed``       a spec exhausted its attempts and was quarantined
``pool_rebuild``     a broken/wedged worker pool was replaced
``status``           free-form harness diagnostics
``rotation``         a race's rotation service re-randomized a tenant
``race_point``       one race job finished (its ``RaceResult`` fields)
``tenant_point``     one fleet job finished: one record per tenant
                     (spec echo + the tenant's latency/IPC row)

Sinks: :class:`NullSink` (drop, ``enabled == False`` so producers can
skip building expensive fields), :class:`MemorySink` (list of dicts),
:class:`FileSink` (JSONL file).  ``read_events`` loads JSONL back.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, Iterable, Iterator, List, Optional, Union

__all__ = [
    "EventLog",
    "NullSink",
    "MemorySink",
    "FileSink",
    "make_sink",
    "open_log",
    "read_events",
    "follow_events",
    "EVENT_KINDS",
]

#: The typed record vocabulary (free-form kinds are allowed but these
#: are what the stats CLI knows how to render).
EVENT_KINDS = (
    "run_start",
    "checkpoint",
    "phase",
    "drc_evict",
    "cache_fill_burst",
    "run_end",
    "spec_dispatch",
    "spec_done",
    "run_retry",
    "run_failed",
    "pool_rebuild",
    "status",
    # repro.qa differential fuzzing (tools/fuzz CLI):
    "fuzz_program",
    "fuzz_finding",
    "fuzz_end",
    # race and fleet jobs (emitted by the job itself, like run_end):
    "rotation",
    "race_point",
    "tenant_point",
)


class NullSink:
    """Drops everything; the always-on default."""

    enabled = False

    def write(self, record: dict) -> None:
        pass

    def close(self) -> None:
        pass


class MemorySink:
    """Buffers records in a list (tests, in-process consumers)."""

    enabled = True

    def __init__(self):
        self.records: List[dict] = []

    def write(self, record: dict) -> None:
        self.records.append(record)

    def close(self) -> None:
        pass


class FileSink:
    """Appends one JSON object per line to ``path``.

    Single-writer by design: only the parent process may hold a
    FileSink.  Sweep workers buffer into a :class:`MemorySink` and the
    parent merges via :meth:`EventLog.replay`, so parallel runs cannot
    interleave partial lines into the JSONL stream.
    """

    enabled = True

    def __init__(self, path: str, append: bool = False):
        self.path = path
        self._fh = open(path, "a" if append else "w")

    def write(self, record: dict) -> None:
        self._fh.write(json.dumps(record, sort_keys=True) + "\n")

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.flush()
            self._fh.close()


def make_sink(spec: Optional[str]):
    """Sink from a CLI spec: None/"null" -> null, "memory" -> memory,
    anything else -> a JSONL file at that path."""
    if spec is None or spec == "null":
        return NullSink()
    if spec == "memory":
        return MemorySink()
    return FileSink(spec)


class EventLog:
    """Typed event emitter bound to one sink.

    ``log.enabled`` mirrors the sink: producers guard *expensive field
    construction* behind it (emit itself is always safe to call).
    Timestamps are seconds relative to log creation, so diffs between
    two captured logs line up regardless of wall-clock epoch.
    """

    def __init__(self, sink=None):
        self.sink = sink if sink is not None else NullSink()
        self.enabled = self.sink.enabled
        self._t0 = time.perf_counter()
        self._seq = 0

    def emit(self, kind: str, **fields) -> None:
        if not self.enabled:
            return
        record: Dict[str, object] = {
            "kind": kind,
            "seq": self._seq,
            "t": round(time.perf_counter() - self._t0, 6),
        }
        record.update(fields)
        self._seq += 1
        self.sink.write(record)

    # Convenience wrappers: keep producer call sites short and the
    # field names consistent across subsystems.

    def run_start(self, workload: str, mode: str, **fields) -> None:
        self.emit("run_start", workload=workload, mode=mode, **fields)

    def run_end(self, workload: str, mode: str, **fields) -> None:
        self.emit("run_end", workload=workload, mode=mode, **fields)

    def phase(self, phase: str, seconds: float, **fields) -> None:
        self.emit("phase", phase=phase, seconds=round(seconds, 6), **fields)

    def status(self, message: str, **fields) -> None:
        self.emit("status", message=message, **fields)

    def replay(self, records: Iterable[dict], **extra_fields) -> None:
        """Merge records captured in another process into this log.

        File sinks are **not** multi-process safe: concurrent workers
        appending to one JSONL file interleave partial lines and corrupt
        the stream.  The sweep engine therefore gives each worker an
        in-memory :class:`MemorySink` and the parent replays the buffered
        records here, serializing all file writes in one process.

        Replayed records keep their original fields (including the
        worker-relative ``t``) but are re-sequenced into this log's
        ``seq`` ordering so the merged stream stays monotonic.
        ``extra_fields`` are stamped onto every replayed record
        (e.g. a worker id) without overriding existing keys.
        """
        if not self.enabled:
            return
        for record in records:
            merged = dict(record)
            for key, value in extra_fields.items():
                merged.setdefault(key, value)
            merged["seq"] = self._seq
            self._seq += 1
            self.sink.write(merged)

    def close(self) -> None:
        self.sink.close()

    # Context-manager sugar so CLIs can ``with open_log(path) as log:``.

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_log(spec: Optional[str]) -> EventLog:
    """EventLog from a CLI ``--events`` spec (see :func:`make_sink`)."""
    return EventLog(make_sink(spec))


def _wanted_kinds(kinds: Optional[Iterable[str]],
                  kind: Optional[str]) -> Optional[set]:
    """Normalize the two kind-filter spellings into one set (or None)."""
    wanted = set(kinds) if kinds is not None else None
    if kind is not None:
        wanted = (wanted or set()) | {kind}
    return wanted


def _parse_line(line: str) -> Optional[dict]:
    """One JSONL line -> record, or None for blank/corrupt lines.

    Blank lines and undecodable (truncated) lines are *skipped*, never
    raised: a process killed mid-write — the exact scenario the
    fault-tolerant sweep engine recovers from — leaves a partial final
    line, and the captured events before it must stay analyzable.
    """
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except ValueError:
        return None  # truncated/corrupt line from a killed writer
    return record if isinstance(record, dict) else None


def read_events(path: str,
                kinds: Optional[Iterable[str]] = None,
                since: Optional[int] = None,
                kind: Optional[str] = None) -> List[dict]:
    """Load a JSONL event file, optionally filtered.

    ``kinds`` keeps only those record kinds (``kind`` is single-kind
    sugar for the common case); ``since`` keeps records whose ``seq``
    is strictly greater — pass the last ``seq`` already consumed to
    poll a growing log incrementally without re-reading history.
    """
    wanted = _wanted_kinds(kinds, kind)
    records: List[dict] = []
    with open(path) as fh:
        for line in fh:
            record = _parse_line(line)
            if record is None:
                continue
            if wanted is not None and record.get("kind") not in wanted:
                continue
            if since is not None and record.get("seq", 0) <= since:
                continue
            records.append(record)
    return records


def follow_events(path: str,
                  kinds: Optional[Iterable[str]] = None,
                  kind: Optional[str] = None,
                  poll_interval: float = 0.2,
                  stop=None,
                  from_start: bool = True) -> Iterator[dict]:
    """``tail -f`` a JSONL event log: yield records as they are written.

    The live half of :func:`read_events`, built for the sweep dashboard
    and ``stats tail``: a partially written final line (the writer is
    mid-``write``) is *buffered*, not dropped — it is yielded once its
    newline arrives, so a follower never loses or mangles a record that
    a later :func:`read_events` would have seen.

    ``stop`` is an optional zero-argument callable polled whenever the
    file is exhausted; returning True ends the generator (otherwise it
    follows forever, like ``tail -f``).  ``from_start=False`` seeks to
    the current end first and yields only new records.
    """
    wanted = _wanted_kinds(kinds, kind)
    buffer = ""
    with open(path) as fh:
        if not from_start:
            fh.seek(0, os.SEEK_END)
        while True:
            chunk = fh.read()
            if chunk:
                buffer += chunk
                while "\n" in buffer:
                    line, buffer = buffer.split("\n", 1)
                    record = _parse_line(line)
                    if record is None:
                        continue
                    if wanted is not None and record.get("kind") not in wanted:
                        continue
                    yield record
            else:
                if stop is not None and stop():
                    return
                time.sleep(poll_interval)
