"""Hierarchical span tracing: causal wall-time trees for sweeps.

ISSUE 1's instruments answer "how much" (counters) and "where did host
time go in aggregate" (the phase profiler); they cannot answer *why was
this spec slow* — which attempt, which phase, behind which retry wait.
A :class:`Tracer` records **spans**: named, nested intervals forming a
tree (``sweep → spec → attempt → phase``, plus dedicated spans for
``apply_rerandomization`` epochs and retry/backoff waits).

Determinism is the design center (and what makes traces testable):

* **Span ids are content-derived, never random.**  A span's id is a
  SHA-256 prefix of either an explicit ``span_key`` (the sweep engine
  keys spec spans by the spec's own hash) or of
  ``parent_id/name#occurrence``.  The same RunSpec therefore produces
  the byte-identical span tree on every run, and a worker process
  derives the *same* ids the sequential path would — so a pooled
  sweep's adopted spans line up exactly with an inline sweep's.
  A corollary: ``span_id_for_key`` lets a producer reference a span's
  id *before* the span exists (the scheduler parents retry-wait
  spans under a spec span that is only materialized when the spec is
  emitted).
* **The clock is injectable.**  The default is ``time.perf_counter``;
  tests pass a :class:`TickClock` so start/end times are exact.
* **Worker capture is pickle-safe.**  Workers trace into their own
  :class:`Tracer`, :meth:`export` the spans as plain dicts, and the
  parent :meth:`adopt`\\ s them (re-parenting roots) on result merge —
  the same single-writer discipline as :meth:`EventLog.replay
  <repro.obs.events.EventLog.replay>`.

:meth:`Tracer.structure` is the canonical *tree* view — names, ids,
parents, and fields, with times excluded — used by the determinism
tests (wall-clock differs between sequential and pooled execution; the
tree must not).  :meth:`Tracer.to_chrome` exports Chrome
``trace_event`` JSON for ``chrome://tracing`` / Perfetto flamegraphs,
and :func:`rollup_spans` folds a span list into per-name
seconds/calls totals (the shape stored per run by
:class:`~repro.obs.store.RunStore`).
"""

from __future__ import annotations

import hashlib
import json
import time
from contextlib import contextmanager
from typing import Dict, Iterable, List, Optional

__all__ = [
    "Span",
    "Tracer",
    "TickClock",
    "NULL_TRACER",
    "span_id_for_key",
    "rollup_spans",
]


def span_id_for_key(key: str) -> str:
    """The (deterministic) span id an explicit ``span_key`` yields."""
    return hashlib.sha256(key.encode()).hexdigest()[:16]


class TickClock:
    """Deterministic clock: each reading advances by ``step`` seconds.

    Substituting this for ``perf_counter`` makes a trace's times a pure
    function of the span sequence, so tests can assert exact start/end
    values (and two captures of the same run are byte-identical,
    timestamps included).
    """

    def __init__(self, step: float = 0.001):
        self.step = step
        self._ticks = 0

    def __call__(self) -> float:
        now = self._ticks * self.step
        self._ticks += 1
        return now


class Span:
    """One named interval in the trace tree."""

    __slots__ = ("name", "span_id", "parent_id", "start", "end", "fields")

    def __init__(self, name: str, span_id: str, parent_id: Optional[str],
                 start: float, end: Optional[float] = None,
                 fields: Optional[dict] = None):
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.end = end
        self.fields = fields or {}

    @property
    def seconds(self) -> float:
        return (self.end - self.start) if self.end is not None else 0.0

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "id": self.span_id,
            "parent": self.parent_id,
            "t0": self.start,
            "t1": self.end,
            "fields": dict(self.fields),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Span":
        return cls(data["name"], data["id"], data.get("parent"),
                   data.get("t0", 0.0), data.get("t1"),
                   dict(data.get("fields", {})))


class Tracer:
    """Span recorder with deterministic ids and an injectable clock.

    A disabled tracer (:data:`NULL_TRACER`) costs one attribute check
    per ``span()`` entry and records nothing, so producers thread a
    tracer unconditionally the same way they thread an
    :class:`~repro.obs.events.EventLog`.
    """

    def __init__(self, enabled: bool = True, clock=None,
                 root_key: str = "trace"):
        self.enabled = enabled
        self.clock = clock if clock is not None else time.perf_counter
        self.root_key = root_key
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        #: (parent_id, name) -> occurrences, for derived ids.
        self._occurrences: Dict[tuple, int] = {}

    # -- id derivation -----------------------------------------------------

    def _derive_id(self, parent_id: Optional[str], name: str,
                   span_key: Optional[str]) -> str:
        if span_key is not None:
            return span_id_for_key(span_key)
        scope = (parent_id or self.root_key, name)
        index = self._occurrences.get(scope, 0)
        self._occurrences[scope] = index + 1
        return span_id_for_key("%s/%s#%d" % (scope[0], name, index))

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, span_key: Optional[str] = None, **fields):
        """Record a span around the ``with`` body.

        ``span_key`` pins the span's id to an explicit content key
        (identical across processes and runs); without it the id
        derives from the parent id, the name, and the per-parent
        occurrence count — deterministic as long as the structure is.
        Yields the open :class:`Span` (None when disabled).
        """
        if not self.enabled:
            yield None
            return
        parent_id = self._stack[-1].span_id if self._stack else None
        span = Span(name, self._derive_id(parent_id, name, span_key),
                    parent_id, self.clock(), None, fields)
        self.spans.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = self.clock()

    def add_span(self, name: str, seconds: float, *,
                 parent_id: Optional[str] = None,
                 span_key: Optional[str] = None, **fields) -> Optional[Span]:
        """Record an already-elapsed interval as a completed span.

        Used where a ``with`` block cannot wrap the interval — e.g. the
        scheduler's retry backoffs, which are scheduling delays rather
        than blocking sleeps.  ``parent_id`` may name a span that does
        not exist yet (ids are content-derived, so the parent's id is
        known before the span is materialized at merge time).
        """
        if not self.enabled:
            return None
        if parent_id is None and self._stack:
            parent_id = self._stack[-1].span_id
        end = self.clock()
        span = Span(name, self._derive_id(parent_id, name, span_key),
                    parent_id, end - seconds, end, fields)
        self.spans.append(span)
        return span

    # -- cross-process capture ---------------------------------------------

    def export(self) -> List[dict]:
        """All spans as plain (pickle/JSON-safe) dicts, in record order."""
        return [span.as_dict() for span in self.spans]

    def adopt(self, records: Iterable[dict],
              parent_id: Optional[str] = None) -> None:
        """Graft spans exported by another tracer into this trace.

        Root spans (``parent is None``) are re-parented under
        ``parent_id`` (or the current open span), so a worker's attempt
        subtree lands exactly where the sequential path would have
        recorded it.  Non-root spans keep their (content-derived)
        parent links — they already match.
        """
        if not self.enabled:
            return
        if parent_id is None and self._stack:
            parent_id = self._stack[-1].span_id
        for record in records:
            span = Span.from_dict(record)
            if span.parent_id is None:
                span.parent_id = parent_id
            self.spans.append(span)

    # -- views -------------------------------------------------------------

    def _children(self) -> Dict[Optional[str], List[Span]]:
        children: Dict[Optional[str], List[Span]] = {}
        ids = {span.span_id for span in self.spans}
        for span in self.spans:
            # Spans whose parent was never recorded here (e.g. adopted
            # fragments) group as roots so no span is unreachable.
            parent = span.parent_id if span.parent_id in ids else None
            children.setdefault(parent, []).append(span)
        return children

    def structure(self) -> List[dict]:
        """The canonical span *tree*: everything except the times.

        Two runs of the same work — sequential or pooled, today or
        tomorrow — produce byte-identical structures
        (``json.dumps(tracer.structure(), sort_keys=True)``); only
        ``t0``/``t1`` vary run to run.
        """
        children = self._children()

        def node(span: Span) -> dict:
            return {
                "name": span.name,
                "id": span.span_id,
                "fields": dict(span.fields),
                "children": [node(c) for c in children.get(span.span_id, [])],
            }

        return [node(span) for span in children.get(None, [])]

    def subtree(self, span_id: str) -> List[dict]:
        """The span with ``span_id`` plus every descendant, exported."""
        children = self._children()
        by_id = {span.span_id: span for span in self.spans}
        out: List[dict] = []
        queue = [by_id[span_id]] if span_id in by_id else []
        while queue:
            span = queue.pop(0)
            out.append(span.as_dict())
            queue.extend(children.get(span.span_id, []))
        return out

    def to_chrome(self, path: str) -> int:
        """Write Chrome ``trace_event`` JSON (complete ``X`` events).

        Load in ``chrome://tracing`` or https://ui.perfetto.dev for a
        flamegraph.  Adopted worker spans keep the times the worker's
        tracer read from its default clock, ``time.perf_counter``, which
        is the host's system-wide monotonic clock (``CLOCK_MONOTONIC`` on
        Linux); so when this tracer uses the default clock too, a
        worker's spans nest inside the parent's as exactly as spans
        recorded in one process.  Returns the span count written.
        """
        events = []
        for span in self.spans:
            events.append({
                "name": span.name,
                "ph": "X",
                "ts": round(span.start * 1e6, 3),
                "dur": round(span.seconds * 1e6, 3),
                "pid": 1,
                "tid": 1,
                "args": dict(span.fields, span_id=span.span_id,
                             parent=span.parent_id),
            })
        with open(path, "w") as fh:
            json.dump({"traceEvents": events,
                       "displayTimeUnit": "ms"}, fh)
        return len(events)

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        self._occurrences = {}


#: Shared disabled tracer: thread it anywhere a tracer is optional.
NULL_TRACER = Tracer(enabled=False)


def rollup_spans(records: Iterable[dict]) -> Dict[str, dict]:
    """Fold exported spans into ``{name: {"seconds", "calls"}}`` totals.

    The per-run aggregation stored by the run store (and the natural
    diffable summary of a trace).  Open spans (``t1 is None``) count a
    call with zero seconds.
    """
    totals: Dict[str, dict] = {}
    for record in records:
        name = record["name"]
        entry = totals.setdefault(name, {"seconds": 0.0, "calls": 0})
        t0, t1 = record.get("t0"), record.get("t1")
        if t0 is not None and t1 is not None:
            entry["seconds"] += t1 - t0
        entry["calls"] += 1
    for entry in totals.values():
        entry["seconds"] = round(entry["seconds"], 6)
    return totals
