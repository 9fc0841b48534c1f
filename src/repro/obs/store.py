"""SQLite-backed run store: every completed run, indexed and queryable.

The experiment suite's durable memory.  JSONL event logs are perfect
for streaming one sweep's telemetry but answering *"best DRC config per
workload across every run ever"* by rescanning JSONL is O(history);
:class:`RunStore` indexes each completed run — spec fingerprint,
machine-config digest, the key architectural stats (IPC, miss rates,
DRC activity), host wall time, attempt/fault counters, and per-name
span rollups — in one SQLite file that ``repro.tools.stats`` queries
directly (``best``/``compare``/``history``/``sql``).  Race and fleet
jobs land in the same ``runs`` table, told apart by its ``kind``
column, with their whole result in a JSON ``payload`` column
(``stats race`` / ``stats fleet``).

Write discipline mirrors :class:`~repro.harness.resultcache.ResultCache`
commit-as-you-go: the sweep engine records each run the moment it
completes (and commits immediately), so a later crash loses nothing
already finished.  Like the event log's :class:`FileSink
<repro.obs.events.FileSink>`, the store is **single-writer,
parent-process-only** — workers ship results back and the parent
records them, so SQLite never sees multi-process write contention.

Schema versioning: the ``meta`` table stores ``schema_version``; a
store created by a different schema is *refused*, not migrated —
the store is a derived index, so the recovery path is cheap and total:
delete the file and re-run :meth:`backfill_cache` /
:meth:`backfill_events` over the primary artifacts (cache directories,
JSONL logs).  The cache holds every job kind, so a backfill restores
race and fleet rows along with the cycle and emulation runs.  That
keeps this module free of migration machinery.

This module is importable with **zero** repro dependencies beyond
``repro.obs`` itself (specs and results are duck-typed), so the obs
package never drags the harness in — the harness imports *us*.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .events import read_events

__all__ = ["RunStore", "SCHEMA_VERSION", "STORE_METRICS", "LOWER_IS_BETTER"]

SCHEMA_VERSION = 2

#: Queryable metric columns of the ``runs`` table.
STORE_METRICS = (
    "ipc",
    "il1_miss_rate",
    "dl1_miss_rate",
    "l2_miss_rate",
    "drc_miss_rate",
    "cycles",
    "instructions",
    "host_seconds",
)

#: Metrics where smaller wins (everything else: bigger wins).
LOWER_IS_BETTER = frozenset(
    ("il1_miss_rate", "dl1_miss_rate", "l2_miss_rate", "drc_miss_rate",
     "cycles", "host_seconds")
)

_META = """
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
"""

#: One ``runs`` row per job of any kind (``run``, ``race``, ``fleet``):
#: the metric columns hold what the job's result has of them, and
#: ``payload`` holds a race or fleet result's full ``as_dict()`` JSON.
_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    id                  INTEGER PRIMARY KEY,
    spec_key            TEXT NOT NULL,
    kind                TEXT NOT NULL DEFAULT 'run',
    workload            TEXT NOT NULL,
    mode                TEXT NOT NULL,
    drc_entries         INTEGER NOT NULL DEFAULT 0,
    seed                INTEGER,
    scale               REAL,
    max_instructions    INTEGER,
    warmup_instructions INTEGER,
    config_digest       TEXT NOT NULL DEFAULT '',
    status              TEXT NOT NULL DEFAULT 'ok',
    source              TEXT NOT NULL DEFAULT 'sweep',
    attempts            INTEGER NOT NULL DEFAULT 1,
    cached              INTEGER NOT NULL DEFAULT 0,
    instructions        INTEGER,
    cycles              INTEGER,
    ipc                 REAL,
    il1_miss_rate       REAL,
    dl1_miss_rate       REAL,
    l2_miss_rate       REAL,
    drc_lookups         INTEGER,
    drc_misses          INTEGER,
    drc_miss_rate       REAL,
    host_seconds        REAL,
    host_instructions   INTEGER,
    error               TEXT,
    payload             TEXT,
    created_at          REAL NOT NULL,
    UNIQUE (spec_key, config_digest, source, created_at)
);
CREATE INDEX IF NOT EXISTS idx_runs_kind ON runs (kind);
CREATE INDEX IF NOT EXISTS idx_runs_workload ON runs (workload, mode);
CREATE INDEX IF NOT EXISTS idx_runs_spec ON runs (spec_key);
CREATE TABLE IF NOT EXISTS span_rollups (
    run_id  INTEGER NOT NULL REFERENCES runs (id),
    name    TEXT NOT NULL,
    seconds REAL NOT NULL,
    calls   INTEGER NOT NULL
);
CREATE INDEX IF NOT EXISTS idx_rollups_run ON span_rollups (run_id);
CREATE TABLE IF NOT EXISTS findings (
    id            INTEGER PRIMARY KEY,
    session_seed  INTEGER,
    program_index INTEGER,
    oracle_seed   INTEGER,
    kinds         TEXT,
    detail        TEXT,
    path          TEXT,
    shrunk_lines  INTEGER,
    source        TEXT NOT NULL DEFAULT 'fuzz',
    created_at    REAL NOT NULL,
    UNIQUE (session_seed, program_index, source)
);
"""


def _spec_dict(spec) -> dict:
    """Canonical plain-dict form of a spec-like object.

    Accepts a :class:`~repro.harness.spec.RunSpec` (normalized first)
    or an already-plain dict — duck typing keeps this module free of
    harness imports.
    """
    if hasattr(spec, "normalized"):
        return spec.normalized().as_dict()
    return dict(spec)


class RunStore:
    """One SQLite file of runs, span rollups, and fuzz findings."""

    def __init__(self, path: str):
        self.path = path
        parent = os.path.dirname(os.path.abspath(path))
        os.makedirs(parent, exist_ok=True)
        self._conn = sqlite3.connect(path)
        self._conn.executescript(_META)
        row = self._conn.execute(
            "SELECT value FROM meta WHERE key = 'schema_version'"
        ).fetchone()
        # Checked before the tables are touched: an older schema's
        # tables lack columns this one's indexes name.
        if row is not None and int(row[0]) != SCHEMA_VERSION:
            self._conn.close()
            raise RuntimeError(
                "run store %s has schema v%s, this build expects v%d; "
                "the store is a derived index — delete it and re-run "
                "'python -m repro.tools.stats backfill'" %
                (path, row[0], SCHEMA_VERSION)
            )
        self._conn.executescript(_SCHEMA)
        if row is None:
            self._conn.execute(
                "INSERT INTO meta (key, value) VALUES ('schema_version', ?)",
                (str(SCHEMA_VERSION),),
            )
            self._conn.commit()

    # -- keys --------------------------------------------------------------

    @staticmethod
    def spec_key(spec) -> str:
        """Content digest of the normalized spec (config-independent).

        Deliberately *excludes* the machine config — the same spec swept
        across machine variants shares a key, and ``config_digest`` is a
        separate column — so history queries can follow one spec across
        timing-model revisions.
        """
        payload = json.dumps(_spec_dict(spec), sort_keys=True)
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    # -- recording ---------------------------------------------------------

    def record_run(self, spec, result, *, kind: Optional[str] = None,
                   config_digest: str = "", source: str = "sweep",
                   attempts: int = 1, cached: bool = False,
                   host_seconds: float = 0.0,
                   spans: Optional[Dict[str, dict]] = None,
                   created_at: Optional[float] = None) -> int:
        """Index one completed job of any kind; commits before returning.

        ``spec`` is a job spec (its ``kind`` becomes the row's) or a
        plain spec dict, whose job kind is ``kind`` (default ``run``).
        ``result`` is duck-typed: a cycle-simulator
        :class:`~repro.arch.simstats.SimResult`, an emulator result (has
        ``run.icount``), a race or fleet result (also kept whole as the
        row's JSON ``payload``), or any of these as its ``as_dict()``
        from a backfill.  ``host_seconds`` is the wall time of the one
        attempt that produced ``result``, never failed attempts or retry
        backoff, and ``spans`` (shaped like
        :func:`~repro.obs.trace.rollup_spans`) rolls up that attempt.
        """
        kind = kind or getattr(spec, "kind", "run")
        payload = None
        if kind != "run":
            data = result if isinstance(result, dict) else result.as_dict()
            payload = json.dumps(data, sort_keys=True)
        run_id = self._insert_run(
            kind, _spec_dict(spec), _result_columns(result), status="ok",
            source=source, attempts=attempts, cached=cached,
            host_seconds=host_seconds, error=None, payload=payload,
            config_digest=config_digest, created_at=created_at,
        )
        if run_id is not None and spans:
            self._conn.executemany(
                "INSERT INTO span_rollups (run_id, name, seconds, calls) "
                "VALUES (?, ?, ?, ?)",
                [(run_id, name, entry["seconds"], entry["calls"])
                 for name, entry in sorted(spans.items())],
            )
        self._conn.commit()
        return run_id if run_id is not None else -1

    def record_failure(self, spec, error: str, *, config_digest: str = "",
                       source: str = "sweep", attempts: int = 1,
                       created_at: Optional[float] = None) -> int:
        """Index a quarantined spec (status ``failed``); commits."""
        run_id = self._insert_run(
            getattr(spec, "kind", "run"), _spec_dict(spec), {},
            status="failed", source=source, attempts=attempts, cached=False,
            host_seconds=0.0, error=error, payload=None,
            config_digest=config_digest, created_at=created_at,
        )
        self._conn.commit()
        return run_id if run_id is not None else -1

    def record_finding(self, finding: dict, *, session_seed: int,
                       source: str = "fuzz",
                       created_at: Optional[float] = None) -> None:
        """Index one fuzz finding (``FuzzFinding.as_dict`` shape).

        Idempotent per (session seed, program index, source): replaying
        the same deterministic session does not duplicate rows.
        """
        self._conn.execute(
            "INSERT OR IGNORE INTO findings (session_seed, program_index, "
            "oracle_seed, kinds, detail, path, shrunk_lines, source, "
            "created_at) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (session_seed, finding.get("index"), finding.get("seed"),
             ",".join(finding.get("kinds", ())), finding.get("detail"),
             finding.get("path"), finding.get("shrunk_lines"),
             source, created_at if created_at is not None else time.time()),
        )
        self._conn.commit()

    def _insert_run(self, kind: str, fields: dict, stats: dict, *,
                    status: str, source: str, attempts: int, cached: bool,
                    host_seconds: float, error: Optional[str],
                    payload: Optional[str], config_digest: str,
                    created_at: Optional[float]) -> Optional[int]:
        key = self.spec_key(fields)
        cursor = self._conn.execute(
            "INSERT OR IGNORE INTO runs (spec_key, kind, workload, mode, "
            "drc_entries, seed, scale, max_instructions, "
            "warmup_instructions, config_digest, status, source, attempts, "
            "cached, instructions, cycles, ipc, il1_miss_rate, "
            "dl1_miss_rate, l2_miss_rate, drc_lookups, drc_misses, "
            "drc_miss_rate, host_seconds, host_instructions, error, "
            "payload, created_at) "
            "VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?, "
            "?, ?, ?, ?, ?, ?, ?, ?, ?, ?)",
            (
                key,
                kind,
                fields.get("workload", "?"),
                # a race has no protection mode: its kind stands in
                fields.get("mode", kind),
                fields.get("drc_entries", 0) or 0,
                fields.get("seed"),
                fields.get("scale"),
                fields.get("max_instructions"),
                fields.get("warmup_instructions"),
                config_digest,
                status,
                source,
                attempts,
                1 if cached else 0,
                stats.get("instructions"),
                stats.get("cycles"),
                stats.get("ipc"),
                stats.get("il1_miss_rate"),
                stats.get("dl1_miss_rate"),
                stats.get("l2_miss_rate"),
                stats.get("drc_lookups"),
                stats.get("drc_misses"),
                stats.get("drc_miss_rate"),
                round(host_seconds, 6),
                stats.get("host_instructions"),
                error,
                payload,
                created_at if created_at is not None else time.time(),
            ),
        )
        # INSERT OR IGNORE: a duplicate (backfill re-run) inserts nothing.
        return cursor.lastrowid if cursor.rowcount else None

    # -- queries -----------------------------------------------------------

    def best(self, metric: str = "ipc", *, mode: Optional[str] = None,
             workload: Optional[str] = None) -> List[dict]:
        """Best row per workload by ``metric`` across all indexed runs.

        "Best" honors :data:`LOWER_IS_BETTER` (miss rates, cycles, and
        host time minimize; IPC and throughput maximize).  The paper's
        design-space question — best DRC config per workload — is
        ``best("ipc", mode="vcfr")``.
        """
        if metric not in STORE_METRICS:
            raise ValueError("unknown metric %r (one of %s)"
                             % (metric, ", ".join(STORE_METRICS)))
        order = "ASC" if metric in LOWER_IS_BETTER else "DESC"
        where, params = _filters(mode=mode, workload=workload)
        rows = self._conn.execute(
            "SELECT workload, mode, drc_entries, %s AS value, attempts, "
            "source, created_at FROM runs "
            "WHERE kind = 'run' AND status = 'ok' AND %s IS NOT NULL%s "
            "ORDER BY workload ASC, value %s, created_at ASC"
            % (metric, metric, where, order),
            params,
        ).fetchall()
        out: List[dict] = []
        seen = set()
        for workload_, mode_, drc, value, attempts, source, created in rows:
            if workload_ in seen:
                continue
            seen.add(workload_)
            out.append({
                "workload": workload_,
                "label": _mode_label(mode_, drc),
                "metric": metric,
                "value": value,
                "attempts": attempts,
                "source": source,
                "created_at": created,
            })
        return out

    def compare(self, a: str, b: str, metric: str = "ipc") -> List[dict]:
        """Per-workload ``a`` vs ``b`` on ``metric`` (latest run each).

        ``a``/``b`` are mode labels — ``baseline``, ``naive_ilr``,
        ``vcfr`` (any DRC size), or ``vcfr@64`` (that size exactly).
        """
        if metric not in STORE_METRICS:
            raise ValueError("unknown metric %r (one of %s)"
                             % (metric, ", ".join(STORE_METRICS)))
        left = self._latest_by_workload(a, metric)
        right = self._latest_by_workload(b, metric)
        out: List[dict] = []
        for workload in sorted(set(left) & set(right)):
            va, vb = left[workload], right[workload]
            out.append({
                "workload": workload,
                "metric": metric,
                "a": va,
                "b": vb,
                "ratio": (vb / va) if va else 0.0,
            })
        return out

    def _latest_by_workload(self, label: str, metric: str) -> Dict[str, float]:
        mode, _, drc = label.partition("@")
        where = " AND mode = ?"
        params: List[object] = [mode]
        if drc:
            where += " AND drc_entries = ?"
            params.append(int(drc))
        rows = self._conn.execute(
            "SELECT workload, %s FROM runs "
            "WHERE kind = 'run' AND status = 'ok' AND %s IS NOT NULL%s "
            "ORDER BY created_at ASC" % (metric, metric, where),
            params,
        ).fetchall()
        # ASC + overwrite: the latest run per workload wins.
        return {workload: value for workload, value in rows}

    def history(self, *, workload: Optional[str] = None,
                mode: Optional[str] = None, limit: int = 20) -> List[dict]:
        """Most recent jobs of every kind (including failures), newest
        first; race and fleet rows are labelled by their kind."""
        where, params = _filters(mode=mode, workload=workload)
        rows = self._conn.execute(
            "SELECT workload, mode, drc_entries, status, source, attempts, "
            "cached, ipc, host_seconds, error, created_at, kind "
            "FROM runs WHERE 1=1%s ORDER BY created_at DESC, id DESC "
            "LIMIT ?" % where,
            params + [limit],
        ).fetchall()
        return [
            {
                "workload": r[0],
                "label": _mode_label(r[1], r[2]) if r[11] == "run" else r[11],
                "status": r[3], "source": r[4], "attempts": r[5],
                "cached": bool(r[6]), "ipc": r[7], "host_seconds": r[8],
                "error": r[9], "created_at": r[10],
            }
            for r in rows
        ]

    def payloads(self, kind: str) -> List[dict]:
        """Result payloads of the ``kind`` jobs (``race``/``fleet``):
        the latest ok row per spec and machine config, oldest first."""
        rows = self._conn.execute(
            "SELECT payload FROM runs WHERE id IN (SELECT MAX(id) FROM runs "
            "WHERE kind = ? AND status = 'ok' "
            "GROUP BY spec_key, config_digest) ORDER BY id",
            (kind,),
        ).fetchall()
        return [json.loads(payload) for (payload,) in rows]

    def query(self, sql: str, params: Sequence = ()) -> Tuple[List[str], List[tuple]]:
        """Raw SQL passthrough: ``(column names, rows)``."""
        cursor = self._conn.execute(sql, tuple(params))
        columns = [d[0] for d in cursor.description or []]
        return columns, cursor.fetchall()

    def rollups(self, run_id: int) -> Dict[str, dict]:
        """Span rollups recorded for one run."""
        rows = self._conn.execute(
            "SELECT name, seconds, calls FROM span_rollups "
            "WHERE run_id = ? ORDER BY name", (run_id,),
        ).fetchall()
        return {name: {"seconds": seconds, "calls": calls}
                for name, seconds, calls in rows}

    def findings(self, *, session_seed: Optional[int] = None) -> List[dict]:
        where, params = "", []
        if session_seed is not None:
            where, params = " WHERE session_seed = ?", [session_seed]
        rows = self._conn.execute(
            "SELECT session_seed, program_index, oracle_seed, kinds, "
            "detail, path, shrunk_lines, source, created_at FROM findings"
            + where + " ORDER BY session_seed, program_index", params,
        ).fetchall()
        return [
            {
                "session_seed": r[0], "index": r[1], "seed": r[2],
                "kinds": r[3].split(",") if r[3] else [], "detail": r[4],
                "path": r[5], "shrunk_lines": r[6], "source": r[7],
                "created_at": r[8],
            }
            for r in rows
        ]

    def counts(self) -> Dict[str, int]:
        out = {}
        for table in ("runs", "findings", "span_rollups"):
            out[table] = self._conn.execute(
                "SELECT COUNT(*) FROM %s" % table
            ).fetchone()[0]
        return out

    # -- backfill ----------------------------------------------------------

    def backfill_cache(self, root: str) -> Dict[str, int]:
        """Ingest a :class:`ResultCache` directory: one row per entry.

        Works on every cache layout by walking the whole tree and
        recognizing entry files by shape rather than location: the flat
        ``root/<digest>.json``, the two-level ``root/ab/<digest>.json``,
        and the sharded ``root/ab/<digest>/result.json`` all hold the
        same ``{"kind": ..., "spec": ..., "config": ..., "result": ...}``
        document, for every job kind.  Each entry becomes a row of its
        ``kind`` (entries written before the field existed are cycle
        runs), race and fleet results with their ``payload``, so a store
        rebuilt from the cache answers ``stats race`` and ``stats
        fleet`` too.  The walk order is sorted, so ingestion is
        deterministic across filesystems; the entry's own ``config``
        fingerprint (when present — older entries predate it) becomes
        the row's ``config_digest``; the file mtime becomes
        ``created_at``, making re-runs idempotent (the uniqueness
        constraint ignores exact duplicates).  Work-queue ``claim``
        files, orphaned ``.tmp-*`` writes and any other non-JSON file
        are ignored; an unreadable JSON entry is counted as skipped.
        """
        ingested = skipped = 0
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                if not name.endswith(".json") or name.startswith(".tmp-"):
                    continue
                try:
                    with open(path) as fh:
                        entry = json.load(fh)
                    spec, result = entry["spec"], entry["result"]
                except (OSError, ValueError, KeyError, TypeError):
                    skipped += 1
                    continue
                run_id = self.record_run(
                    spec, result, kind=entry.get("kind", "run"),
                    source="backfill-cache", cached=True,
                    created_at=os.stat(path).st_mtime,
                    config_digest=entry.get("config", ""),
                )
                if run_id >= 0:
                    ingested += 1
        return {"ingested": ingested, "skipped": skipped}

    def backfill_events(self, path: str) -> Dict[str, int]:
        """Ingest a JSONL event log: ``run_end`` rows + fuzz findings.

        Event logs carry a run's telemetry, not its full spec (seed,
        scale, and budgets are not stamped on events), so backfilled
        rows key on the fields events do carry; ``created_at`` is the
        log file's mtime so re-ingestion is idempotent.
        """
        mtime = os.stat(path).st_mtime
        ingested = findings = 0
        session_seed = None
        for record in read_events(path):
            kind = record.get("kind")
            if kind == "fuzz_program":
                session_seed = record.get("session_seed", session_seed)
            elif kind == "run_end":
                spec = {
                    "workload": record.get("workload", "?"),
                    "mode": record.get("mode", "?"),
                    "drc_entries": record.get("drc_entries", 0),
                }
                run_id = self.record_run(
                    spec, record, source="backfill-events",
                    attempts=record.get("attempt", 0) + 1,
                    host_seconds=record.get("host_seconds", 0.0),
                    created_at=mtime + record.get("t", 0.0),
                )
                if run_id >= 0:
                    ingested += 1
            elif kind == "fuzz_finding":
                seed = record.get("session_seed", session_seed)
                self.record_finding(
                    record, session_seed=seed if seed is not None else -1,
                    source="backfill-events", created_at=mtime,
                )
                findings += 1
        return {"ingested": ingested, "findings": findings}

    # -- lifecycle ---------------------------------------------------------

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "RunStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "RunStore(path=%r)" % self.path


def _mode_label(mode: str, drc_entries: int) -> str:
    return "%s@%d" % (mode, drc_entries) if mode == "vcfr" else mode


def _filters(*, mode: Optional[str],
             workload: Optional[str]) -> Tuple[str, List[object]]:
    where = ""
    params: List[object] = []
    if mode:
        base, _, drc = mode.partition("@")
        where += " AND mode = ?"
        params.append(base)
        if drc:
            where += " AND drc_entries = ?"
            params.append(int(drc))
    if workload:
        where += " AND workload = ?"
        params.append(workload)
    return where, params


#: Metric columns read off a result object (None where it has none).
_RESULT_COLUMNS = (
    "instructions", "cycles", "ipc", "il1_miss_rate", "dl1_miss_rate",
    "l2_miss_rate", "drc_lookups", "drc_misses", "drc_miss_rate",
    "host_instructions",
)


def _result_columns(result) -> dict:
    """Key stats from a duck-typed result (any job kind, or a dict)."""
    if isinstance(result, dict):
        data = result
        if "cycles" in data and "il1" in data:
            # SimResult.as_dict shape (cache backfill): derive the rates
            # the live object derives via its properties.
            return {
                "instructions": data.get("instructions"),
                "cycles": data.get("cycles"),
                "ipc": _ratio(data.get("instructions"), data.get("cycles")),
                "il1_miss_rate": _rate(data.get("il1")),
                "dl1_miss_rate": _rate(data.get("dl1")),
                "l2_miss_rate": _rate(data.get("l2")),
                "drc_lookups": data.get("drc_lookups"),
                "drc_misses": data.get("drc_misses"),
                "drc_miss_rate": _ratio(data.get("drc_misses"),
                                        data.get("drc_lookups")),
            }
        # run_end event shape (events backfill): rates precomputed.  An
        # EmulationResult.as_dict counts guest instructions as ``icount``.
        columns = {key: data.get(key) for key in _RESULT_COLUMNS}
        columns["instructions"] = data.get("instructions", data.get("icount"))
        return columns
    columns = {key: getattr(result, key, None) for key in _RESULT_COLUMNS}
    if columns["instructions"] is None and hasattr(result, "run"):
        # EmulationResult counts guest instructions as ``run.icount``.
        columns["instructions"] = result.run.icount
    return columns


def _ratio(numerator, denominator):
    if not numerator and not denominator:
        return 0.0
    if numerator is None or not denominator:
        return None
    return numerator / denominator


def _rate(stats) -> Optional[float]:
    if not stats:
        return 0.0
    if "misses" not in stats or "accesses" not in stats:
        return None
    return _ratio(stats["misses"], stats["accesses"])
