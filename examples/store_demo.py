"""The queryable run store: record a sweep, query it, backfill it.

Runs a small traced sweep — cycle runs, plus one job of each other kind
(an emulation, a race point and a fleet point) — that indexes every
result into a SQLite run store, answers "best DRC size per workload"
straight from SQL (no JSONL parsing), then demonstrates the backfill
path: a *fresh* store is populated purely from the sweep's on-disk
result cache and event log, and ends up agreeing with the live one (the
cache alone restores the same number of rows of every kind).

This is the library-level version of::

    python -m repro.harness --workers 2 --store runs.sqlite \
        --cache-dir .repro-cache --events events.jsonl
    python -m repro.tools.stats best runs.sqlite --metric ipc

Run:
    PYTHONPATH=src python examples/store_demo.py
"""

import os
import shutil
import tempfile

from repro.fleet import ArrivalSpec, FleetSpec
from repro.harness import ExperimentSession, format_table
from repro.obs.events import open_log
from repro.obs.store import RunStore
from repro.obs.trace import Tracer
from repro.security.race import RaceSpec
from repro.security.rotation import RotationPolicy

WORKLOADS = ("gcc", "mcf", "bzip2")
DRC_SIZES = (64, 512)
MAX_INSTRUCTIONS = 20_000


def specs_for(session):
    specs = []
    for workload in WORKLOADS:
        specs.append(session.spec(workload, "baseline"))
        for size in DRC_SIZES:
            specs.append(session.spec(workload, "vcfr", drc_entries=size))
    specs.append(session.spec("mcf", "emulate"))
    specs.append(RaceSpec(
        policy=RotationPolicy(kind="periodic", period_instructions=5_000),
        max_instructions=MAX_INSTRUCTIONS,
    ))
    specs.append(FleetSpec(
        tenants=2, cores=1, arrival=ArrivalSpec(kind="uniform", requests=4),
    ))
    return specs


def rows_per_kind(store):
    _columns, rows = store.query(
        "SELECT kind, COUNT(*) FROM runs GROUP BY kind ORDER BY kind")
    return dict(rows)


def print_best(store, title):
    rows = store.best("ipc")
    print("\n%s" % title)
    print(format_table(
        ("workload", "best config", "ipc"),
        [(r["workload"], r["label"], "%.3f" % r["value"]) for r in rows],
    ))


def main():
    workdir = tempfile.mkdtemp(prefix="repro-store-demo-")
    store_path = os.path.join(workdir, "runs.sqlite")
    cache_dir = os.path.join(workdir, "cache")
    events_path = os.path.join(workdir, "events.jsonl")
    try:
        # 1. A traced sweep, indexed into the store as it completes.
        with open_log(events_path) as events:
            session = ExperimentSession(
                max_instructions=MAX_INSTRUCTIONS,
                cache_dir=cache_dir,
                events=events,
                tracer=Tracer(),
                store_path=store_path,
            )
            session.prefetch(specs_for(session))
        with session.store as store:
            counts = store.counts()
            live = rows_per_kind(store)
            print("recorded %d runs (%d span rollups) in %s"
                  % (counts["runs"], counts["span_rollups"], store_path))
            print_best(store, "best IPC per workload (live store):")

        # 2. Backfill: rebuild an index from pre-store artifacts alone.
        fresh_path = os.path.join(workdir, "rebuilt.sqlite")
        with RunStore(fresh_path) as fresh:
            from_cache = fresh.backfill_cache(cache_dir)
            rebuilt = rows_per_kind(fresh)
            from_events = fresh.backfill_events(events_path)
            print("\nbackfill: %d runs from the result cache, "
                  "%d from the event log"
                  % (from_cache["ingested"], from_events["ingested"]))
            print("rows per kind: live %s, rebuilt from the cache %s"
                  % (live, rebuilt))
            if rebuilt != live:
                raise SystemExit("the cache backfill lost rows")
            print_best(fresh, "best IPC per workload (rebuilt store):")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
