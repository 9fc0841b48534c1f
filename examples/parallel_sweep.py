"""Parallel DRC design-space sweep with a persistent result cache.

Fans a (workload x DRC-size) sweep out over worker processes via the
RunSpec-keyed sweep engine, then reruns it to show the on-disk result
cache serving everything without a single new simulation.  Delete the
cache directory (printed at the end) to make the sweep cold again.

This is the library-level version of::

    python -m repro.harness --workers 4 --cache-dir .repro-cache

Run:
    PYTHONPATH=src python examples/parallel_sweep.py
"""

import time

from repro.harness import ExperimentSession, format_table
from repro.harness.spec import RunSpec

WORKLOADS = ("gcc", "mcf", "xalan", "h264ref")
DRC_SIZES = (64, 128, 512)
MAX_INSTRUCTIONS = 20_000
WORKERS = 4
CACHE_DIR = ".repro-cache-example"


def sweep_specs(session: ExperimentSession) -> list:
    """Baseline + every DRC size, per workload — one RunSpec each."""
    specs = []
    for workload in WORKLOADS:
        specs.append(session.spec(workload, "baseline"))
        for size in DRC_SIZES:
            specs.append(session.spec(workload, "vcfr", drc_entries=size))
    return specs


def run_sweep(tag: str) -> ExperimentSession:
    session = ExperimentSession(max_instructions=MAX_INSTRUCTIONS,
                                workers=WORKERS, cache_dir=CACHE_DIR)
    specs = sweep_specs(session)
    start = time.perf_counter()
    session.prefetch(specs)
    elapsed = time.perf_counter() - start
    stats = session.cache.stats()
    print("%s: %d specs in %.2fs  (cache: %d hits, %d simulated)"
          % (tag, len(specs), elapsed, stats["hits"], stats["misses"]))
    return session


def main():
    print("sweep: %d workloads x (baseline + DRC %s), %d workers\n"
          % (len(WORKLOADS), "/".join(map(str, DRC_SIZES)), WORKERS))
    run_sweep("cold (or prior cache)")
    session = run_sweep("warm rerun       ")

    rows = []
    for workload in WORKLOADS:
        base = session.run(session.spec(workload, "baseline"))
        row = [workload]
        for size in DRC_SIZES:
            vcfr = session.run(
                RunSpec(workload, "vcfr", drc_entries=size,
                        seed=session.seed, scale=session.scale,
                        max_instructions=MAX_INSTRUCTIONS)
            )
            row.append("%.3f" % (vcfr.ipc / base.ipc if base.ipc else 0.0))
        rows.append(tuple(row))
    print()
    print(format_table(
        ("app",) + tuple("DRC %d" % s for s in DRC_SIZES), rows,
    ))
    print("\nnormalized IPC vs baseline; cache dir: %s" % CACHE_DIR)


if __name__ == "__main__":
    main()
