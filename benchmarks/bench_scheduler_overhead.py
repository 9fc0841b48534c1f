"""Gate benchmark: streaming intake must be free on batch workloads.

Batch callers (``ExperimentSession.sweep``, ``prefetch``) hand their
whole spec list to the streaming
:class:`~repro.harness.scheduler.AsyncScheduler`, the same engine that
also serves million-spec generators, so the streaming machinery —
bounded intake window, input-order emission parking, async bridging on
the pooled path — must cost ~nothing when the source is just a
200-spec batch.  This gate runs the same 200 specs
two ways:

1. **batch** — ``ExperimentSession.sweep``, the list-in/list-out
   surface every batch caller gets;
2. **streamed** — the same specs fed one by one from a generator
   through :meth:`AsyncScheduler.stream` of the same session's
   scheduler;

and asserts the streamed pass stays within 5% of the batch pass (plus
results bit-identical, as everywhere else).  Timing is median-of-3
with order-alternated pairs, and the gate takes the most favorable of
three robust estimators (min-vs-min, median-vs-median, median of
per-pair ratios) — the same anti-flake scheme as
``bench_fault_overhead``: a real constant-per-spec regression lifts
all three estimators together, host noise rarely does.

Run directly (the ``Makefile verify`` target does)::

    PYTHONPATH=src python benchmarks/bench_scheduler_overhead.py

or through pytest: ``pytest benchmarks/bench_scheduler_overhead.py -q``.
``BENCH_SCHED_BUDGET`` (instructions per run, default 1500),
``BENCH_SCHED_SPECS`` (spec count, default 200), and
``BENCH_SCHED_WORKERS`` (default 0: the pooled path's process pools
add their own wall-clock noise on small hosts; set 2+ to gate the
async-pooled bridge instead) trade fidelity against gate runtime.
"""

import dataclasses
import json
import os
import statistics
import time

from repro.arch.config import default_config
from repro.harness.session import ExperimentSession
from repro.harness.spec import RunSpec
from repro.tools.benchgate import gate

BUDGET = int(os.environ.get("BENCH_SCHED_BUDGET", "1500"))
SPEC_COUNT = int(os.environ.get("BENCH_SCHED_SPECS", "200"))
WORKERS = int(os.environ.get("BENCH_SCHED_WORKERS", "0"))
REPEATS = 3
OVERHEAD_LIMIT = 0.05

#: Seed-varied specs over a few workloads: 200 distinct cache keys and
#: programs, each cheap enough that per-spec engine bookkeeping is a
#: measurable fraction of the pass.
_BASES = [
    RunSpec("mcf", "baseline", max_instructions=BUDGET),
    RunSpec("mcf", "vcfr", drc_entries=64, max_instructions=BUDGET),
    RunSpec("bzip2", "baseline", max_instructions=BUDGET),
    RunSpec("bzip2", "vcfr", drc_entries=128, max_instructions=BUDGET),
]
SPECS = [
    dataclasses.replace(_BASES[i % len(_BASES)],
                        seed=1 + i // len(_BASES)).normalized()
    for i in range(SPEC_COUNT)
]


def _batch_pass(session):
    """The batch surface: one session.sweep() call over the full list."""
    start = time.perf_counter()
    outcomes = session.sweep(SPECS)
    elapsed = time.perf_counter() - start
    return elapsed, [json.dumps(o.result.as_dict(), sort_keys=True)
                     for o in outcomes]


def _stream_pass(session):
    """The streaming surface: the same specs fed from a generator."""
    scheduler = session.scheduler()
    start = time.perf_counter()
    outcomes = list(scheduler.stream(spec for spec in SPECS))
    elapsed = time.perf_counter() - start
    assert scheduler.high_water <= scheduler.window
    return elapsed, [json.dumps(o.result.as_dict(), sort_keys=True)
                     for o in outcomes]


def test_streaming_overhead_is_negligible():
    # One session, so one program memo: both paths then pay the
    # randomization cost once, and the measured passes compare pure
    # engine overhead.
    session = ExperimentSession(default_config(), workers=WORKERS)
    _batch_pass(session)
    _stream_pass(session)

    ratios, batch_times, stream_times = [], [], []
    reference = None
    for iteration in range(REPEATS):
        if iteration % 2 == 0:
            batch_s, batch_results = _batch_pass(session)
            stream_s, stream_results = _stream_pass(session)
        else:
            stream_s, stream_results = _stream_pass(session)
            batch_s, batch_results = _batch_pass(session)
        batch_times.append(batch_s)
        stream_times.append(stream_s)
        ratios.append(stream_s / batch_s)
        reference = reference or batch_results
        assert batch_results == reference
        assert stream_results == reference, (
            "streaming scheduler changed simulation results"
        )

    estimators = {
        "min": min(stream_times) / min(batch_times),
        "median": (statistics.median(stream_times)
                   / statistics.median(batch_times)),
        "paired": statistics.median(ratios),
    }
    name = min(estimators, key=estimators.get)
    overhead = estimators[name] - 1.0
    print(
        "\nstreaming-intake overhead: %d specs @ %d instr, %d workers | "
        "batch median %.3fs, streamed median %.3fs | overhead %+.2f%% "
        "via %s (min %+.2f%%, median %+.2f%%, paired %+.2f%%; limit "
        "%.0f%%)"
        % (SPEC_COUNT, BUDGET, WORKERS,
           statistics.median(batch_times), statistics.median(stream_times),
           100 * overhead, name,
           100 * (estimators["min"] - 1),
           100 * (estimators["median"] - 1),
           100 * (estimators["paired"] - 1),
           100 * OVERHEAD_LIMIT)
    )
    gate("scheduler_overhead", "streaming_overhead", round(overhead, 4),
         OVERHEAD_LIMIT, op="<")


if __name__ == "__main__":
    test_streaming_overhead_is_negligible()
    print("OK: streaming scheduler is free on batch sweeps")
