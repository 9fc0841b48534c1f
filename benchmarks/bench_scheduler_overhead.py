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
results bit-identical, as everywhere else).  Timing is 3
order-alternated pairs, and the gate reads the most favourable of
three robust estimators
(:func:`repro.tools.benchgate.paired_overhead`).

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
import time

from repro.arch.config import default_config
from repro.harness.session import ExperimentSession
from repro.harness.spec import RunSpec
from repro.tools.benchgate import gate, paired_overhead

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

    overhead = paired_overhead(lambda: _batch_pass(session),
                               lambda: _stream_pass(session), REPEATS)
    print("\nstreaming-intake overhead: %d specs @ %d instr, %d workers | %s"
          % (SPEC_COUNT, BUDGET, WORKERS,
             overhead.describe("batch", "streamed", OVERHEAD_LIMIT)))
    gate("scheduler_overhead", "streaming_overhead",
         round(overhead.value, 4), OVERHEAD_LIMIT, op="<")


if __name__ == "__main__":
    test_streaming_overhead_is_negligible()
    print("OK: streaming scheduler is free on batch sweeps")
