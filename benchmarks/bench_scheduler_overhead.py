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
results bit-identical, as everywhere else), read as the median of
per-round ratios over rounds of alternating passes
(:func:`repro.tools.benchgate.time_rounds`).  Both passes run inline:
a process pool adds its own wall-clock noise on small hosts.

Run directly (the ``Makefile verify`` target does)::

    PYTHONPATH=src python benchmarks/bench_scheduler_overhead.py

or through pytest: ``pytest benchmarks/bench_scheduler_overhead.py -q``.
"""

import dataclasses
import json
import time

from repro.arch.config import default_config
from repro.harness.session import ExperimentSession
from repro.harness.spec import RunSpec
from repro.tools.benchgate import gate_overhead, time_rounds

BUDGET = 1_500
SPEC_COUNT = 200
#: About 530 ms a pass: 15 rounds keep the timed work near 16 s.
ROUNDS = 15
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
    # randomization cost once, in the untimed first calls, and the
    # timed passes compare pure engine overhead.
    session = ExperimentSession(default_config())
    times = time_rounds({"batch": lambda: _batch_pass(session),
                         "streamed": lambda: _stream_pass(session)}, ROUNDS)
    gate_overhead("scheduler_overhead", "streaming_overhead", times,
                  "batch", "streamed", OVERHEAD_LIMIT)


if __name__ == "__main__":
    test_streaming_overhead_is_negligible()
    print("OK: streaming scheduler is free on batch sweeps")
