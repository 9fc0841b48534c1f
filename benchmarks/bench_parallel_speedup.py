"""Gate benchmark: the sweep engine must actually buy wall-clock time.

Runs the cold experiment-suite sweep (every cycle-simulation RunSpec the
paper suite needs) three ways and asserts the contract ISSUE 2 commits
to:

1. **cold sequential** — baseline wall-clock, no cache;
2. **cold parallel** — same specs, ``--workers 4``: results must be
   bit-identical and, when the host actually has >= 4 cores, at least
   1.8x faster (>= 2 cores: >= 1.2x — the threshold scales with the
   parallelism the machine can physically deliver; on a single-core host
   the speedup is reported, and only a bounded-overhead sanity check is
   enforced, since no process pool can beat sequential there);
3. **warm cached** — a rerun against the populated result cache: every
   spec a cache hit (no misses, no writes) and near-instant (< 20% of
   the cold sequential time).

Run directly (the ``Makefile verify`` target does)::

    PYTHONPATH=src python benchmarks/bench_parallel_speedup.py

or through pytest: ``pytest benchmarks/bench_parallel_speedup.py -q``.
"""

import os
import shutil
import tempfile
import time

from repro.arch.tracecache import clear_code_cache
from repro.harness import ExperimentSession, suite_specs
from repro.harness.spec import RunSpec
from repro.tools.benchgate import gate

WORKERS = 4
BUDGET = 20_000
SPEEDUP_4CORE = 1.8
SPEEDUP_2CORE = 1.2
#: Pool bring-up + pickling overhead tolerated on a single-core host.
SINGLE_CORE_SLOWDOWN_LIMIT = 1.6
WARM_FRACTION_LIMIT = 0.20


def _suite() -> list:
    """The cold suite: every distinct cycle-simulation spec the paper
    experiments need (emulation excluded: this gate times the cycle
    simulator's sweep)."""
    runner = ExperimentSession(max_instructions=BUDGET)
    return [spec for spec in suite_specs(runner) if spec.is_simulation]


def _timed_sweep(specs, workers=0, cache_dir=None):
    """(seconds, results-as-dicts, runner) for one fresh sweep.  Each
    sweep starts from a cold trace-code cache, so that forked workers
    do not inherit the code an earlier leg compiled."""
    clear_code_cache()
    runner = ExperimentSession(max_instructions=BUDGET, workers=workers,
                               cache_dir=cache_dir)
    start = time.perf_counter()
    runner.prefetch(specs)
    elapsed = time.perf_counter() - start
    results = [runner.run(spec).as_dict() for spec in specs]
    return elapsed, results, runner


def test_parallel_sweep_speedup_and_warm_cache():
    specs = _suite()
    cache_dir = tempfile.mkdtemp(prefix="bench-sweep-cache-")
    try:
        seq_s, seq_results, _ = _timed_sweep(specs)
        par_s, par_results, _ = _timed_sweep(specs, workers=WORKERS,
                                             cache_dir=cache_dir)
        warm_s, warm_results, warm_runner = _timed_sweep(
            specs, workers=WORKERS, cache_dir=cache_dir
        )

        cores = os.cpu_count() or 1
        speedup = seq_s / par_s if par_s else float("inf")
        print(
            "\nparallel sweep: %d specs @ %d instr, %d cores | "
            "sequential %.2fs, %d workers %.2fs (%.2fx), warm %.2fs"
            % (len(specs), BUDGET, cores, seq_s, WORKERS, par_s, speedup,
               warm_s)
        )

        # Correctness before speed: the pool and the cache must be
        # invisible in the numbers.
        assert par_results == seq_results, (
            "parallel sweep changed simulation results"
        )
        assert warm_results == seq_results, (
            "cached results differ from fresh simulation"
        )

        # Warm rerun: zero simulations, near-instant.
        assert warm_runner.cache.stats() == {
            "hits": len(specs), "misses": 0, "writes": 0,
        }, "warm rerun still performed cycle simulations"
        gate("parallel_speedup", "warm_fraction",
             round(warm_s / seq_s, 4), WARM_FRACTION_LIMIT, op="<")

        # Speedup, scaled to what the host can physically provide.
        if cores >= 4:
            gate("parallel_speedup", "speedup_4core",
                 round(speedup, 2), SPEEDUP_4CORE)
        elif cores >= 2:
            gate("parallel_speedup", "speedup_2core",
                 round(speedup, 2), SPEEDUP_2CORE)
        else:
            # One core: parallel cannot win; just bound the overhead.
            gate("parallel_speedup", "single_core_slowdown",
                 round(par_s / seq_s, 4), SINGLE_CORE_SLOWDOWN_LIMIT,
                 op="<=")
            print("single-core host: %.1fx threshold not applicable, "
                  "overhead bound %.2fx enforced instead"
                  % (SPEEDUP_4CORE, SINGLE_CORE_SLOWDOWN_LIMIT))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _smoke_spec_sanity():
    # The suite must contain the DRC sweep (the sweep-shaped workload
    # this engine exists for).
    specs = _suite()
    drc_sizes = {spec.drc_entries for spec in specs
                 if spec.mode == "vcfr"}
    assert {64, 128, 512} <= drc_sizes, drc_sizes
    assert all(isinstance(spec, RunSpec) for spec in specs)


if __name__ == "__main__":
    _smoke_spec_sanity()
    test_parallel_sweep_speedup_and_warm_cache()
    print("OK: parallel sweep + warm cache within budget")
