"""Micro-benchmark: span tracing must stay cheap when enabled.

Compares a sequential three-spec sweep with a live
:class:`~repro.obs.trace.Tracer` against the same sweep with tracing
off, and asserts the overhead is below 5% of host runtime (ISSUE 6
acceptance criterion).  Tracing adds a handful of spans per spec
(spec -> attempt -> build/randomize/simulate), each costing one dict,
two clock reads, and a SHA-256 of a short key — nothing per retired
instruction — so the measured overhead should be far inside the budget.

Run directly (the ``Makefile verify`` target does)::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py

or through pytest: ``pytest benchmarks/bench_trace_overhead.py -q``.
Timing uses min-of-N interleaved repetitions, which is robust to
transient host noise.
"""

import time

from repro.harness import AsyncScheduler, RunSpec
from repro.obs.trace import Tracer
from repro.tools.benchgate import gate

MAX_INSTRUCTIONS = 30_000
REPETITIONS = 5
OVERHEAD_LIMIT = 0.05

SPECS = [
    RunSpec("gcc", "baseline", max_instructions=MAX_INSTRUCTIONS,
            scale=0.5),
    RunSpec("gcc", "naive_ilr", max_instructions=MAX_INSTRUCTIONS,
            scale=0.5),
    RunSpec("gcc", "vcfr", 64, max_instructions=MAX_INSTRUCTIONS,
            scale=0.5),
]


def _run_once(traced: bool) -> float:
    """One fresh sequential sweep; returns host seconds."""
    tracer = Tracer() if traced else None
    start = time.perf_counter()
    list(AsyncScheduler(workers=0, tracer=tracer).stream(SPECS))
    return time.perf_counter() - start


def measure_overhead():
    """Returns (seconds_plain, seconds_traced, overhead_fraction)."""
    # Warm both paths once (decode caches, allocator, module imports).
    _run_once(False)
    _run_once(True)
    plain = []
    traced = []
    for _ in range(REPETITIONS):  # interleave to share host noise
        plain.append(_run_once(False))
        traced.append(_run_once(True))
    best_plain = min(plain)
    best_traced = min(traced)
    overhead = (best_traced - best_plain) / best_plain
    return best_plain, best_traced, overhead


def test_span_tracing_overhead_under_5_percent():
    plain, traced, overhead = measure_overhead()
    print(
        "\ntrace overhead: plain %.4fs, traced %.4fs -> %+.2f%%"
        % (plain, traced, 100 * overhead)
    )
    gate("span_trace_overhead", "tracing_overhead", round(overhead, 4),
         OVERHEAD_LIMIT, op="<")


if __name__ == "__main__":
    test_span_tracing_overhead_under_5_percent()
    print("OK: span tracing overhead within the %.0f%% budget"
          % (100 * OVERHEAD_LIMIT))
