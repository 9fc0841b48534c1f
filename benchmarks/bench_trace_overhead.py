"""Micro-benchmark: span tracing must stay cheap when enabled.

Compares a sequential three-spec sweep with a live
:class:`~repro.obs.trace.Tracer` against the same sweep with tracing
off, and asserts the overhead is below 5% of host runtime, read as the
median of per-round ratios over rounds of alternating sweeps
(:func:`repro.tools.benchgate.time_rounds`); both sweeps must return
the same results.  Tracing adds a handful of spans per spec
(spec -> attempt -> build/randomize/simulate), each costing one dict,
two clock reads, and a SHA-256 of a short key — nothing per retired
instruction.

Run directly (the ``Makefile verify`` target does)::

    PYTHONPATH=src python benchmarks/bench_trace_overhead.py

or through pytest: ``pytest benchmarks/bench_trace_overhead.py -q``.
"""

import time

from repro.harness import AsyncScheduler, RunSpec
from repro.obs.trace import Tracer
from repro.tools.benchgate import gate_overhead, time_rounds

MAX_INSTRUCTIONS = 30_000
#: About 230 ms a sweep: 21 rounds keep the timed work near 10 s.
ROUNDS = 21
OVERHEAD_LIMIT = 0.05

SPECS = [
    RunSpec("gcc", "baseline", max_instructions=MAX_INSTRUCTIONS,
            scale=0.5),
    RunSpec("gcc", "naive_ilr", max_instructions=MAX_INSTRUCTIONS,
            scale=0.5),
    RunSpec("gcc", "vcfr", 64, max_instructions=MAX_INSTRUCTIONS,
            scale=0.5),
]


def _run_once(traced: bool):
    """One fresh sequential sweep: (host seconds, result dicts)."""
    tracer = Tracer() if traced else None
    start = time.perf_counter()
    outcomes = list(AsyncScheduler(workers=0, tracer=tracer).stream(SPECS))
    elapsed = time.perf_counter() - start
    return elapsed, [o.result.as_dict() for o in outcomes]


def test_span_tracing_overhead_under_5_percent():
    times = time_rounds({"plain": lambda: _run_once(False),
                         "traced": lambda: _run_once(True)}, ROUNDS)
    gate_overhead("span_trace_overhead", "tracing_overhead", times,
                  "plain", "traced", OVERHEAD_LIMIT)


if __name__ == "__main__":
    test_span_tracing_overhead_under_5_percent()
    print("OK: span tracing overhead within the %.0f%% budget"
          % (100 * OVERHEAD_LIMIT))
