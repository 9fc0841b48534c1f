"""Micro-benchmark: the always-on observability path must stay cheap.

Compares a 50k-instruction cycle simulation with the always-on
observability path active (periodic checkpointing into a null event
log) against the same simulation with checkpointing off, and asserts
the overhead is below 5% of host runtime, read as the median of
per-round ratios over rounds of alternating runs
(:func:`repro.tools.benchgate.time_rounds`).  Both runs must return
the same result.  The gate keeps its historical ``metrics_overhead``
key so ``benchgate --compare`` reads the committed baseline.

Run directly (the ``Makefile verify`` target does)::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py

or through pytest: ``pytest benchmarks/bench_obs_overhead.py -q``.
"""

import time

from repro.arch.cpu import CycleCPU
from repro.ilr import RandomizerConfig, make_flow, randomize
from repro.tools.benchgate import gate_overhead, time_rounds
from repro.workloads import build_image

MAX_INSTRUCTIONS = 50_000
#: About 65 ms a run: 31 rounds keep the timed work near 4 s.
ROUNDS = 31
OVERHEAD_LIMIT = 0.05


def _build_program():
    image = build_image("gcc", scale=0.5)
    return randomize(image, RandomizerConfig(seed=42))


def _run_once(program, instrumented: bool):
    """One fresh simulation: (host seconds of the run, result dict)."""
    cpu = CycleCPU(
        program.vcfr_image,
        make_flow("vcfr", program),
        checkpoint_interval=MAX_INSTRUCTIONS // 100 if instrumented else 0,
    )
    start = time.perf_counter()
    result = cpu.run(max_instructions=MAX_INSTRUCTIONS)
    return time.perf_counter() - start, result.to_dict()


def test_always_on_obs_overhead_under_5_percent():
    program = _build_program()
    times = time_rounds({"plain": lambda: _run_once(program, False),
                         "instrumented": lambda: _run_once(program, True)},
                        ROUNDS)
    gate_overhead("obs_overhead", "metrics_overhead", times, "plain",
                  "instrumented", OVERHEAD_LIMIT)


if __name__ == "__main__":
    test_always_on_obs_overhead_under_5_percent()
    print("OK: always-on observability overhead within the %.0f%% budget"
          % (100 * OVERHEAD_LIMIT))
