"""Gate benchmark: the fleet harness must cost ~nothing over time-sharing.

:func:`repro.fleet.run_fleet` wraps per-tenant :class:`CycleCPU` slices
in the datacenter machinery — arrival admission, per-core scheduling,
queue accounting, and latency attribution.  For a single saturated
tenant on one core that machinery schedules exactly the same back-to-
back quanta a bare :class:`~repro.arch.context.TimeSharedCPU` loop
runs, so its cost must be negligible: this gate runs the same service
workload two ways:

1. **raw** — assemble + randomize + a bare ``TimeSharedCPU`` run with
   the same quantum and no callback: the minimum any VCFR tenant
   execution must do;
2. **fleet** — :func:`run_fleet` with one tenant, one core, and a
   saturation trace (every request arrives at cycle zero), sized so
   the request work equals the raw budget exactly.

and asserts the harness's wall-clock overhead stays under 5%.
Wall-clock on a shared host is noisy, so the runs alternate over many
rounds and the gate reads the median of per-round ratios
(:func:`repro.tools.benchgate.time_rounds`).

Run directly (the ``Makefile verify`` target does)::

    PYTHONPATH=src python benchmarks/bench_fleet_overhead.py
"""

import time

from repro.arch.context import TimeSharedCPU
from repro.fleet import ArrivalSpec, FleetSpec, run_fleet
from repro.ilr.flow import make_flow
from repro.ilr.randomizer import RandomizerConfig, randomize
from repro.security.race import build_service_image
from repro.tools.benchgate import gate_overhead, time_rounds

BUDGET = 60_000
#: About 50 ms a run: 31 rounds keep the timed work near 3 s.
ROUNDS = 31
OVERHEAD_LIMIT = 0.05

REQUEST_INSTRUCTIONS = 600
QUANTUM = 2_000

SPEC = FleetSpec(
    tenants=1,
    cores=1,
    quantum_instructions=QUANTUM,
    request_instructions=REQUEST_INSTRUCTIONS,
    # Saturation: the whole trace is pending from cycle zero, so the
    # scheduler runs back-to-back quanta exactly like the raw loop.
    arrival=ArrivalSpec(
        kind="uniform",
        requests=BUDGET // REQUEST_INSTRUCTIONS,
        mean_gap=0,
    ),
    max_instructions=BUDGET,
)


def _raw_pass():
    """Everything run_fleet does minus the fleet machinery."""
    start = time.perf_counter()
    image = build_service_image()
    program = randomize(image, RandomizerConfig(seed=SPEC.seed))
    shared = TimeSharedCPU(
        [("t0", program.vcfr_image, make_flow("vcfr", program))],
        quantum_instructions=SPEC.quantum_instructions,
        self_switch=False,
    )
    shared.run(max_instructions_per_process=BUDGET)
    elapsed = time.perf_counter() - start
    (_name, cpu), = shared.cpus
    return elapsed, cpu.state.icount


def _fleet_pass():
    """The instrumented path: one saturated tenant, one core."""
    start = time.perf_counter()
    result = run_fleet(SPEC)
    elapsed = time.perf_counter() - start
    return elapsed, result.instructions


def test_fleet_harness_overhead_is_negligible():
    times = time_rounds({"raw": _raw_pass, "fleet": _fleet_pass}, ROUNDS)
    gate_overhead("fleet_overhead", "fleet_harness_overhead", times,
                  "raw", "fleet", OVERHEAD_LIMIT)


if __name__ == "__main__":
    test_fleet_harness_overhead_is_negligible()
    print("OK: the fleet harness is free for a lone saturated tenant")
