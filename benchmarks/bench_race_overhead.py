"""Gate benchmark: the race harness must be free when nobody is racing.

:func:`repro.security.race.run_race` wraps a
:class:`~repro.arch.context.TimeSharedCPU` execution in the
attack/defense machinery — a per-quantum callback, the rotation
service's policy poll, and the adversary's observation hook.  With the
adversary *disabled* and policy ``none`` that machinery does nothing,
so its cost must be negligible: this gate runs the same service
workload two ways:

1. **raw** — assemble + randomize + a bare ``TimeSharedCPU`` run with
   the same quantum and no callback: the minimum any VCFR tenant
   execution must do;
2. **race** — :func:`run_race` with ``AdversarySpec(enabled=False)``
   and ``RotationPolicy(kind="none")``: the exact instrumented path.

and asserts the harness's wall-clock overhead stays under 5%.
Wall-clock on a shared host is noisy, so the runs are timed in
order-alternated pairs and the gate reads the most favourable of three
robust estimators (:func:`repro.tools.benchgate.paired_overhead`).

Run directly (the ``Makefile verify`` target does)::

    PYTHONPATH=src python benchmarks/bench_race_overhead.py

``BENCH_RACE_BUDGET`` (instructions per run, default 60000) trades
fidelity against gate runtime.
"""

import os
import time

from repro.arch.context import TimeSharedCPU
from repro.ilr.flow import make_flow
from repro.ilr.randomizer import RandomizerConfig, randomize
from repro.security.adversary import AdversarySpec
from repro.security.race import RaceSpec, build_tenant_image, run_race
from repro.security.rotation import RotationPolicy
from repro.tools.benchgate import gate, paired_overhead

BUDGET = int(os.environ.get("BENCH_RACE_BUDGET", "60000"))
REPEATS = 10
OVERHEAD_LIMIT = 0.05

SPEC = RaceSpec(
    policy=RotationPolicy(kind="none"),
    adversary=AdversarySpec(enabled=False),
    max_instructions=BUDGET,
)


def _raw_pass():
    """Everything run_race does minus the race machinery."""
    start = time.perf_counter()
    image = build_tenant_image(SPEC)
    program = randomize(image, RandomizerConfig(seed=SPEC.seed))
    shared = TimeSharedCPU(
        [("t0", program.vcfr_image, make_flow("vcfr", program))],
        quantum_instructions=SPEC.window_instructions,
        self_switch=False,
    )
    shared.run(max_instructions_per_process=SPEC.max_instructions)
    elapsed = time.perf_counter() - start
    (_name, cpu), = shared.cpus
    return elapsed, cpu.state.icount


def _race_pass():
    """The instrumented path, adversary disabled, policy none."""
    start = time.perf_counter()
    result = run_race(SPEC)
    elapsed = time.perf_counter() - start
    return elapsed, result.instructions


def test_disabled_adversary_overhead_is_negligible():
    # Warm both paths (imports, assembler caches).
    _raw_pass()
    _race_pass()

    overhead = paired_overhead(_raw_pass, _race_pass, REPEATS)
    print("\nrace-harness overhead: %d instr | %s"
          % (BUDGET, overhead.describe("raw", "race", OVERHEAD_LIMIT)))
    gate("race_overhead", "disabled_adversary_overhead",
         round(overhead.value, 4), OVERHEAD_LIMIT, op="<")


if __name__ == "__main__":
    test_disabled_adversary_overhead_is_negligible()
    print("OK: race harness is free when the adversary is disabled")
