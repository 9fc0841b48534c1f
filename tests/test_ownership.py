"""A finished CPU is freed by reference counting.

Nothing a ``CycleCPU`` builds refers back to it: the DRC refills
through the L2 port, and generated traces close over the CPU's parts
(the DRC's ``drain``, the branch unit's methods), never the CPU.  So
the last reference to a finished CPU frees it at once, and the cyclic
collector finds next to nothing after a run or a job.  Each case runs
with the collector off, so only reference counting frees anything.
"""

import gc
import weakref

import pytest

from repro.arch.config import default_config
from repro.arch.cpu import CycleCPU
from repro.fleet import ArrivalSpec, FleetSpec
from repro.harness import RunSpec
from repro.harness.sweep import execute_spec
from repro.ilr import RandomizerConfig, make_flow, randomize
from repro.obs.events import EventLog, MemorySink
from repro.security.race import AdversarySpec, RaceSpec
from repro.security.rotation import RotationPolicy
from repro.workloads import build_image

#: Most objects one ``gc.collect()`` may find after a run or a job.
GARBAGE_BOUND = 100

#: tier -> (fastpath, tracepath)
TIERS = {
    "reference": (False, False),
    "blocks": (True, False),
    "traces": (True, True),
}

JOBS = {
    "vcfr": RunSpec("gcc", "vcfr", max_instructions=40_000),
    "emulate": RunSpec("gcc", "emulate", max_instructions=20_000),
    "race": RaceSpec(
        policy=RotationPolicy(kind="periodic", period_instructions=5_000),
        adversary=AdversarySpec(disclosure_rate=0.5, probe_rate=0.2),
        max_instructions=20_000,
    ),
    "fleet": FleetSpec(
        tenants=2, cores=1, quantum_instructions=1_000,
        request_instructions=600,
        arrival=ArrivalSpec(kind="poisson", requests=4, mean_gap=1_500),
    ),
}


@pytest.fixture(scope="module")
def program():
    return randomize(build_image("gcc", scale=1.0), RandomizerConfig(seed=42))


@pytest.fixture
def collector_off():
    """Collect what earlier tests left, then keep the collector off."""
    gc.collect()
    gc.disable()
    yield
    gc.enable()


@pytest.mark.parametrize("log", ["null", "enabled"])
@pytest.mark.parametrize("mode", ["baseline", "naive_ilr", "vcfr"])
@pytest.mark.parametrize("tier", list(TIERS))
def test_finished_cpu_dies_with_its_last_reference(
        program, collector_off, tier, mode, log):
    cfg = default_config()
    cfg.fastpath, cfg.tracepath = TIERS[tier]
    events = EventLog(MemorySink()) if log == "enabled" else None
    cpu = CycleCPU(program.image_for(mode), make_flow(mode, program), cfg,
                   events=events,
                   checkpoint_interval=10_000 if events else 0)
    cpu.run(max_instructions=60_000)
    if tier == "traces":
        assert cpu.tier_stats()["traces"]["traces"] > 0
    alive = weakref.ref(cpu)
    del cpu
    assert alive() is None, "something the CPU built refers back to it"
    assert gc.collect() < GARBAGE_BOUND


@pytest.mark.parametrize("kind", list(JOBS))
def test_one_job_leaves_no_cyclic_garbage(collector_off, kind):
    spec = JOBS[kind]
    execute_spec(spec)  # lazy imports and memos are not the job's garbage
    gc.collect()
    result = execute_spec(spec)
    del result
    assert gc.collect() < GARBAGE_BOUND
