"""Datacenter fleet tests: accounting fixes, shared L2, sweep identity."""

import json

import pytest

from repro.arch import SharedMemorySystem
from repro.arch.context import TimeSharedCPU, measure_switch_sensitivity
from repro.arch.sharedmem import PHYS_BASE_SHIFT
from repro.fleet import (
    ArrivalSpec,
    FleetSpec,
    arrival_times,
    datacenter,
    run_fleet,
)
from repro.harness import ExperimentSession, FaultPlan, RetryPolicy
from repro.ilr import RandomizerConfig, make_flow, randomize
from repro.isa import assemble
from repro.obs.events import EventLog, MemorySink
from repro.obs.store import RunStore
from repro.security.race import SERVICE_WORKLOAD, build_service_image

SRC = """
.code 0x400000
main:
    movi esi, 0
.loop:
    call work
    cmp esi, 400
    jl .loop
    movi eax, 1
    movi ebx, 0
    int 0x80
work:
    add esi, 1
    mov eax, esi
    imul eax, eax
    ret
"""


@pytest.fixture(scope="module")
def program():
    return randomize(assemble(SRC), RandomizerConfig(seed=44))


# -- context-switch cycle accounting (the double-count regression) -----------


class TestSwitchAccounting:
    def test_total_cycles_is_sum_of_tenant_cycles(self, program):
        other = randomize(assemble(SRC), RandomizerConfig(seed=45))
        shared = TimeSharedCPU(
            [
                ("a", program.vcfr_image, make_flow("vcfr", program)),
                ("b", other.vcfr_image, make_flow("vcfr", other)),
            ],
            quantum_instructions=500,
            switch_cycles=150,
        )
        out = shared.run(max_instructions_per_process=4_000)
        # _on_switch_in already charges cpu.cycle per switch; the total
        # must be exactly the sum of tenant cycles, not that sum plus
        # switch_stats.total_switch_cycles again.
        assert out.total_cycles == sum(cpu.cycle for _n, cpu in shared.cpus)
        assert out.switch_stats.total_switch_cycles > 0
        assert out.total_cycles < (
            sum(cpu.cycle for _n, cpu in shared.cpus)
            + out.switch_stats.total_switch_cycles
        )

    def test_exact_switch_count_formula(self, program):
        shared = TimeSharedCPU(
            [("a", program.original, make_flow("baseline", program))],
            quantum_instructions=500,
            switch_cycles=100,
        )
        out = shared.run(max_instructions_per_process=3_000)
        stats = out.switch_stats
        # Self-switching lone tenant: one switch per quantum, each
        # charged exactly switch_cycles.
        assert stats.switches == out.by_name("a").quanta
        assert stats.total_switch_cycles == 100 * stats.switches

    def test_switch_sensitivity_accepts_switch_cycles(self, program):
        cheap = measure_switch_sensitivity(
            program, make_flow, quanta=(1_000,), max_instructions=6_000,
            switch_cycles=0,
        )
        default = measure_switch_sensitivity(
            program, make_flow, quanta=(1_000,), max_instructions=6_000,
        )
        explicit = measure_switch_sensitivity(
            program, make_flow, quanta=(1_000,), max_instructions=6_000,
            switch_cycles=200,
        )
        # The default stays 200 (published curves unchanged)...
        assert default[1_000].cycles == explicit[1_000].cycles
        # ...and the knob genuinely moves the cost: 6 quanta x 200
        # cycles cheaper when switches are free.
        quanta_run = default[1_000].cycles - cheap[1_000].cycles
        assert quanta_run > 0
        assert quanta_run % 200 == 0


# -- cache-sharing honesty ----------------------------------------------------


class TestCacheSharing:
    def test_default_hierarchies_are_private(self, program):
        other = randomize(assemble(SRC), RandomizerConfig(seed=45))
        shared = TimeSharedCPU(
            [
                ("a", program.vcfr_image, make_flow("vcfr", program)),
                ("b", other.vcfr_image, make_flow("vcfr", other)),
            ],
        )
        (_, cpu_a), (_, cpu_b) = shared.cpus
        # The documented default: nothing below the core is shared.
        assert cpu_a.l2 is not cpu_b.l2
        assert cpu_a.dram is not cpu_b.dram

    def test_shared_memory_routes_tenants_through_one_l2(self, program):
        other = randomize(assemble(SRC), RandomizerConfig(seed=45))
        node = SharedMemorySystem()
        shared = TimeSharedCPU(
            [
                ("a", program.vcfr_image, make_flow("vcfr", program)),
                ("b", other.vcfr_image, make_flow("vcfr", other)),
            ],
            quantum_instructions=500,
            shared_memory=node,
        )
        (_, cpu_a), (_, cpu_b) = shared.cpus
        assert cpu_a.l2 is node.l2 and cpu_b.l2 is node.l2
        assert cpu_a.dram is node.dram
        # Private close-to-the-core state stays private.
        assert cpu_a.drc is not cpu_b.drc
        assert cpu_a.il1 is not cpu_b.il1
        out = shared.run(max_instructions_per_process=4_000)
        assert node.l2.stats.accesses > 0
        assert out.total_cycles == sum(cpu.cycle for _n, cpu in shared.cpus)

    def test_ports_relocate_addresses_per_tenant(self):
        node = SharedMemorySystem()
        assert node.port(0).base == 0
        assert node.port(1).base == 1 << PHYS_BASE_SHIFT
        assert node.port(1) is node.port(1)


# -- arrival traces -----------------------------------------------------------


class TestTraffic:
    def test_traces_are_seed_deterministic(self):
        spec = ArrivalSpec(kind="poisson", requests=50, mean_gap=1_000)
        assert arrival_times(spec, 7) == arrival_times(spec, 7)
        assert arrival_times(spec, 7) != arrival_times(spec, 8)

    def test_traces_are_sorted_and_sized(self):
        for kind in ("poisson", "bursty", "uniform"):
            spec = ArrivalSpec(kind=kind, requests=40, mean_gap=500)
            times = arrival_times(spec, 3)
            assert len(times) == 40
            assert times == sorted(times)

    def test_bursty_matches_poisson_long_run_rate(self):
        poisson = ArrivalSpec(kind="poisson", requests=400, mean_gap=1_000)
        bursty = ArrivalSpec(kind="bursty", requests=400, mean_gap=1_000)
        p_span = arrival_times(poisson, 5)[-1]
        b_span = arrival_times(bursty, 5)[-1]
        assert 0.5 < b_span / p_span < 2.0

    def test_uniform_zero_gap_is_saturation(self):
        spec = ArrivalSpec(kind="uniform", requests=10, mean_gap=0)
        assert arrival_times(spec, 1) == [0] * 10

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            arrival_times(ArrivalSpec(kind="zipf"), 1)


# -- the fleet model ----------------------------------------------------------


def _spec(**kw):
    arrival = kw.pop("arrival", None) or ArrivalSpec(
        kind=kw.pop("kind", "poisson"),
        requests=kw.pop("requests", 8),
        mean_gap=kw.pop("mean_gap", 1_500),
    )
    base = dict(tenants=4, cores=2, quantum_instructions=1_000,
                request_instructions=600, arrival=arrival)
    base.update(kw)
    return FleetSpec(**base)


class TestFleetModel:
    @pytest.fixture(scope="class")
    def wide(self):
        return run_fleet(_spec())

    def test_deterministic_in_spec(self, wide):
        again = run_fleet(_spec())
        assert json.dumps(wide.as_dict(), sort_keys=True) == json.dumps(
            again.as_dict(), sort_keys=True)

    def test_all_requests_served_and_work_conserved(self, wide):
        assert wide.unserved == 0
        assert wide.served == wide.requests == 4 * 8
        assert wide.instructions == wide.requests * 600

    def test_percentiles_ordered(self, wide):
        for tenant in wide.tenant_results:
            assert 0 < tenant.p50_latency <= tenant.p95_latency
            assert tenant.p95_latency <= tenant.p99_latency
            assert tenant.p99_latency <= tenant.max_latency

    def test_tenants_statically_assigned_round_robin(self, wide):
        for tenant in wide.tenant_results:
            assert tenant.core == tenant.index % wide.cores

    def test_switch_cost_formula_per_tenant(self, wide):
        for tenant in wide.tenant_results:
            assert tenant.switch_cycles_total == tenant.switches * 200
            assert tenant.cycles >= tenant.instructions
        assert wide.switch_cycles_total == wide.switches * 200

    def test_fairness_near_one_for_homogeneous_tenants(self, wide):
        assert 0.95 <= wide.ipc_fairness <= 1.0

    def test_fewer_cores_fatten_the_tail(self, wide):
        narrow = run_fleet(_spec(cores=1))
        assert narrow.p99_latency > wide.p99_latency
        assert narrow.makespan >= wide.makespan

    def test_shared_l2_contention_is_real(self):
        lone = run_fleet(_spec(tenants=1, cores=1))
        packed = run_fleet(_spec(tenants=4, cores=1))
        # Co-located tenants evict each other: more misses than four
        # isolated copies of the lone tenant would take together.
        assert packed.l2_misses > 4 * lone.l2_misses

    def test_budget_exhaustion_counts_unserved(self):
        starved = run_fleet(_spec(max_instructions=1_200))
        assert starved.unserved > 0
        assert starved.served + starved.unserved == starved.requests

    def test_modes_all_run(self):
        for mode in ("baseline", "naive_ilr", "vcfr"):
            point = run_fleet(_spec(mode=mode, tenants=2, requests=4))
            assert point.unserved == 0
            assert point.mode == mode

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            run_fleet(_spec(tenants=0))
        with pytest.raises(ValueError):
            run_fleet(_spec(cores=0))
        with pytest.raises(ValueError):
            run_fleet(_spec(request_instructions=0))


# -- sweep: sequential vs pooled bit-identity --------------------------------


def _grid():
    return [
        _spec(requests=5, seed=1),
        _spec(requests=5, seed=2, kind="bursty"),
        _spec(requests=5, seed=1, tenants=2, cores=1),
    ]


def _dump(results):
    return json.dumps([r.as_dict() for r in results], sort_keys=True)


def _sweep(specs, **policy):
    with ExperimentSession(**policy) as session:
        outcomes = session.sweep(specs)
    assert all(outcome.ok for outcome in outcomes)
    return outcomes


def test_sweep_fleet_sequential_matches_pooled(tmp_path, monkeypatch):
    specs = _grid()
    cache_dir = str(tmp_path / "cache")
    sequential = _sweep(specs, workers=0, cache_dir=cache_dir)
    pooled = _sweep(specs, workers=2)
    expected = _dump(run_fleet(spec) for spec in specs)
    assert _dump(o.result for o in sequential) == expected
    assert _dump(o.result for o in pooled) == expected

    # Warm leg: every point is a cache hit; nothing executes.
    def must_not_run(*args, **kwargs):
        raise AssertionError("run_fleet called on a warm cache")

    monkeypatch.setattr(datacenter, "run_fleet", must_not_run)
    warm = _sweep(specs, workers=2, cache_dir=cache_dir)
    assert all(outcome.cached for outcome in warm)
    assert _dump(o.result for o in warm) == expected


def test_sweep_fleet_emits_events_and_records_store(tmp_path, capsys):
    from repro.tools import stats as stats_cli

    specs = _grid()[:2]
    sink = MemorySink()
    store_path = str(tmp_path / "fleet.db")
    outcomes = _sweep(specs, events=EventLog(sink), store_path=store_path)
    results = [outcome.result for outcome in outcomes]
    kinds = [r["kind"] for r in sink.records]
    assert kinds.count("tenant_point") == sum(
        len(r.tenant_results) for r in results)
    assert kinds.count("spec_done") == len(specs)
    points = [r for r in sink.records if r["kind"] == "tenant_point"]
    assert points[0]["tenant"] == "t0"
    assert points[0]["p99_latency"] == results[0].tenant_results[0].p99_latency
    with RunStore(store_path) as store:
        payloads = store.payloads("fleet")
        assert [p["arrival_kind"] for p in payloads] == ["poisson", "bursty"]
        assert payloads == [r.as_dict() for r in results]
        assert store.best("ipc") == []  # fleet rows are not runs
    assert stats_cli.main(["fleet", store_path, "--arrival", "bursty"]) == 0
    lines = capsys.readouterr().out.splitlines()[2:]
    assert len(lines) == 4 and all("bursty" in line for line in lines)


def test_session_fleet_sweep_uses_session_plumbing():
    specs = _grid()[:1]
    with ExperimentSession(workers=0) as session:
        session.prefetch(specs)
        results = [session.run(spec) for spec in specs]
    assert _dump(results) == _dump(run_fleet(spec) for spec in specs)


# -- a crashed fleet grid resumes from its committed points -------------------


CRASH_POINT = "service/vcfr/4t1c/poisson"


def _rows(session):
    from repro.harness.experiments import fleet

    return fleet(session).rows


@pytest.fixture(scope="module")
def clean_fleet_rows():
    with ExperimentSession() as session:
        return _rows(session)


def _resume(tmp_path, clean_rows, plan, attempts, workers):
    """Crash one point of the fleet grid, then resume on the same cache."""
    from repro.harness import FailedRunError

    cache_dir = str(tmp_path / "cache")
    retry = RetryPolicy(max_attempts=attempts, backoff=0.01)
    with ExperimentSession(workers=workers, cache_dir=cache_dir,
                           faults=FaultPlan.from_string(plan),
                           retry=retry) as session:
        with pytest.raises(FailedRunError):
            _rows(session)
        assert [spec.label() for spec in session.failures] == [CRASH_POINT]
        assert session.cache.writes == 3

    sink = MemorySink()
    with ExperimentSession(workers=workers, cache_dir=cache_dir,
                           events=EventLog(sink)) as session:
        rows = _rows(session)
        assert session.cache.hits == 3 and session.cache.writes == 1
    executed = [r["label"] for r in sink.records
                if r["kind"] == "spec_done" and not r["cached"]]
    assert executed == [CRASH_POINT]
    assert rows == clean_rows


def test_crashed_fleet_grid_resumes(tmp_path, clean_fleet_rows):
    _resume(tmp_path, clean_fleet_rows, "crash@%s#0" % CRASH_POINT,
            attempts=1, workers=0)


@pytest.mark.faults
def test_crashed_pooled_fleet_grid_resumes(tmp_path, clean_fleet_rows):
    # A real worker crash breaks the pool, so in-flight neighbours lose
    # an attempt too; they win theirs in the probe pool, while the
    # poisoned point crashes there again and is quarantined.
    _resume(tmp_path, clean_fleet_rows,
            "crash@{0}#0,crash@{0}#1".format(CRASH_POINT),
            attempts=2, workers=2)


# -- the CLI ------------------------------------------------------------------


def test_fleet_cli_table_events_and_store(tmp_path, capsys):
    from repro.obs.events import read_events
    from repro.tools import fleet as fleet_cli

    events = str(tmp_path / "fleet.jsonl")
    store_path = str(tmp_path / "fleet.db")
    rc = fleet_cli.main([
        "--tenants", "2", "--cores", "2", "--requests", "4",
        "--arrivals", "poisson", "--events", events, "--store", store_path,
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "p99" in out and "fairness" in out and "t1" in out
    points = read_events(events, kind="tenant_point")
    assert len(points) == 2
    with RunStore(store_path) as store:
        payloads = store.payloads("fleet")
        assert len(payloads) == 1
        assert len(payloads[0]["tenant_results"]) == 2


def test_fleet_cli_json_output(capsys):
    from repro.tools import fleet as fleet_cli

    rc = fleet_cli.main([
        "--tenants", "1", "--cores", "1", "--requests", "3",
        "--arrivals", "uniform", "--mean-gap", "800", "--json",
    ])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    point = json.loads(lines[0])
    assert point["workload"] == SERVICE_WORKLOAD
    assert point["served"] == 3
    assert point["tenant_results"][0]["tenant"] == "t0"


def test_fleet_cli_exits_1_when_every_point_is_quarantined(monkeypatch,
                                                          capsys):
    from repro.tools import fleet as fleet_cli

    def boom(*args, **kwargs):
        raise RuntimeError("injected fleet failure")

    monkeypatch.setattr(datacenter, "run_fleet", boom)
    rc = fleet_cli.main(["--tenants", "1", "--cores", "1", "--requests", "3",
                         "--arrivals", "uniform"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # no table: nothing survived
    assert "QUARANTINED" in captured.err


def test_fleet_cli_rejects_unknown_arrival(capsys):
    from repro.tools import fleet as fleet_cli

    with pytest.raises(SystemExit):
        fleet_cli.main(["--arrivals", "zipf"])
    assert "unknown arrival kind" in capsys.readouterr().err


# -- stats surfacing ----------------------------------------------------------


def test_stats_fleet_section_and_store_subcommand(tmp_path, capsys):
    from repro.tools import fleet as fleet_cli
    from repro.tools import stats as stats_cli

    events = str(tmp_path / "fleet.jsonl")
    store_path = str(tmp_path / "fleet.db")
    rc = fleet_cli.main([
        "--tenants", "2", "--cores", "1", "--requests", "4",
        "--arrivals", "poisson", "--events", events, "--store", store_path,
    ])
    assert rc == 0
    capsys.readouterr()

    assert stats_cli.main([events, "--section", "fleet"]) == 0
    out = capsys.readouterr().out
    assert "datacenter fleet" in out and "fairness" in out

    assert stats_cli.main(["fleet", store_path]) == 0
    out = capsys.readouterr().out
    assert "t0" in out and "t1" in out and "p99" in out


def test_fleet_cli_table_is_the_stats_table(tmp_path, capsys):
    from repro.tools import fleet as fleet_cli
    from repro.tools import stats as stats_cli

    events = str(tmp_path / "fleet.jsonl")
    store_path = str(tmp_path / "fleet.db")
    assert fleet_cli.main([
        "--tenants", "3", "--cores", "2", "--requests", "3",
        "--arrivals", "uniform,bursty", "--events", events,
        "--store", store_path,
    ]) == 0
    table = capsys.readouterr().out
    lines = table.splitlines()
    assert len(lines) == 2 + 2 * 3
    assert lines[0].split() == [
        "workload", "mode", "arrival", "fleet", "tenant", "core", "served",
        "p50", "p95", "p99", "ipc", "fairness", "switches"]
    assert [line.split()[5] for line in lines[2:]] == ["0", "1", "0"] * 2

    assert stats_cli.main(["fleet", store_path]) == 0
    assert capsys.readouterr().out == table

    assert stats_cli.main([events, "--section", "fleet"]) == 0
    assert capsys.readouterr().out == (
        "== datacenter fleet ==\n" + table + "\n")


def test_dashboard_counts_fleet_tenants():
    from repro.harness.dashboard import Dashboard

    dash = Dashboard(stream=open("/dev/null", "w"), ansi=False)
    dash.observe({"kind": "tenant_point", "served": 5})
    dash.observe({"kind": "tenant_point", "served": 3})
    dash.observe({"kind": "spec_done", "label": "service/vcfr/2t1c/poisson",
                  "cached": False})
    assert dash.fleet_tenants == 2
    assert dash.fleet_served == 8
    assert dash.done == 1  # the job's spec_done, not its tenant rows
    assert "fleet 2 tenants 8 served" in dash.render()


# -- the experiment family ----------------------------------------------------


def test_fleet_experiment_family_registered():
    from repro.harness.experiments import ALL_EXPERIMENTS

    assert "fleet" in ALL_EXPERIMENTS


def test_service_image_shared_with_race_harness():
    image = build_service_image()
    spec = FleetSpec(workload=SERVICE_WORKLOAD)
    assert spec.workload == SERVICE_WORKLOAD
    assert image.entry == 0x400000
