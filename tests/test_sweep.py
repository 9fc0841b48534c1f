"""Sweep engine: parallel determinism, event merging, warm-cache runs."""

import pytest

from repro.harness import AsyncScheduler, ExperimentSession, RunSpec
from repro.harness.experiments import suite_specs, table1
from repro.obs.events import EventLog, MemorySink
from repro.obs.trace import Tracer
from tests.test_fleet import _grid as fleet_grid
from tests.test_security_race import _grid as race_grid

BUDGET = 3000

SPECS = [
    RunSpec("mcf", "baseline", max_instructions=BUDGET),
    RunSpec("mcf", "vcfr", 64, max_instructions=BUDGET),
    RunSpec("bzip2", "naive_ilr", max_instructions=BUDGET),
    RunSpec("bzip2", "vcfr", 128, max_instructions=BUDGET),
]


def result_dicts(outcomes):
    return [outcome.result.as_dict() for outcome in outcomes]


def simulations(session):
    """``simulate`` spans the session's tracer recorded."""
    return sum(span.name == "simulate" for span in session.tracer.spans)


@pytest.fixture(scope="module")
def sequential_outcomes():
    return ExperimentSession().sweep(SPECS)


class TestParallelDeterminism:
    def test_pool_matches_sequential_bit_for_bit(self, sequential_outcomes):
        pooled = ExperimentSession(workers=2).sweep(SPECS)
        assert result_dicts(pooled) == result_dicts(sequential_outcomes)

    def test_table1_rows_identical_under_workers(self):
        rows_by_workers = []
        for workers in (0, 2):
            runner = ExperimentSession(max_instructions=BUDGET,
                                       workers=workers)
            runner.prefetch(suite_specs(runner, ["table1"]))
            rows_by_workers.append(table1(runner).rows)
        assert rows_by_workers[0] == rows_by_workers[1]

    def test_duplicate_specs_share_one_execution(self):
        spec = RunSpec("mcf", "baseline", max_instructions=BUDGET)
        outcomes = ExperimentSession().sweep(
            [spec, spec, spec.normalized()])
        assert len(outcomes) == 3
        assert outcomes[0].result is outcomes[1].result is outcomes[2].result


class TestObservabilityMerge:
    def test_worker_events_replayed_into_parent_log(self):
        sink = MemorySink()
        log = EventLog(sink)
        ExperimentSession(workers=2, events=log,
                          checkpoint_interval=1000).sweep(SPECS)
        kinds = [record["kind"] for record in sink.records]
        assert kinds.count("run_start") == len(SPECS)
        assert kinds.count("run_end") == len(SPECS)
        assert kinds.count("checkpoint") >= 3 * len(SPECS)
        # Replay re-sequences: the merged JSONL stream stays monotonic.
        seqs = [record["seq"] for record in sink.records]
        assert seqs == sorted(seqs) and len(set(seqs)) == len(seqs)
        # Records keep their run identity for offline grouping.
        vcfr_starts = [r for r in sink.records
                       if r["kind"] == "run_start" and r["mode"] == "vcfr"]
        assert {r["drc_entries"] for r in vcfr_starts} == {64, 128}

    def test_worker_phases_and_metrics_merge(self):
        sink = MemorySink()
        list(AsyncScheduler(workers=2, events=EventLog(sink)).stream(SPECS))
        simulate = [r for r in sink.records
                    if r["kind"] == "phase" and r["phase"] == "simulate"]
        assert len(simulate) == len(SPECS)
        assert all(r["seconds"] > 0 and r["span"] for r in simulate)
        # Each worker's run totals reach the parent once, on run_end.
        ends = [r for r in sink.records if r["kind"] == "run_end"]
        assert sum(r["instructions"] for r in ends) == BUDGET * len(SPECS)


class TestProfilePhases:
    """``profile_phases`` samples the tiers that run and changes no
    result, for every job kind, inline and in pool workers."""

    @pytest.fixture(scope="class")
    def kinds(self):
        specs = [RunSpec("lbm", "vcfr", 64, max_instructions=20_000),
                 RunSpec("mcf", "emulate", max_instructions=BUDGET),
                 race_grid()[1], fleet_grid()[0]]
        return specs, result_dicts(ExperimentSession().sweep(specs))

    @pytest.mark.parametrize("workers", [0, 2])
    def test_results_match_unprofiled(self, kinds, workers):
        specs, plain = kinds
        session = ExperimentSession(workers=workers, profile_phases=True)
        assert result_dicts(session.sweep(specs)) == plain

    @pytest.mark.parametrize("workers", [0, 2])
    def test_cycle_runs_keep_the_default_tiers(self, workers):
        sink = MemorySink()
        ExperimentSession(workers=workers, profile_phases=True,
                          events=EventLog(sink)).sweep(
            [RunSpec("lbm", "baseline", max_instructions=20_000)])
        [end] = [r for r in sink.records if r["kind"] == "run_end"]
        assert end["tiers"]["blocks"]["execs"] > 0
        assert end["tiers"]["traces"]["entries"] > 0


class TestWarmCache:
    def test_warm_rerun_simulates_nothing(self, tmp_path,
                                          sequential_outcomes):
        cold = ExperimentSession(max_instructions=BUDGET,
                                 cache_dir=str(tmp_path), tracer=Tracer())
        cold.prefetch(SPECS)
        assert cold.cache.stats()["writes"] == len(SPECS)
        assert simulations(cold) == len(SPECS)

        warm = ExperimentSession(max_instructions=BUDGET,
                                 cache_dir=str(tmp_path), tracer=Tracer())
        warm.prefetch(SPECS)
        assert simulations(warm) == 0
        assert warm.cache.stats() == {
            "hits": len(SPECS), "misses": 0, "writes": 0,
        }
        for spec, sequential in zip(SPECS, sequential_outcomes):
            assert warm.run(spec).as_dict() == sequential.result.as_dict()

    def test_parallel_warm_rerun_also_hits(self, tmp_path):
        cold = ExperimentSession(max_instructions=BUDGET, workers=2,
                                 cache_dir=str(tmp_path))
        cold.prefetch(SPECS)
        warm = ExperimentSession(max_instructions=BUDGET, workers=2,
                                 cache_dir=str(tmp_path), tracer=Tracer())
        warm.prefetch(SPECS)
        assert warm.cache.stats()["hits"] == len(SPECS)
        assert simulations(warm) == 0


class TestRunnerIntegration:
    def test_run_and_prefetch_share_memo(self):
        runner = ExperimentSession(max_instructions=BUDGET)
        runner.prefetch(SPECS)
        first = runner.run(SPECS[0])
        assert runner.run(RunSpec("mcf", "baseline",
                                  max_instructions=BUDGET)) is first

    def test_emulate_specs_flow_through_prefetch(self):
        runner = ExperimentSession(max_instructions=2000, workers=2)
        spec = runner.spec("mcf", "emulate")
        runner.prefetch([spec])
        result = runner.emulate("mcf")
        assert result.host_instructions > result.run.icount
