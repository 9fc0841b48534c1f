"""SQLite run store: recording, queries, backfill, CLI, sweep parity."""

import json
import os
import sqlite3
import time

import pytest

from repro.fleet import ArrivalSpec, FleetSpec
from repro.harness import ExperimentSession, RunSpec
from repro.harness.resultcache import ResultCache
from repro.harness.spec import config_fingerprint
from repro.arch.config import default_config
from repro.obs.events import EventLog, FileSink
from repro.obs.store import LOWER_IS_BETTER, STORE_METRICS, RunStore
from repro.security.race import RaceSpec
from repro.security.rotation import RotationPolicy
from repro.tools import stats

BUDGET = 3000

SPECS = [
    RunSpec("mcf", "baseline", max_instructions=BUDGET),
    RunSpec("mcf", "vcfr", 64, max_instructions=BUDGET),
    RunSpec("bzip2", "naive_ilr", max_instructions=BUDGET),
]


def fake_result(ipc=0.5, cycles=6000):
    """A run_end-shaped stats dict (duck-typed result)."""
    return {
        "instructions": 3000,
        "cycles": cycles,
        "ipc": ipc,
        "il1_miss_rate": 0.01,
        "dl1_miss_rate": 0.02,
        "l2_miss_rate": 0.0,
        "drc_miss_rate": 0.005,
        "host_seconds": 0.1,
    }


def spec_dict(workload="mcf", mode="baseline", drc=0):
    return RunSpec(workload, mode, drc,
                   max_instructions=BUDGET).normalized().as_dict()


class TestRecording:
    def test_record_and_history(self, tmp_path):
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            run_id = store.record_run(spec_dict(), fake_result(),
                                      attempts=2, host_seconds=1.5)
            assert run_id > 0
            (row,) = store.history()
            assert row["workload"] == "mcf"
            assert row["label"] == "baseline"
            assert row["status"] == "ok"
            assert row["attempts"] == 2
            assert row["ipc"] == pytest.approx(0.5)

    def test_record_failure(self, tmp_path):
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            store.record_failure(spec_dict(), "worker crashed", attempts=3)
            (row,) = store.history()
            assert row["status"] == "failed"
            assert row["error"] == "worker crashed"
            assert store.best("ipc") == []  # failures never "best"

    def test_duplicate_rows_ignored(self, tmp_path):
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            first = store.record_run(spec_dict(), fake_result(),
                                     created_at=100.0)
            dupe = store.record_run(spec_dict(), fake_result(),
                                    created_at=100.0)
            assert first > 0 and dupe == -1
            assert store.counts()["runs"] == 1

    def test_span_rollups_stored(self, tmp_path):
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            run_id = store.record_run(
                spec_dict(), fake_result(),
                spans={"simulate": {"seconds": 0.2, "calls": 1},
                       "build": {"seconds": 0.1, "calls": 1}},
            )
            assert store.rollups(run_id) == {
                "build": {"seconds": 0.1, "calls": 1},
                "simulate": {"seconds": 0.2, "calls": 1},
            }

    def test_spec_key_is_content_derived(self):
        a = RunSpec("mcf", "vcfr", 64, max_instructions=BUDGET)
        assert RunStore.spec_key(a) == RunStore.spec_key(a.normalized())
        assert RunStore.spec_key(a) == \
            RunStore.spec_key(a.normalized().as_dict())
        b = RunSpec("mcf", "vcfr", 128, max_instructions=BUDGET)
        assert RunStore.spec_key(a) != RunStore.spec_key(b)

    def test_findings_round_trip(self, tmp_path):
        finding = {"index": 3, "seed": 77, "kinds": ["fastpath:vcfr"],
                   "detail": "ipc mismatch", "path": None,
                   "shrunk_lines": 9}
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            store.record_finding(finding, session_seed=5)
            store.record_finding(finding, session_seed=5)  # idempotent
            (row,) = store.findings(session_seed=5)
            assert row["index"] == 3
            assert row["kinds"] == ["fastpath:vcfr"]
            assert row["shrunk_lines"] == 9
            assert store.counts()["findings"] == 1

    def test_schema_version_mismatch_refused(self, tmp_path):
        path = str(tmp_path / "runs.sqlite")
        RunStore(path).close()
        conn = sqlite3.connect(path)
        conn.execute("UPDATE meta SET value = '999' "
                     "WHERE key = 'schema_version'")
        conn.commit()
        conn.close()
        with pytest.raises(RuntimeError, match="backfill"):
            RunStore(path)

    def test_schema_v1_store_refused(self, tmp_path):
        # A v1 store's runs table has no kind column; it must be refused
        # with the backfill hint, not fail on the v2 indexes.
        path = str(tmp_path / "runs.sqlite")
        conn = sqlite3.connect(path)
        conn.executescript(
            "CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);"
            "INSERT INTO meta VALUES ('schema_version', '1');"
            "CREATE TABLE runs (id INTEGER PRIMARY KEY, spec_key TEXT);")
        conn.close()
        with pytest.raises(RuntimeError, match="v1.*backfill"):
            RunStore(path)

    def test_job_kinds_share_the_runs_table(self, tmp_path):
        from repro.security.race import RaceSpec, run_race

        race = RaceSpec(max_instructions=4000)
        result = run_race(race)
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            store.record_run(spec_dict(), fake_result(), created_at=1.0)
            store.record_run(race, result, created_at=2.0)
            store.record_failure(race, "boom", created_at=3.0)
            columns, rows = store.query(
                "SELECT kind, mode, ipc, payload IS NOT NULL FROM runs "
                "ORDER BY id")
            assert rows == [("run", "baseline", 0.5, 0),
                            ("race", "race", result.ipc, 1),
                            ("race", "race", None, 0)]
            assert store.payloads("race") == [result.as_dict()]
            assert store.payloads("fleet") == []
            assert [r["workload"] for r in store.best("ipc")] == ["mcf"]
            assert [r["label"] for r in store.history()] == [
                "race", "race", "baseline"]


class TestQueries:
    @pytest.fixture()
    def store(self, tmp_path):
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            store.record_run(spec_dict("mcf", "baseline"),
                             fake_result(ipc=0.6), created_at=1.0)
            store.record_run(spec_dict("mcf", "vcfr", 64),
                             fake_result(ipc=0.55), created_at=2.0)
            store.record_run(spec_dict("mcf", "vcfr", 512),
                             fake_result(ipc=0.59), created_at=3.0)
            store.record_run(spec_dict("bzip2", "baseline"),
                             fake_result(ipc=0.7), created_at=4.0)
            yield store

    def test_best_maximizes_ipc(self, store):
        rows = store.best("ipc")
        assert [(r["workload"], r["label"]) for r in rows] == \
            [("bzip2", "baseline"), ("mcf", "baseline")]

    def test_best_mode_filter(self, store):
        rows = store.best("ipc", mode="vcfr")
        assert [(r["workload"], r["label"]) for r in rows] == \
            [("mcf", "vcfr@512")]
        rows = store.best("ipc", mode="vcfr@64")
        assert rows[0]["label"] == "vcfr@64"

    def test_best_honors_lower_is_better(self, store):
        assert "il1_miss_rate" in LOWER_IS_BETTER
        assert "ipc" not in LOWER_IS_BETTER
        rows = store.best("cycles", workload="mcf")
        assert rows[0]["value"] == 6000

    def test_best_rejects_unknown_metric(self, store):
        with pytest.raises(ValueError, match="unknown metric"):
            store.best("goodness")

    def test_compare(self, store):
        rows = store.compare("vcfr@64", "baseline")
        (row,) = [r for r in rows if r["workload"] == "mcf"]
        assert row["a"] == pytest.approx(0.55)
        assert row["b"] == pytest.approx(0.6)
        assert row["ratio"] == pytest.approx(0.6 / 0.55)

    def test_history_filters_and_orders(self, store):
        rows = store.history(workload="mcf", mode="vcfr")
        assert [r["label"] for r in rows] == ["vcfr@512", "vcfr@64"]
        assert store.history(limit=2)[0]["workload"] == "bzip2"

    def test_sql_passthrough(self, store):
        columns, rows = store.query(
            "SELECT workload, COUNT(*) FROM runs GROUP BY workload "
            "ORDER BY workload"
        )
        assert columns == ["workload", "COUNT(*)"]
        assert rows == [("bzip2", 1), ("mcf", 3)]


class TestBackfill:
    def test_backfill_cache_round_trips_rows(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        config = default_config()
        outcomes = ExperimentSession(config, cache=cache).sweep(SPECS)
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            report = store.backfill_cache(str(tmp_path / "cache"))
            assert report["ingested"] == len(SPECS)
            rows = {r["workload"] + "/" + r["label"]
                    for r in store.history(limit=10)}
            assert rows == {s.normalized().label() for s in SPECS}
            ipc_by_label = {
                "%s/%s" % (r["workload"], r["label"]): r["ipc"]
                for r in store.history(limit=10)
            }
            for outcome in outcomes:
                label = outcome.spec.label()
                assert ipc_by_label[label] == pytest.approx(
                    outcome.result.ipc
                )
            # Idempotent: same directory again adds nothing.
            assert store.backfill_cache(
                str(tmp_path / "cache"))["ingested"] == 0

    def test_emulate_rows_count_guest_instructions(self, tmp_path):
        session = ExperimentSession(scale=0.3, max_instructions=5000)
        spec = session.spec("mcf", "emulate")
        result = session.run(spec)
        # A hand-written entry with no ``kind`` (as entries written
        # before the field were) backfills as a ``run`` row, through the
        # dict branch.
        entry = tmp_path / "cache" / "ab" / "abcd" / "result.json"
        entry.parent.mkdir(parents=True)
        entry.write_text(json.dumps({"spec": spec.normalized().as_dict(),
                                     "result": result.as_dict()}))
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            store.record_run(spec, result, created_at=1.0)
            store.backfill_cache(str(tmp_path / "cache"))
            _columns, rows = store.query(
                "SELECT source, instructions FROM runs ORDER BY id")
        assert rows == [("sweep", result.run.icount),
                        ("backfill-cache", result.run.icount)]

    def test_backfill_cache_records_every_kind(self, tmp_path):
        specs = [
            RunSpec("mcf", "vcfr", 64, scale=0.3, max_instructions=BUDGET),
            RunSpec("mcf", "emulate", scale=0.3, max_instructions=BUDGET),
            RaceSpec(policy=RotationPolicy(kind="periodic",
                                           period_instructions=2000),
                     max_instructions=4000),
            FleetSpec(tenants=2, cores=1, max_instructions=20_000,
                      arrival=ArrivalSpec(kind="uniform", requests=3)),
        ]
        cache_dir = str(tmp_path / "cache")
        live_path = str(tmp_path / "live.sqlite")
        with ExperimentSession(cache_dir=cache_dir,
                               store_path=live_path) as session:
            outcomes = session.sweep(specs)
        results = {o.spec.kind: o.result for o in outcomes
                   if o.spec.kind != "run"}
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            assert store.backfill_cache(cache_dir) == {
                "ingested": 4, "skipped": 0}
            _cols, rows = store.query(
                "SELECT kind, mode, instructions FROM runs ORDER BY kind, "
                "mode")
            assert rows == [
                ("fleet", "vcfr", results["fleet"].instructions),
                ("race", "race", results["race"].instructions),
                ("run", "emulate", outcomes[1].result.run.icount),
                ("run", "vcfr", outcomes[0].result.instructions),
            ]
            assert store.payloads("race") == [results["race"].as_dict()]
            assert store.payloads("fleet") == [results["fleet"].as_dict()]
            columns = ("spec_key, kind, workload, mode, drc_entries, seed, "
                       "scale, max_instructions, config_digest, "
                       "instructions, cycles, ipc, il1_miss_rate, "
                       "l2_miss_rate, drc_miss_rate, host_instructions, "
                       "payload")
            _cols, rebuilt = store.query(
                "SELECT %s FROM runs ORDER BY spec_key" % columns)
        with RunStore(live_path) as live:
            _cols, recorded = live.query(
                "SELECT %s FROM runs ORDER BY spec_key" % columns)
        assert rebuilt == recorded

    def test_backfill_events(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        log = EventLog(FileSink(path))
        ExperimentSession(events=log).sweep(SPECS)
        log.close()
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            report = store.backfill_events(path)
            assert report["ingested"] == len(SPECS)
            assert all(r["source"] == "backfill-events"
                       for r in store.history(limit=10))
            assert store.backfill_events(path)["ingested"] == 0


class TestSweepParity:
    """Sequential and pooled sweeps index identical store rows."""

    #: every column that is a pure function of the work (wall-clock
    #: columns host_seconds/created_at and the autoincrement id differ).
    COLUMNS = ("spec_key, workload, mode, drc_entries, seed, scale, "
               "max_instructions, warmup_instructions, config_digest, "
               "status, source, attempts, cached, instructions, cycles, "
               "ipc, il1_miss_rate, dl1_miss_rate, l2_miss_rate, "
               "drc_lookups, drc_misses, drc_miss_rate, error")

    def _rows(self, tmp_path, workers):
        path = str(tmp_path / ("runs%d.sqlite" % workers))
        with RunStore(path) as store:
            ExperimentSession(workers=workers, store=store).sweep(SPECS)
            _, rows = store.query(
                "SELECT %s FROM runs ORDER BY spec_key" % self.COLUMNS
            )
            _, rollups = store.query(
                "SELECT runs.spec_key, span_rollups.name, "
                "span_rollups.calls FROM span_rollups "
                "JOIN runs ON runs.id = span_rollups.run_id "
                "ORDER BY runs.spec_key, span_rollups.name"
            )
        return rows, rollups

    def test_parallel_rows_match_sequential(self, tmp_path):
        seq_rows, seq_rollups = self._rows(tmp_path, 0)
        par_rows, par_rollups = self._rows(tmp_path, 2)
        assert len(seq_rows) == len(SPECS)
        assert seq_rows == par_rows
        assert [r[:2] for r in seq_rollups] == [r[:2] for r in par_rollups]

    def test_pooled_host_seconds_fit_in_the_sweep(self, tmp_path):
        """A pooled row's host_seconds is its worker attempt's wall
        time, so no row can exceed the sweep's own wall time -- also
        with ``profile_phases``, whose nested ``sim.*`` phases repeat
        time the ``simulate`` phase already holds."""
        specs = [RunSpec("gcc", "vcfr", 64, max_instructions=60_000),
                 RunSpec("mcf", "baseline", max_instructions=60_000)]
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            started = time.perf_counter()
            ExperimentSession(workers=2, store=store,
                              profile_phases=True).sweep(specs)
            wall = time.perf_counter() - started
            _, rows = store.query("SELECT host_seconds FROM runs")
        assert len(rows) == len(specs)
        assert all(0 < host <= wall for (host,) in rows), (rows, wall)

    @pytest.mark.parametrize("workers", [0, 2])
    def test_every_row_carries_its_rollup(self, tmp_path, workers):
        """A store reads its attempts' spans, so every row gets their
        rollup without a tracer; with ``profile_phases`` that includes
        the sampled ``sim.<layer>`` spans."""
        profiled = [RunSpec("gcc", "vcfr", 64, max_instructions=60_000),
                    RunSpec("mcf", "baseline", max_instructions=60_000),
                    RunSpec("mcf", "emulate", max_instructions=60_000)]
        for specs, profile in ((SPECS, False), (profiled, True)):
            path = str(tmp_path / ("runs%d.sqlite" % profile))
            with RunStore(path) as store:
                ExperimentSession(workers=workers, store=store,
                                  profile_phases=profile).sweep(specs)
                _, rows = store.query("SELECT id FROM runs")
                rollups = [set(store.rollups(run_id)) for (run_id,) in rows]
            assert len(rollups) == len(specs)
            for names in rollups:
                assert "attempt" in names
                assert names & {"simulate", "emulate"}
                if profile:
                    assert any(name.startswith("sim.") for name in names)

    def test_config_digest_recorded(self, tmp_path):
        config = default_config()
        with RunStore(str(tmp_path / "runs.sqlite")) as store:
            ExperimentSession(config, store=store).sweep([SPECS[0]])
            _, rows = store.query("SELECT config_digest FROM runs")
            assert rows == [(config_fingerprint(config),)]


class TestStatsStoreCli:
    @pytest.fixture()
    def store_path(self, tmp_path):
        path = str(tmp_path / "runs.sqlite")
        with RunStore(path) as store:
            store.record_run(spec_dict("mcf", "baseline"),
                             fake_result(ipc=0.6), created_at=1.0)
            store.record_run(spec_dict("mcf", "vcfr", 64),
                             fake_result(ipc=0.55), created_at=2.0)
        return path

    def test_best(self, store_path, capsys):
        assert stats.main(["best", store_path, "--metric", "ipc"]) == 0
        out = capsys.readouterr().out
        assert "mcf" in out and "baseline" in out and "0.6000" in out

    def test_compare(self, store_path, capsys):
        assert stats.main(
            ["compare", store_path, "vcfr@64", "baseline"]) == 0
        out = capsys.readouterr().out
        assert "1.09x" in out

    def test_history(self, store_path, capsys):
        assert stats.main(["history", store_path, "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "vcfr@64" in out and "baseline" not in out

    def test_sql(self, store_path, capsys):
        assert stats.main(
            ["sql", store_path, "SELECT COUNT(*) AS n FROM runs"]) == 0
        assert "2" in capsys.readouterr().out

    def test_sql_error_is_reported(self, store_path, capsys):
        assert stats.main(["sql", store_path, "SELECT nope FROM runs"]) == 1
        assert "error" in capsys.readouterr().err

    def test_backfill_requires_a_source(self, tmp_path, capsys):
        path = str(tmp_path / "new.sqlite")
        assert stats.main(["backfill", path]) == 1
        assert "nothing to backfill" in capsys.readouterr().err

    def test_backfill_cache_cli(self, tmp_path, capsys):
        cache = ResultCache(str(tmp_path / "cache"))
        ExperimentSession(cache=cache).sweep([SPECS[0]])
        path = str(tmp_path / "new.sqlite")
        assert stats.main(["backfill", path, "--cache-dir",
                           str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "1 runs ingested" in out
        assert "store now holds 1 runs" in out

    def test_jsonl_front_end_still_works(self, tmp_path, capsys):
        # The store subcommands must not break positional-file usage.
        path = str(tmp_path / "ev.jsonl")
        log = EventLog(FileSink(path))
        ExperimentSession(events=log).sweep([SPECS[0]])
        log.close()
        assert stats.main([path, "--section", "runs"]) == 0
        assert "baseline" in capsys.readouterr().out


class TestHarnessCliIntegration:
    def test_runner_store_path_records_runs(self, tmp_path):
        store_path = str(tmp_path / "runs.sqlite")
        runner = ExperimentSession(max_instructions=BUDGET,
                                   store_path=store_path)
        runner.prefetch([runner.spec("mcf", "baseline")])
        runner.store.close()
        with RunStore(store_path) as store:
            assert store.counts()["runs"] == 1
            assert store.best("ipc")[0]["workload"] == "mcf"
