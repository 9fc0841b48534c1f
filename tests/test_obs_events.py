"""Event log: JSONL round-trip, sink selection, checkpoint cadence."""

import json
import signal

import pytest

from repro.arch.cpu import CycleCPU, simulate
from repro.arch.trace import attach_tracer
from repro.harness import RunSpec
from repro.harness.sweep import build_program
from repro.ilr import make_flow
from repro.isa import assemble
from repro.obs.events import (
    EventLog,
    FileSink,
    MemorySink,
    NullSink,
    make_sink,
    follow_events,
    open_log,
    read_events,
)
from repro.obs.profile import PhaseProfiler

LOOPY = """
.code 0x400000
main:
    movi ecx, 0
.loop:
    add ecx, 1
    cmp ecx, 4000
    jl .loop
    movi eax, 1
    movi ebx, 0
    int 0x80
"""


class TestSinks:
    def test_null_sink_is_disabled(self):
        log = EventLog()
        assert not log.enabled
        log.emit("checkpoint", ipc=1.0)  # safe no-op

    def test_memory_sink_records(self):
        sink = MemorySink()
        log = EventLog(sink)
        log.emit("run_start", workload="w", mode="baseline")
        log.status("hello", detail=1)
        assert [r["kind"] for r in sink.records] == ["run_start", "status"]
        assert sink.records[0]["workload"] == "w"
        assert sink.records[0]["seq"] == 0
        assert sink.records[1]["seq"] == 1
        assert sink.records[1]["t"] >= sink.records[0]["t"]

    def test_make_sink_selection(self, tmp_path):
        assert isinstance(make_sink(None), NullSink)
        assert isinstance(make_sink("null"), NullSink)
        assert isinstance(make_sink("memory"), MemorySink)
        file_sink = make_sink(str(tmp_path / "ev.jsonl"))
        assert isinstance(file_sink, FileSink)
        file_sink.close()

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        with open_log(path) as log:
            log.run_start("gcc", "vcfr", max_instructions=100)
            log.phase("simulate", 0.25, workload="gcc")
            log.run_end("gcc", "vcfr", instructions=100)
        records = read_events(path)
        assert [r["kind"] for r in records] == [
            "run_start", "phase", "run_end",
        ]
        assert records[1]["seconds"] == 0.25
        # the file is genuinely line-delimited JSON
        with open(path) as fh:
            for line in fh:
                json.loads(line)

    def test_read_events_kind_filter(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        with open_log(path) as log:
            log.emit("a")
            log.emit("b")
            log.emit("a")
        assert len(read_events(path, kinds=("a",))) == 2


class TestProfilerEvents:
    def test_phase_accumulation_and_emission(self):
        sink = MemorySink()
        prof = PhaseProfiler(EventLog(sink))
        with prof.phase("build", workload="gcc"):
            pass
        with prof.phase("build", workload="mcf"):
            pass
        assert prof.stats["build"].calls == 2
        assert prof.stats["build"].seconds >= 0.0
        phases = [r for r in sink.records if r["kind"] == "phase"]
        assert len(phases) == 2
        assert phases[0]["workload"] == "gcc"
        assert "build" in prof.format_table()

    def test_add_direct(self):
        prof = PhaseProfiler()
        prof.add("sim.decode", 1.5, calls=100)
        prof.add("sim.decode", 0.5, calls=50)
        assert prof.stats["sim.decode"].seconds == 2.0
        assert prof.stats["sim.decode"].calls == 150
        assert prof.total_seconds == 2.0

    def test_sampler_attributes_host_time_on_the_fast_path(self):
        # gcc runs a few hundred ms on the block and trace tiers: enough
        # SIGPROF ticks (about one per 4 ms on a shared host) to land
        # in the cache, branch and pipeline models.
        program = build_program(RunSpec("gcc"))
        cpu = CycleCPU(program.vcfr_image, make_flow("vcfr", program))
        prof = PhaseProfiler()
        with prof.phase("simulate"), prof.sample():
            cpu.run(300_000)
        assert cpu.tier_stats()["blocks"]["execs"] > 0
        sampled = [stat.seconds for name, stat in prof.stats.items()
                   if name.startswith("sim.")]
        assert any(name.startswith("sim.arch.") for name in prof.stats)
        assert sum(sampled) <= prof.stats["simulate"].seconds
        assert signal.getsignal(signal.SIGPROF) == signal.SIG_DFL
        assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)

    def test_sampler_restores_sigprof_when_the_run_raises(self):
        def previous(_signum, _frame):
            pass

        def boom(_checkpoint):
            raise RuntimeError("boom")

        image = assemble(LOOPY)
        cpu = CycleCPU(image, make_flow("baseline", image=image),
                       checkpoint_interval=1000, on_checkpoint=boom)
        saved = signal.signal(signal.SIGPROF, previous)
        try:
            with pytest.raises(RuntimeError, match="boom"):
                with PhaseProfiler().sample():
                    cpu.run()
            assert signal.getsignal(signal.SIGPROF) is previous
            assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
        finally:
            signal.signal(signal.SIGPROF, saved)

    def test_table_column_fits_the_longest_phase(self):
        prof = PhaseProfiler()
        prof.add("sim.arch.tracecache", 1.0)
        prof.add("build", 2.0)
        # "seconds" is right-aligned: each row's number ends in the
        # header's column.
        ends = {line.index(line.split()[1]) + len(line.split()[1])
                for line in prof.format_table().splitlines()}
        assert len(ends) == 1


class TestCheckpointCadence:
    def _run(self, interval, sink=None):
        image = assemble(LOOPY)
        log = EventLog(sink) if sink is not None else None
        return simulate(
            image,
            make_flow("baseline", image=image),
            events=log,
            checkpoint_interval=interval,
            event_fields={"workload": "loopy"},
        )

    def test_checkpoints_off_by_default(self):
        image = assemble(LOOPY)
        result = simulate(image, make_flow("baseline", image=image))
        assert result.checkpoints == []

    def test_cadence_and_final_partial_window(self):
        result = self._run(1000)
        # ~12k retired instructions at interval 1000, plus the final
        # partial window sampled at program exit.
        assert result.finished
        expected = result.instructions // 1000
        assert expected <= len(result.checkpoints) <= expected + 1
        # cumulative axis is monotonic; windows cover the whole run
        instrs = [c.instructions for c in result.checkpoints]
        assert instrs == sorted(instrs)
        assert instrs[-1] == result.instructions
        # instantaneous IPC windows are consistent with the totals
        assert all(0 < c.ipc <= 1.0 for c in result.checkpoints)

    def test_checkpoint_events_match_result(self):
        sink = MemorySink()
        result = self._run(2000, sink=sink)
        checkpoints = [r for r in sink.records if r["kind"] == "checkpoint"]
        assert len(checkpoints) == len(result.checkpoints)
        assert checkpoints[0]["workload"] == "loopy"
        assert checkpoints[0]["mode"] == "baseline"
        kinds = [r["kind"] for r in sink.records]
        assert kinds[0] == "run_start" and kinds[-1] == "run_end"
        run_end = sink.records[-1]
        assert run_end["instructions"] == result.instructions
        assert run_end["checkpoints"] == len(result.checkpoints)


class TestTracerJsonl:
    def test_to_jsonl_round_trip(self, tmp_path):
        image = assemble(LOOPY)
        cpu = CycleCPU(image, make_flow("baseline", image=image))
        tracer = attach_tracer(cpu, capacity=64)
        cpu.run(max_instructions=1000)
        path = str(tmp_path / "trace.jsonl")
        written = tracer.to_jsonl(path)
        assert written == 64  # ring bounded the dump
        with open(path) as fh:
            records = [json.loads(line) for line in fh]
        assert len(records) == 64
        assert records[-1]["seq"] == tracer.retired
        assert {"seq", "arch_pc", "fetch_pc", "mnemonic", "taken",
                "target"} <= set(records[0])


class TestTruncatedLogs:
    """A writer killed mid-line (the scenario the fault-tolerant sweep
    recovers from) must not poison the captured prefix."""

    def _write_truncated(self, path):
        log = EventLog(FileSink(path))
        log.run_start("mcf", "vcfr", drc_entries=64)
        log.emit("checkpoint", workload="mcf", mode="vcfr", drc_entries=64,
                 instructions=1000, ipc=0.5)
        log.emit("checkpoint", workload="mcf", mode="vcfr", drc_entries=64,
                 instructions=2000, ipc=0.7)
        log.run_end("mcf", "vcfr", instructions=2000, cycles=4000,
                    ipc=0.6, il1_miss_rate=0.01, drc_miss_rate=0.02,
                    checkpoints=2, host_seconds=0.1)
        log.close()
        # Chop the final record mid-JSON, the way SIGKILL does.
        with open(path) as fh:
            lines = fh.read().splitlines()
        with open(path, "w") as fh:
            fh.write("\n".join(lines[:-1]))
            fh.write("\n" + lines[-1][: len(lines[-1]) // 2])
        return path

    def test_read_events_skips_the_partial_line(self, tmp_path):
        path = self._write_truncated(str(tmp_path / "events.jsonl"))
        records = read_events(path)
        assert [r["kind"] for r in records] == [
            "run_start", "checkpoint", "checkpoint"
        ]

    def test_stats_cli_survives_a_truncated_log(self, tmp_path, capsys):
        from repro.tools.stats import main as stats_main

        path = self._write_truncated(str(tmp_path / "events.jsonl"))
        assert stats_main([path]) == 0
        out = capsys.readouterr().out
        assert "checkpoint" in out
        # The IPC table is derived through simstats.ratio(): two intact
        # checkpoints, mean over exactly those two.
        assert "0.600" in out  # (0.5 + 0.7) / 2

    def test_stats_cli_handles_checkpointless_logs(self, tmp_path, capsys):
        # Degenerate log (run_start only): every section that divides
        # must fall back to ratio()'s default instead of raising.
        path = str(tmp_path / "sparse.jsonl")
        log = EventLog(FileSink(path))
        log.run_start("mcf", "baseline")
        log.close()
        from repro.tools.stats import main as stats_main

        assert stats_main([path]) == 0
        assert "run_start" in capsys.readouterr().out


class TestReadFilters:
    def _log(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        with open_log(path) as log:
            log.emit("a", n=0)
            log.emit("b", n=1)
            log.emit("a", n=2)
        return path

    def test_kind_singular_filter(self, tmp_path):
        path = self._log(tmp_path)
        records = read_events(path, kind="b")
        assert [r["n"] for r in records] == [1]

    def test_since_resumes_after_a_seq(self, tmp_path):
        path = self._log(tmp_path)
        records = read_events(path, since=0)
        assert [r["seq"] for r in records] == [1, 2]
        assert read_events(path, since=2) == []

    def test_since_and_kind_compose(self, tmp_path):
        path = self._log(tmp_path)
        records = read_events(path, kind="a", since=0)
        assert [r["n"] for r in records] == [2]

    def test_blank_lines_skipped(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        with open(path, "w") as fh:
            fh.write('{"kind": "a", "seq": 0}\n')
            fh.write("\n")
            fh.write("   \n")
            fh.write('{"kind": "b", "seq": 1}\n')
        assert [r["kind"] for r in read_events(path)] == ["a", "b"]


class TestFollowEvents:
    def test_follow_yields_existing_then_stops(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        with open_log(path) as log:
            log.emit("a")
            log.emit("b")
        records = list(follow_events(path, poll_interval=0,
                                     stop=lambda: True))
        assert [r["kind"] for r in records] == ["a", "b"]

    def test_follow_sees_appended_records(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        with open(path, "w") as fh:
            fh.write('{"kind": "a", "seq": 0}\n')
            fh.flush()
            seen = []
            stream = follow_events(path, poll_interval=0,
                                   stop=lambda: len(seen) >= 2)
            seen.append(next(stream))
            fh.write('{"kind": "b", "seq": 1}\n')
            fh.flush()
            seen.append(next(stream))
        assert [r["kind"] for r in seen] == ["a", "b"]

    def test_follow_buffers_partial_lines(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        with open(path, "w") as fh:
            fh.write('{"kind": "a", "se')  # torn mid-record
            fh.flush()
            done = []
            stream = follow_events(path, poll_interval=0,
                                   stop=lambda: bool(done))
            fh.write('q": 0}\n')
            fh.flush()
            record = next(stream)
            done.append(True)
        assert record == {"kind": "a", "seq": 0}
        assert list(stream) == []

    def test_follow_kind_filter(self, tmp_path):
        path = str(tmp_path / "ev.jsonl")
        with open_log(path) as log:
            log.emit("a")
            log.emit("b")
            log.emit("a")
        records = list(follow_events(path, kind="a", poll_interval=0,
                                     stop=lambda: True))
        assert len(records) == 2
