"""Event-log observers: the live sweep dashboard (event consumption,
rendering, sink teeing) and the ``--progress`` printer."""

import argparse
import io

from repro.harness import ExperimentSession, RunSpec
from repro.harness import __main__ as harness_cli
from repro.harness.cli import (
    add_observability_options,
    add_sweep_options,
    sweep_from_args,
)
from repro.harness.dashboard import Dashboard, Progress
from repro.obs import sparkline
from repro.obs.events import EventLog, MemorySink, read_events

BUDGET = 3000


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def dispatch(workload="mcf", mode="baseline", attempt=0, **extra):
    record = {"kind": "spec_dispatch", "workload": workload, "mode": mode,
              "attempt": attempt}
    record.update(extra)
    return record


def done(workload="mcf", mode="baseline", cached=False, **extra):
    record = {"kind": "spec_done", "workload": workload, "mode": mode,
              "cached": cached}
    record.update(extra)
    return record


def make_dashboard(**kwargs):
    stream = io.StringIO()
    kwargs.setdefault("interval", 0.0)
    kwargs.setdefault("ansi", False)
    dashboard = Dashboard(stream, kwargs.pop("total", 0), **kwargs)
    return dashboard, stream


class TestStateTracking:
    def test_dispatch_and_done_track_progress(self):
        dashboard, _ = make_dashboard(total=3)
        dashboard.observe(dispatch("mcf"))
        dashboard.observe(dispatch("bzip2", "vcfr", drc_entries=64))
        assert dashboard.running == {"mcf/baseline": 0,
                                     "bzip2/vcfr@64": 0}
        dashboard.observe(done("mcf"))
        assert dashboard.done == 1
        assert "mcf/baseline" not in dashboard.running

    def test_cached_and_failed_counted(self):
        dashboard, _ = make_dashboard()
        dashboard.observe(done("mcf", cached=True))
        dashboard.observe(dispatch("bzip2"))
        dashboard.observe({"kind": "run_failed", "workload": "bzip2",
                           "mode": "baseline"})
        assert dashboard.cached == 1
        assert dashboard.failed == 1
        assert dashboard.done == 2
        assert dashboard.running == {}

    def test_retry_keeps_spec_running(self):
        dashboard, _ = make_dashboard()
        dashboard.observe(dispatch("mcf"))
        dashboard.observe({"kind": "run_retry", "workload": "mcf",
                           "mode": "baseline", "attempt": 1})
        dashboard.observe(dispatch("mcf", attempt=1))
        assert dashboard.retries == 1
        assert dashboard.running["mcf/baseline"] == 1

    def test_checkpoints_feed_rolling_ipc(self):
        dashboard, _ = make_dashboard(ipc_window=3)
        for ipc in (0.5, 0.6, 0.7, 0.8):
            dashboard.observe({"kind": "checkpoint", "ipc": ipc})
        assert list(dashboard.ipc) == [0.6, 0.7, 0.8]

    def test_engine_label_field_keys_running_specs(self):
        dashboard, _ = make_dashboard()
        label = "service/none/disc0.25"
        dashboard.observe({"kind": "spec_dispatch", "workload": "service",
                           "label": label, "attempt": 0})
        assert dashboard.running == {label: 0}
        dashboard.observe({"kind": "race_point", "policy": "none"})
        dashboard.observe({"kind": "spec_done", "workload": "service",
                           "label": label, "cached": False})
        assert dashboard.running == {}
        assert dashboard.done == 1  # the job point itself is not a "done"
        assert dashboard.races == 1

    def test_unrelated_kinds_ignored(self):
        dashboard, stream = make_dashboard()
        dashboard.observe({"kind": "status", "message": "hi"})
        assert stream.getvalue() == ""


class TestRendering:
    def test_render_block(self):
        dashboard, _ = make_dashboard(total=4)
        dashboard.observe(done("mcf", cached=True))
        dashboard.observe(dispatch("bzip2", "vcfr", attempt=1,
                                   drc_entries=64))
        dashboard.observe({"kind": "checkpoint", "ipc": 0.625})
        block = dashboard.render()
        head, spec_line = block.split("\n")
        assert "sweep 1 / 4 done" in head
        assert "cache 1 (100%)" in head
        assert "ipc" in head and "0.625" in head
        assert spec_line.strip() == "> bzip2/vcfr@64  (attempt 1)"

    def test_tier_telemetry_accumulates_from_run_end(self):
        dashboard, _ = make_dashboard()
        dashboard.observe({
            "kind": "run_end", "instructions": 1000,
            "tiers": {"blocks": {"execs": 40, "hits": 39},
                      "traces": {"entries": 25, "bailouts": 2}},
        })
        dashboard.observe({
            "kind": "run_end", "instructions": 1000,
            "tiers": {"blocks": {"execs": 10}},
        })
        block = dashboard.render()
        assert "tiers blk 50 trc 25 bail 2" in block

    def test_run_end_without_tiers_is_ignored(self):
        dashboard, _ = make_dashboard()
        dashboard.observe({"kind": "run_end", "instructions": 1000})
        assert "tiers" not in dashboard.render()

    def test_throttle_respects_interval(self):
        clock = FakeClock()
        dashboard, stream = make_dashboard(interval=1.0, clock=clock)
        dashboard.observe(done("a"))
        first = stream.getvalue()
        clock.now = 0.5
        dashboard.observe(done("b"))
        assert stream.getvalue() == first  # throttled
        clock.now = 1.5
        dashboard.observe(done("c"))
        assert stream.getvalue() != first

    def test_ansi_redraw_rewinds_previous_block(self):
        dashboard, stream = make_dashboard(ansi=True)
        dashboard.observe(dispatch("mcf"))
        dashboard.observe(done("mcf"))
        text = stream.getvalue()
        # Second draw rewinds over the first two-line block.
        assert "\x1b[2A\x1b[J" in text

    def test_non_tty_output_is_single_plain_lines(self):
        dashboard, stream = make_dashboard(ansi=False)
        dashboard.observe(dispatch("mcf"))
        dashboard.observe(done("mcf"))
        dashboard.finish()
        assert "\x1b[" not in stream.getvalue()
        for line in stream.getvalue().splitlines():
            assert line.startswith("sweep ")

    def test_sparkline_scales_to_range(self):
        assert sparkline([]) == ""
        line = sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] < line[-1]
        assert sparkline([0.7] * 3) == "▄▄▄"  # a flat series sits mid-height

    def test_finish_renders_unconditionally(self):
        clock = FakeClock()
        dashboard, stream = make_dashboard(interval=100.0, clock=clock)
        dashboard.observe(done("a"))
        dashboard.observe(done("b"))  # throttled away
        dashboard.finish()
        assert "sweep 2 done" in stream.getvalue()


class TestSinkTee:
    def test_attach_tees_without_stealing_records(self):
        sink = MemorySink()
        log = EventLog(sink)
        dashboard, _ = make_dashboard()
        dashboard.attach(log)
        log.emit("spec_done", workload="mcf", mode="baseline",
                 cached=False)
        assert dashboard.done == 1
        assert [r["kind"] for r in sink.records] == ["spec_done"]

    def test_attach_enables_a_null_log(self):
        log = EventLog()  # NullSink: disabled by default
        assert not log.enabled
        dashboard, _ = make_dashboard()
        dashboard.attach(log)
        assert log.enabled
        log.emit("spec_done", workload="mcf", mode="baseline",
                 cached=False)
        assert dashboard.done == 1

    def test_live_sweep_drives_dashboard(self):
        log = EventLog(MemorySink())
        dashboard, stream = make_dashboard(total=2)
        dashboard.attach(log)
        specs = [RunSpec("mcf", "baseline", max_instructions=BUDGET),
                 RunSpec("bzip2", "naive_ilr", max_instructions=BUDGET)]
        ExperimentSession(events=log,
                          checkpoint_interval=1000).sweep(specs)
        dashboard.finish()
        assert dashboard.done == 2
        assert dashboard.ipc  # checkpoints flowed through
        assert "sweep 2 / 2 done" in stream.getvalue()

    def test_feed_replays_a_record_stream(self):
        dashboard, _ = make_dashboard()
        dashboard.feed([dispatch("mcf"), done("mcf"),
                        {"kind": "checkpoint", "ipc": 0.5}])
        assert dashboard.done == 1
        assert list(dashboard.ipc) == [0.5]


class TestProgress:
    def test_lines_from_records(self, capsys):
        progress = Progress()
        progress.observe({"kind": "checkpoint", "workload": "gcc",
                          "mode": "vcfr", "drc_entries": 128,
                          "instructions": 250, "ipc": 0.5,
                          "il1_miss_rate": 0.01, "drc_miss_rate": 0.25})
        # An emulator checkpoint has no IPC: silent.
        progress.observe({"kind": "checkpoint", "workload": "gcc",
                          "instructions": 2500})
        progress.observe(done("mcf"))
        progress.observe(done("mcf", cached=True, label="mcf/baseline"))
        progress.observe({"kind": "run_failed", "label": "bzip2/baseline",
                          "attempts": 3, "error": "RuntimeError('boom')"})
        progress.observe(dispatch("mcf"))
        assert capsys.readouterr().err.splitlines() == [
            "[gcc/vcfr@128]     250 instr  ipc 0.500  il1 0.0100  "
            "drc 0.2500",
            "[mcf/baseline] done",
            "[mcf/baseline] cached",
            "[bzip2/baseline] FAILED after 3 attempt(s): "
            "RuntimeError('boom')",
        ]

    @staticmethod
    def _sweep_stderr(capsys, *flags):
        parser = argparse.ArgumentParser()
        add_observability_options(parser)
        add_sweep_options(parser)
        specs = [RunSpec("mcf", "baseline", max_instructions=2 * BUDGET),
                 RunSpec("bzip2", "vcfr", max_instructions=2 * BUDGET)]
        capsys.readouterr()
        outcomes = sweep_from_args(parser.parse_args(list(flags)), specs)
        assert all(outcome.ok for outcome in outcomes)
        return capsys.readouterr().err.splitlines()

    def test_pooled_sweep_prints_the_inline_heartbeats(self, capsys):
        inline = self._sweep_stderr(capsys, "--progress")
        pooled = self._sweep_stderr(capsys, "--progress", "--workers", "2")
        heartbeats = [line for line in inline if " instr  ipc " in line]
        # The automatic cadence (the session's 300k budget // 100)
        # follows the log the observer turned on: 2 or more per spec.
        assert len(heartbeats) >= 4
        assert {line.split("]")[0] for line in heartbeats} == {
            "[mcf/baseline", "[bzip2/vcfr@128"}
        assert [line for line in pooled if " instr  ipc " in line] \
            == heartbeats
        done_lines = ["[mcf/baseline] done", "[bzip2/vcfr@128] done"]
        assert [line for line in inline if line.endswith("] done")] \
            == done_lines
        assert sorted(line for line in pooled if line.endswith("] done")) \
            == sorted(done_lines)

    def test_progress_leaves_the_event_log_unchanged(self, tmp_path):
        """--progress only reads the log: with --events already on, the
        records are the same but for time, sequence and host-time
        fields."""
        volatile = {"t", "seq", "seconds", "host_seconds"}
        logs = []
        for name, extra in (("plain", []), ("progress", ["--progress"])):
            path = str(tmp_path / (name + ".jsonl"))
            assert harness_cli.main(["fig12", "--scale", "0.2",
                                     "--max-instructions", "3000",
                                     "--events", path] + extra) == 0
            logs.append([{k: v for k, v in record.items()
                          if k not in volatile}
                         for record in read_events(path)])
        plain, with_progress = logs
        assert any(r["kind"] == "checkpoint" for r in plain)
        assert with_progress == plain
