"""Live sweep dashboard: event consumption, rendering, sink teeing."""

import io

from repro.harness import RunSpec, sweep
from repro.harness.dashboard import Dashboard, _sparkline
from repro.obs.events import EventLog, MemorySink

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
        assert _sparkline([]) == ""
        line = _sparkline([0.0, 0.5, 1.0])
        assert len(line) == 3
        assert line[0] < line[-1]

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
        sweep(specs, workers=0, events=log, checkpoint_interval=1000)
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
