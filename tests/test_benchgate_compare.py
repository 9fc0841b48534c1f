"""The benchgate trend check (fresh BENCH_*.json vs committed baseline)
and the one timing loop and estimator every alternating bench gates on."""

import json
import subprocess
from types import SimpleNamespace

import pytest

from repro.tools import benchgate
from repro.tools.benchgate import (compare_reports, emit_experiment,
                                   gate_overhead, main, paired_ratio,
                                   record_ratio, time_rounds)


def _report(**metrics):
    gates = []
    for metric, (value, threshold, op) in metrics.items():
        from repro.tools.benchgate import _OPS

        gates.append({"metric": metric, "value": value,
                      "threshold": threshold, "op": op,
                      "pass": bool(_OPS[op](value, threshold))})
    return {"bench": "x", "pass": all(g["pass"] for g in gates),
            "gates": gates}


class TestCompareReports:
    def test_no_drift_is_clean(self):
        base = _report(speedup=(3.6, 3.0, ">="))
        assert compare_reports(base, base) == []

    def test_direction_comes_from_op(self):
        base = _report(speedup=(3.6, 3.0, ">="), overhead=(0.004, 0.02, "<"))
        # Improvements in each direction never flag.
        better = _report(speedup=(9.9, 3.0, ">="),
                         overhead=(-0.01, 0.02, "<"))
        assert compare_reports(better, base) == []
        worse = _report(speedup=(2.0, 3.0, ">="), overhead=(0.019, 0.02, "<"))
        problems = compare_reports(worse, base)
        assert len(problems) == 3  # failing own gate + two regressions
        assert any("speedup" in p and "dropped" in p for p in problems)
        assert any("overhead" in p and "rose" in p for p in problems)

    def test_margin_is_threshold_anchored(self):
        # Near-zero overhead baselines get slack from their *budget*:
        # 0.001 -> 0.005 is absolute noise well inside 30% of 0.02.
        base = _report(overhead=(0.001, 0.02, "<"))
        wobble = _report(overhead=(0.005, 0.02, "<"))
        assert compare_reports(wobble, base) == []

    def test_equality_gates_are_skipped(self):
        base = _report(check=(True, True, "=="))
        flipped = {"bench": "x", "pass": True,
                   "gates": [{"metric": "check", "value": False,
                              "threshold": True, "op": "==", "pass": True}]}
        assert compare_reports(flipped, base) == []

    def test_failing_report_flags_itself(self):
        base = _report(speedup=(3.6, 3.0, ">="))
        current = dict(base, **{"pass": False})
        assert compare_reports(current, base) == [
            "report is failing its own gates"]

    def test_regression_message_shows_both_spreads(self):
        base = _report(overhead=(0.01, 0.05, "<"))
        worse = _report(overhead=(0.04, 0.05, "<"))
        assert compare_reports(worse, base) == [
            "overhead: 0.01 -> 0.04 (rose, allowed drift 0.015)"]
        base["gates"][0].update(q1=0.002, q3=0.018)
        assert compare_reports(worse, base) == [
            "overhead: 0.01 -> 0.04 (rose, allowed drift 0.015)"]
        worse["gates"][0].update(q1=0.031, q3=0.052)
        assert compare_reports(worse, base) == [
            "overhead: 0.01 [q1 0.002, q3 0.018] -> 0.04 [q1 0.031, "
            "q3 0.052] (rose, allowed drift 0.015)"]

    def test_new_metric_without_baseline_is_skipped(self):
        base = _report(speedup=(3.6, 3.0, ">="))
        grown = _report(speedup=(3.6, 3.0, ">="), extra=(1.0, 0.5, ">="))
        assert compare_reports(grown, base) == []


@pytest.fixture
def bench_repo(tmp_path, monkeypatch):
    """A tiny git repo with one committed BENCH_demo.json baseline."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("BENCH_REPORT_DIR", raising=False)

    def git(*argv):
        subprocess.run(["git", *argv], cwd=str(tmp_path), check=True,
                       capture_output=True)

    git("init", "-q")
    git("config", "user.email", "bench@example.invalid")
    git("config", "user.name", "bench")
    baseline = _report(speedup=(3.6, 3.0, ">="))
    (tmp_path / "BENCH_demo.json").write_text(json.dumps(baseline))
    git("add", "BENCH_demo.json")
    git("commit", "-q", "-m", "baseline")
    return tmp_path


class TestCompareCli:
    def test_clean_report_passes(self, bench_repo, capsys):
        assert main(["--compare"]) == 0
        assert "demo" in capsys.readouterr().out

    def test_regression_fails(self, bench_repo, capsys):
        (bench_repo / "BENCH_demo.json").write_text(
            json.dumps(_report(speedup=(1.0, 3.0, ">="))))
        assert main(["--compare"]) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_missing_fresh_report_is_skipped(self, bench_repo, capsys):
        (bench_repo / "BENCH_demo.json").unlink()
        assert main(["--compare"]) == 0
        assert "skipped" in capsys.readouterr().out

    def test_bootstrap_without_baselines_passes(self, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.chdir(tmp_path)
        subprocess.run(["git", "init", "-q"], cwd=str(tmp_path), check=True,
                       capture_output=True)
        assert main(["--compare"]) == 0
        assert "bootstrap" in capsys.readouterr().out

    def test_explicit_name_without_baseline_is_skipped(self, bench_repo,
                                                       capsys):
        assert main(["--compare", "nonexistent"]) == 0
        assert "new bench?" in capsys.readouterr().out


class TestEmitExperiment:
    """An experiment's report lands in the working directory only where
    a baseline is committed; ``$BENCH_REPORT_DIR`` takes every report."""

    @pytest.fixture(autouse=True)
    def fresh_registry(self, monkeypatch):
        monkeypatch.setattr(benchgate, "_registry", {})

    @staticmethod
    def _result(exp_id):
        return SimpleNamespace(exp_id=exp_id, checks=[("holds", True)])

    def test_only_committed_baselines_are_rewritten(self, bench_repo):
        emit_experiment(self._result("demo"))
        emit_experiment(self._result("fresh"))
        report = json.loads((bench_repo / "BENCH_demo.json").read_text())
        assert [g["metric"] for g in report["gates"]] == ["holds"]
        assert not (bench_repo / "BENCH_fresh.json").exists()

    def test_report_dir_takes_every_report(self, bench_repo, monkeypatch):
        out = bench_repo / "reports"
        out.mkdir()
        monkeypatch.setenv("BENCH_REPORT_DIR", str(out))
        emit_experiment(self._result("fresh"))
        assert json.loads((out / "BENCH_fresh.json").read_text())["pass"]


def _scripted(calls, name, seconds, result="result"):
    """A leg that logs its name and returns the next scripted time."""
    seconds = iter(seconds)

    def run():
        calls.append(name)
        return next(seconds), result
    return run


class TestTimeRounds:
    def test_alternates_two_legs_after_an_untimed_call_each(self):
        calls = []
        times = time_rounds(
            {"base": _scripted(calls, "base", [9.0, 1.0, 1.2, 1.0, 1.1]),
             "other": _scripted(calls, "other", [9.0, 1.1, 1.1, 1.3, 1.1])},
            4)
        assert calls == ["base", "other"] + ["base", "other",
                                             "other", "base"] * 2
        # The untimed first call (9.0) is in no round.
        assert times == {"base": [1.0, 1.2, 1.0, 1.1],
                         "other": [1.1, 1.1, 1.3, 1.1]}

    def test_rotates_three_legs_by_one_each_round(self):
        calls = []
        legs = {name: _scripted(calls, name, [1.0] * 5) for name in "abc"}
        times = time_rounds(legs, 4)
        assert calls == list("abc" "abc" "bca" "cab" "abc")
        assert {name: len(t) for name, t in times.items()} == {
            "a": 4, "b": 4, "c": 4}

    def test_collects_garbage_before_each_leg(self, monkeypatch):
        calls = []
        monkeypatch.setattr(benchgate.gc, "collect",
                            lambda: calls.append("gc"))
        time_rounds({"a": _scripted(calls, "a", [1.0] * 2),
                     "b": _scripted(calls, "b", [1.0] * 2)}, 1)
        assert calls == ["gc", "a", "gc", "b", "gc", "a", "gc", "b"]

    def test_a_leg_that_changes_the_result_fails(self):
        with pytest.raises(AssertionError, match="other leg"):
            time_rounds({"base": lambda: (1.0, "a"),
                         "other": lambda: (1.0, "b")}, 2)


class TestPairedRatio:
    def test_median_and_quartiles_of_per_round_ratios(self):
        # Ratios 1.0, 1.1, 1.2, 1.3, 1.4 in scrambled rounds.
        over = [2.2, 1.0, 3.9, 2.4, 1.4]
        under = [2.0, 1.0, 3.0, 2.0, 1.0]
        assert paired_ratio(over, under) == pytest.approx((1.2, 1.1, 1.3))

    def test_pairs_rounds_not_sorted_legs(self):
        # Medians of the legs alone would read 1.0; every round reads 2.
        over = [2.0, 4.0, 6.0]
        under = [1.0, 2.0, 3.0]
        assert paired_ratio(over, under) == pytest.approx((2.0, 2.0, 2.0))


class TestRatioGates:
    @pytest.fixture(autouse=True)
    def report_dir(self, tmp_path, monkeypatch):
        monkeypatch.setattr(benchgate, "_registry", {})
        monkeypatch.setenv("BENCH_REPORT_DIR", str(tmp_path))
        return tmp_path

    @staticmethod
    def _entry(report_dir, bench):
        report = json.loads((report_dir / ("BENCH_%s.json" % bench))
                            .read_text())
        (entry,) = report["gates"]
        return entry

    TIMES = {"raw": [1.0, 1.0, 1.0, 1.0, 1.0],
             "engine": [1.0, 1.01, 1.02, 1.03, 1.04]}

    def test_overhead_entry_carries_quartiles_and_rounds(self, report_dir,
                                                         capsys):
        gate_overhead("demo", "overhead", self.TIMES, "raw", "engine", 0.05)
        assert self._entry(report_dir, "demo") == {
            "metric": "overhead", "value": 0.02, "threshold": 0.05,
            "op": "<", "pass": True, "q1": 0.01, "q3": 0.03, "rounds": 5}
        assert capsys.readouterr().out == (
            "\ndemo overhead: engine median 1.0200s, raw median 1.0000s | "
            "0.02 (q1 0.01, q3 0.03) over 5 rounds, gate < 0.05\n")

    def test_overhead_over_its_limit_fails_after_recording(self,
                                                          report_dir):
        with pytest.raises(AssertionError, match="demo: overhead"):
            gate_overhead("demo", "overhead", self.TIMES, "raw", "engine",
                          0.01)
        assert self._entry(report_dir, "demo")["pass"] is False

    def test_speedup_is_the_median_ratio(self, report_dir):
        times = {"ref": [3.0, 3.3, 3.6], "fast": [1.0, 1.0, 1.0]}
        assert record_ratio("demo", "speedup", times, "ref", "fast", 3.0)
        entry = self._entry(report_dir, "demo")
        assert (entry["value"], entry["q1"], entry["q3"], entry["rounds"]) \
            == (3.3, 3.15, 3.45, 3)

    def test_compare_judges_value_alone(self):
        base = _report(overhead=(0.02, 0.05, "<"))
        base["gates"][0].update(q1=0.01, q3=0.03, rounds=31)
        wide = _report(overhead=(0.02, 0.05, "<"))
        wide["gates"][0].update(q1=-0.5, q3=0.9, rounds=3)
        assert compare_reports(wide, base) == []
