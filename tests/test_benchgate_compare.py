"""The benchgate trend check (fresh BENCH_*.json vs committed baseline)
and the paired estimate the overhead benches gate on."""

import json
import subprocess

import pytest

from repro.tools.benchgate import compare_reports, main, paired_overhead


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


class TestPairedOverhead:
    def test_alternates_order_and_takes_the_most_favourable(self):
        calls = []

        def leg(name, seconds):
            seconds = iter(seconds)

            def run():
                calls.append(name)
                return next(seconds), "result"
            return run

        overhead = paired_overhead(leg("base", [1.0, 1.2, 1.0, 1.1]),
                                   leg("other", [1.1, 1.1, 1.3, 1.1]), 4)
        assert calls == ["base", "other", "other", "base"] * 2
        assert overhead.estimators == pytest.approx(
            {"min": 1.1, "median": 1.1 / 1.05, "paired": 1.05})
        assert overhead.via == "median"
        assert overhead.value == pytest.approx(1.1 / 1.05 - 1)
        assert overhead.describe("raw", "engine", 0.02) == (
            "raw median 1.050s, engine median 1.100s | overhead +4.76% "
            "via median (min +10.00%, median +4.76%, paired +5.00%; "
            "limit 2%)")

    def test_a_leg_that_changes_the_result_fails(self):
        with pytest.raises(AssertionError, match="other leg"):
            paired_overhead(lambda: (1.0, "a"), lambda: (1.0, "b"), 2)
