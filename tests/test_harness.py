"""Harness tests: session caching, report formatting, cheap experiments."""

import pytest

from repro.harness import (
    ExperimentSession,
    format_report,
    format_result,
    format_table,
)
from repro.harness.experiments import ExperimentResult, fig9, fig11, table2
from repro.harness import paper


@pytest.fixture(scope="module")
def runner():
    # Small budget: these tests exercise plumbing, not steady-state stats.
    return ExperimentSession(max_instructions=20_000)


class TestSessionCaching:
    def test_program_cached(self, runner):
        spec = runner.spec("mcf")
        assert runner.program_for(spec) is runner.program_for(spec)

    def test_sim_cached_per_mode_and_drc(self, runner):
        a = runner.run(runner.spec("mcf", "baseline"))
        b = runner.run(runner.spec("mcf", "baseline"))
        assert a is b
        v64 = runner.run(runner.spec("mcf", "vcfr", drc_entries=64))
        v128 = runner.run(runner.spec("mcf", "vcfr", drc_entries=128))
        assert v64 is not v128

    def test_non_vcfr_ignores_drc_size(self, runner):
        a = runner.run(runner.spec("mcf", "baseline", drc_entries=64))
        b = runner.run(runner.spec("mcf", "baseline", drc_entries=512))
        assert a is b

    def test_emulation_cached(self, runner):
        assert runner.emulate("mcf") is runner.emulate("mcf")

    def test_modes_agree_architecturally(self, runner):
        base = runner.run(runner.spec("mcf", "baseline"))
        vcfr = runner.run(runner.spec("mcf", "vcfr"))
        assert base.instructions == vcfr.instructions


class TestReportFormatting:
    def test_format_table_alignment(self):
        text = format_table(("a", "bb"), [(1, 22), (333, 4)])
        lines = text.splitlines()
        assert len(lines) == 4  # header, rule, two rows
        assert lines[0].startswith("a")

    def test_format_result_includes_checks(self):
        result = ExperimentResult("figX", "Title", ("c",), rows=[(1,)])
        result.check("something holds", True)
        result.check("something fails", False)
        text = format_result(result)
        assert "[PASS] something holds" in text
        assert "[FAIL] something fails" in text
        assert not result.passed

    def test_format_report_rollup(self):
        ok = ExperimentResult("a", "A", ("x",))
        ok.check("fine", True)
        bad = ExperimentResult("b", "B", ("x",))
        bad.check("broken", False)
        text = format_report({"a": ok, "b": bad})
        assert "1/2 passed" in text
        assert "failing: b" in text


class TestCheapExperiments:
    """Static experiments run fast enough for the unit suite."""

    def test_table2(self, runner):
        result = table2(runner)
        assert result.passed, result.checks
        assert len(result.rows) == len(paper.SPEC_APPS)

    def test_fig9(self, runner):
        result = fig9(runner)
        assert result.passed
        assert all(row[1] >= row[2] for row in result.rows)

    def test_fig11(self, runner):
        result = fig11(runner)
        assert result.passed
        # Every app removes at least 90% of its gadgets.
        assert all(row[3] >= 90.0 for row in result.rows)


class TestPaperReference:
    def test_table2_reference_shape(self):
        assert paper.TABLE2["gcc"][0] == 149512
        assert paper.TABLE2["xalan"][3] == 15465
        assert set(paper.TABLE2) == set(paper.SPEC_APPS)

    def test_figure_constants(self):
        assert paper.FIG12["avg_speedup"] == 1.63
        assert paper.FIG13[64] == 0.979
        assert paper.FIG14[512] == 0.045
        assert paper.FIG15["avg_power_overhead_pct"] == 0.18
