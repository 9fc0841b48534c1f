"""The differential oracle and the ddmin shrinker."""

import pytest

from repro.arch.simstats import SimResult
from repro.qa import (
    FuzzSession,
    OracleConfig,
    ProgramGenerator,
    check_source,
    oracle_predicate,
    shrink_source,
    stats_invariants,
)

QUICK = OracleConfig(check_rerandomize=False, check_emulator=False)


class TestOracleClean:
    def test_generated_programs_pass(self):
        gen = ProgramGenerator(seed=11)
        for i in range(5):
            report = check_source(gen.generate(i).source, seed=100 + i,
                                  config=OracleConfig())
            assert report.ok, report.divergences

    def test_handwritten_program_passes(self):
        source = """
        .code 0x400000
        main:
            movi ecx, 0
        loop:
            movi eax, 4
            movi ebx, 65
            add ebx, ecx
            int 0x80
            add ecx, 1
            cmp ecx, 5
            jl loop
            movi eax, 1
            movi ebx, 0
            int 0x80
        """
        report = check_source(source, seed=7, config=OracleConfig())
        assert report.ok, report.divergences
        assert report.runs > 0 and report.icount > 0


class TestOracleDetects:
    def test_mode_dependent_output_flagged(self):
        # EMITting a code pointer is mode-dependent by construction: the
        # randomized flows rewrite the `movi ebx, main` immediate to the
        # per-epoch randomized address, so the word streams diverge.
        source = """
        .code 0x400000
        main:
            movi eax, 5
            movi ebx, main
            int 0x80
            movi eax, 1
            movi ebx, 0
            int 0x80
        """
        report = check_source(source, seed=3, config=QUICK)
        assert not report.ok
        assert any(d.kind.startswith("output:") for d in report.divergences)

    def test_assembler_crash_reported(self):
        report = check_source("not even assembly\n", seed=1, config=QUICK)
        assert not report.ok
        assert report.divergences[0].kind == "crash:assembler"

    def test_budget_exhaustion_reported(self):
        source = """
        .code 0x400000
        main:
            jmp main
        """
        cfg = OracleConfig(max_instructions=100, check_rerandomize=False,
                           check_emulator=False)
        report = check_source(source, seed=1, config=cfg)
        assert not report.ok
        assert any(d.kind.startswith("budget:") for d in report.divergences)


class TestStatsInvariants:
    def _clean(self):
        return SimResult(mode="vcfr", cycles=100, instructions=80,
                         il1={"accesses": 80, "misses": 4},
                         drc_lookups=10, drc_misses=2,
                         cond_branches=8, cond_mispredicts=1)

    def test_clean_result_has_no_violations(self):
        assert stats_invariants(self._clean(), "vcfr") == []

    def test_misses_above_accesses_flagged(self):
        bad = self._clean()
        bad.il1 = {"accesses": 4, "misses": 80}
        assert any("misses" in v for v in stats_invariants(bad, "vcfr"))

    def test_superscalar_cycles_flagged(self):
        bad = self._clean()
        bad.cycles = 10  # ipc > 1 is impossible single-issue in-order
        assert stats_invariants(bad, "vcfr")

    def test_drc_activity_outside_vcfr_flagged(self):
        result = self._clean()
        result.mode = "baseline"
        assert any("drc" in v for v in stats_invariants(result, "baseline"))

    def test_mispredicts_above_branches_flagged(self):
        bad = self._clean()
        bad.cond_mispredicts = 99
        assert any("mispredict" in v for v in stats_invariants(bad, "vcfr"))


class TestShrinker:
    SOURCE = "\n".join(
        [".code 0x400000", "main:"]
        + ["    nop"] * 20
        + ["    needle", "    movi eax, 1", "    int 0x80"]
    )

    def test_shrinks_to_failure_core(self):
        def still_fails(source):
            return "needle" in source

        shrunk = shrink_source(self.SOURCE, still_fails)
        lines = shrunk.splitlines()
        assert "    needle" in lines
        assert "    nop" not in lines  # all padding removed

    def test_section_directives_pinned(self):
        shrunk = shrink_source(self.SOURCE, lambda s: "needle" in s)
        assert ".code 0x400000" in shrunk

    def test_result_still_fails(self):
        def still_fails(source):
            return source.count("nop") >= 3

        shrunk = shrink_source(self.SOURCE, still_fails)
        assert still_fails(shrunk)
        assert shrunk.count("nop") == 3

    def test_oracle_predicate_rejects_invalid_candidates(self):
        # A candidate that no longer assembles must read as "does not
        # fail" so ddmin never wanders onto assembler crashes.
        predicate = oracle_predicate(seed=1, config=QUICK)
        assert predicate("garbage that cannot assemble") is False


class TestSession:
    def test_quick_session_is_clean_and_deterministic(self):
        a = FuzzSession(21, 8, oracle_config=QUICK).run()
        b = FuzzSession(21, 8, oracle_config=QUICK).run()
        assert a.ok and b.ok
        assert a.programs == b.programs == 8
        assert a.instructions == b.instructions
        assert a.engine_runs == b.engine_runs
        # Trace-tier coverage is summed over the trace legs.
        assert a.traces == b.traces and a.traces["entries"] > 0

    def test_session_counts_features(self):
        stats = FuzzSession(21, 8, oracle_config=QUICK).run()
        assert stats.features_covered > 10
        assert stats.engine_runs >= 8 * 5  # >= 3 functional + 2 cycle legs


@pytest.mark.fuzz
class TestLongSession:
    """Extended differential session — `pytest -m fuzz` only."""

    def test_three_hundred_programs_clean(self):
        stats = FuzzSession(1, 300, oracle_config=OracleConfig()).run()
        assert stats.ok, [f.kinds for f in stats.findings]
        assert stats.programs == 300
