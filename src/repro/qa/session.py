"""Fuzzing session driver: generate → oracle → (shrink) → report.

Glues the three qa halves together for the ``repro.tools.fuzz`` CLI
and the ``make fuzz-quick`` verification tier: a
:class:`~repro.qa.generator.ProgramGenerator` stream is pushed through
the :mod:`repro.qa.oracle` differential matrix; findings are captured
as :class:`FuzzFinding` records (optionally ddmin-shrunk and written
out as ``.s`` repro files) and mirrored to a :mod:`repro.obs` event
log as ``fuzz_program`` / ``fuzz_finding`` / ``fuzz_end`` records.

Everything is a pure function of ``(seed, budget, configs)`` — a
finding can be replayed from its seed and index alone.
"""

from __future__ import annotations

import os
from collections import Counter
from dataclasses import dataclass, field
from typing import List, Optional

from ..obs.events import EventLog
from .generator import Coverage, GeneratedProgram, GeneratorConfig, \
    ProgramGenerator
from .oracle import OracleConfig, check_source
from .shrink import oracle_predicate, shrink_source

__all__ = ["FuzzFinding", "FuzzStats", "FuzzSession"]


@dataclass
class FuzzFinding:
    """One divergent program, with enough provenance to replay it."""

    index: int
    seed: int
    #: divergence kinds the oracle reported (e.g. ``fastpath:vcfr``).
    kinds: List[str]
    #: first divergence's detail text.
    detail: str
    source: str
    shrunk_source: Optional[str] = None
    #: where the repro ``.s`` file was written (when an out dir is set).
    path: Optional[str] = None

    def as_dict(self) -> dict:
        return {
            "index": self.index,
            "seed": self.seed,
            "kinds": list(self.kinds),
            "detail": self.detail,
            "path": self.path,
            "shrunk_lines": (
                len(self.shrunk_source.splitlines())
                if self.shrunk_source else None
            ),
        }


@dataclass
class FuzzStats:
    """Session summary."""

    programs: int = 0
    engine_runs: int = 0
    instructions: int = 0
    features_covered: int = 0
    #: trace-tier ``builds``/``entries``/``bailouts``/``steady`` over
    #: every program's trace legs (see ``OracleReport.traces``).
    traces: Counter = field(default_factory=Counter)
    findings: List[FuzzFinding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings


class FuzzSession:
    """Drives ``budget`` generated programs through the oracle."""

    def __init__(
        self,
        seed: int,
        budget: int,
        *,
        generator_config: Optional[GeneratorConfig] = None,
        oracle_config: Optional[OracleConfig] = None,
        events: Optional[EventLog] = None,
        out_dir: Optional[str] = None,
        shrink: bool = False,
        max_findings: int = 10,
        progress=None,
    ):
        self.seed = seed
        self.budget = budget
        self.oracle_config = oracle_config or OracleConfig()
        self.coverage = Coverage()
        self.generator = ProgramGenerator(
            seed, generator_config, coverage=self.coverage
        )
        self.events = events if events is not None else EventLog()
        self.out_dir = out_dir
        self.shrink = shrink
        self.max_findings = max_findings
        self.progress = progress  # callable(str) or None

    # -- one program -------------------------------------------------------

    def _oracle_seed(self, index: int) -> int:
        # Decoupled from the generator stream so the same program can be
        # replayed under a different randomizer layout by reseeding.
        return (self.seed * 1_000_003 + index) % (1 << 30) + 1

    def check_one(self, index: int) -> tuple:
        """Generate and check program ``index``; returns (program, report)."""
        program = self.generator.generate(index)
        report = check_source(
            program.source, seed=self._oracle_seed(index),
            config=self.oracle_config,
        )
        return program, report

    # -- the session loop --------------------------------------------------

    def run(self) -> FuzzStats:
        stats = FuzzStats()
        for index in range(self.budget):
            program, report = self.check_one(index)
            stats.programs += 1
            stats.engine_runs += report.runs
            stats.instructions += report.icount
            stats.traces.update(report.traces)
            self.events.emit(
                "fuzz_program",
                index=index,
                icount=report.icount,
                runs=report.runs,
                ok=report.ok,
                features=len(program.features),
            )
            if report.ok:
                continue
            finding = self._capture(program, report)
            stats.findings.append(finding)
            if self.progress:
                self.progress("FINDING #%d program=%d kinds=%s"
                              % (len(stats.findings), index,
                                 ",".join(finding.kinds[:4])))
            if len(stats.findings) >= self.max_findings:
                break
        stats.features_covered = self.coverage.covered()
        self.events.emit(
            "fuzz_end",
            programs=stats.programs,
            engine_runs=stats.engine_runs,
            instructions=stats.instructions,
            features_covered=stats.features_covered,
            findings=len(stats.findings),
        )
        return stats

    def _capture(self, program: GeneratedProgram, report) -> FuzzFinding:
        kinds = [d.kind for d in report.divergences]
        finding = FuzzFinding(
            index=program.index,
            seed=self._oracle_seed(program.index),
            kinds=kinds,
            detail=report.divergences[0].detail,
            source=program.source,
        )
        if self.shrink:
            # Pin the shrink to the original failure kinds so reduction
            # cannot wander onto an unrelated (or self-inflicted) bug.
            prefixes = sorted({k.split(":")[0] for k in kinds})
            finding.shrunk_source = shrink_source(
                program.source,
                oracle_predicate(seed=finding.seed, kinds=prefixes,
                                 config=self.oracle_config),
            )
        if self.out_dir:
            os.makedirs(self.out_dir, exist_ok=True)
            path = os.path.join(
                self.out_dir,
                "finding-%d-%d.s" % (self.seed, program.index),
            )
            body = finding.shrunk_source or finding.source
            header = (
                "; repro.qa finding — seed %d index %d oracle-seed %d\n"
                "; kinds: %s\n" % (self.seed, program.index, finding.seed,
                                   ", ".join(kinds))
            )
            with open(path, "w") as fh:
                fh.write(header + body)
            finding.path = path
        self.events.emit("fuzz_finding", **finding.as_dict())
        return finding
