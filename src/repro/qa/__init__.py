"""Differential fuzzing & invariant checking for the simulator stack.

The engine hierarchy this package polices (most- to least-trusted):

1. :class:`~repro.arch.functional.FunctionalCPU` — untimed
   architectural reference; the ground truth for program outcomes.
2. :class:`~repro.emu.vm.ILREmulator` — the host-cost model over engine
   1's loop (naive-ILR flow); its leg checks RDR-mapped fetch, the
   budget stop and the serialization round trip.
3. :class:`~repro.arch.cpu.CycleCPU` reference loop
   (``fastpath=False``) — adds the full timing model.
4. :class:`~repro.arch.cpu.CycleCPU` block fast path
   (``fastpath=True``) — must be a *bit-identical* host-side
   optimization of (3).

:mod:`repro.qa.generator` produces seed-deterministic random RX86
programs; :mod:`repro.qa.oracle` runs each one through every engine ×
every ILR flow (plus live VCFR re-randomization epochs) and
cross-checks outcomes, statistics invariants, and serialization
round-trips; :mod:`repro.qa.shrink` reduces failures to minimal
``.s`` repros; :mod:`repro.qa.session` drives it all for the
``python -m repro.tools.fuzz`` CLI and ``make fuzz-quick``.
"""

from .generator import Coverage, GeneratedProgram, GeneratorConfig, \
    ProgramGenerator
from .oracle import Divergence, OracleConfig, OracleReport, check_image, \
    check_source, stats_invariants
from .session import FuzzFinding, FuzzSession, FuzzStats
from .shrink import oracle_predicate, shrink_source

__all__ = [
    "Coverage",
    "GeneratedProgram",
    "GeneratorConfig",
    "ProgramGenerator",
    "Divergence",
    "OracleConfig",
    "OracleReport",
    "check_image",
    "check_source",
    "stats_invariants",
    "FuzzFinding",
    "FuzzSession",
    "FuzzStats",
    "oracle_predicate",
    "shrink_source",
]
