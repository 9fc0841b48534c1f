"""Differential oracle: one program, every engine, every flow.

The repo carries four executors that must agree architecturally — the
untimed :class:`~repro.arch.functional.FunctionalCPU` reference (the
software-ILR :class:`~repro.emu.vm.ILREmulator` runs on it), and the cycle
simulator's three tiers (reference loop, block fast path, and the
compiled superblock trace tier on top of it) — each runnable under
three control-flow models (baseline / naive_ilr / vcfr) plus live
VCFR re-randomization epochs.  This module runs one program through
the whole matrix and cross-checks:

* **architectural outcome** — output streams, exit code, and retired
  instruction count are identical everywhere (the randomization modes
  are, by the paper's construction, semantics-preserving);
* **fast-path purity** — ``fastpath=True`` (blocks only, and blocks
  with compiled traces) must be *bit-identical* to the reference loop:
  cycles and every counter, DRC lookups included — and every trace the
  trace tier records must compile;
* **statistics invariants** — misses never exceed accesses, rates stay
  in [0, 1], cycles bound instructions, DRC traffic exists exactly in
  the mode that owns a DRC;
* **serialization identity** — ``from_dict(json(as_dict()))`` is an
  identity for every result type the harness persists.

Every violated check becomes a :class:`Divergence`; a clean program
yields an empty report.  The oracle never raises for a *finding* —
engine crashes are findings too (kind ``crash:*``) — so a fuzzing
session can keep going and shrink later.
"""

from __future__ import annotations

import json
import traceback
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..arch.config import MachineConfig, default_config
from ..arch.cpu import CycleCPU
from ..arch.functional import FunctionalCPU, InstructionLimitExceeded
from ..arch.simstats import SimResult
from ..binary import BinaryImage
from ..emu import ILREmulator
from ..emu.vm import EmulationResult
from ..ilr import RandomizerConfig, make_flow, randomize, rerandomize
from ..ilr.rerandomize import apply_rerandomization

__all__ = [
    "Divergence",
    "OracleConfig",
    "OracleReport",
    "check_attack",
    "check_image",
    "check_source",
    "stats_invariants",
]

MODES = ("baseline", "naive_ilr", "vcfr")


@dataclass
class OracleConfig:
    """Scope and budgets of one oracle pass."""

    #: architectural instruction budget per engine run.  Generated
    #: programs retire a few hundred instructions; hitting this budget
    #: is itself a finding (``kind='budget'``).
    max_instructions: int = 200_000
    #: DRC entries for the cycle runs — small enough that fuzzed
    #: programs actually see conflict misses.
    drc_entries: int = 64
    #: run the software-ILR emulator leg.
    check_emulator: bool = True
    #: run the cycle-simulator matrix (3 modes x 3 tiers).
    check_cycle: bool = True
    #: include the compiled-trace tier in the cycle matrix.
    check_traces: bool = True
    #: hotness threshold for the trace-tier legs.  Generated programs
    #: retire only a few hundred instructions, so the production
    #: default (16) would rarely compile anything; 2 makes loops trace
    #: almost immediately and still exercises the block tier first.
    trace_hot_threshold: int = 2
    #: run live VCFR re-randomization epochs (fast + reference).
    check_rerandomize: bool = True
    #: how many epoch rotations the re-randomization leg performs.
    rerandomize_epochs: int = 2
    #: verify as_dict/from_dict identities on the produced results.
    check_serialization: bool = True


@dataclass
class Divergence:
    """One violated cross-check."""

    #: machine-readable kind: ``output:<engine>``, ``icount:<engine>``,
    #: ``exit:<engine>``, ``fastpath:<mode>``, ``tracepath:<mode>``,
    #: ``tracecompile:<engine>``, ``invariant:<which>``,
    #: ``roundtrip:<type>``, ``crash:<engine>``, ``budget:<engine>``,
    #: ``rerandomize:<what>``.
    kind: str
    detail: str

    def as_dict(self) -> dict:
        return {"kind": self.kind, "detail": self.detail}


@dataclass
class OracleReport:
    """Outcome of one full oracle pass over one program."""

    divergences: List[Divergence] = field(default_factory=list)
    #: engine runs performed.
    runs: int = 0
    #: baseline retired-instruction count (program size proxy).
    icount: int = 0
    #: trace-tier coverage summed over the trace legs: ``builds``,
    #: ``entries``, ``bailouts`` and ``steady`` of their
    #: ``tier_stats()["traces"]``.
    traces: Counter = field(default_factory=Counter)

    @property
    def ok(self) -> bool:
        return not self.divergences

    def add(self, kind: str, detail: str) -> None:
        self.divergences.append(Divergence(kind, detail))


def _snapshot(exit_code, icount, output) -> tuple:
    return (bytes(output.chars), tuple(output.words), exit_code, icount)


def _describe(snap: tuple) -> str:
    chars, words, exit_code, icount = snap
    return "exit=%r icount=%d chars=%r words=%r" % (
        exit_code, icount, chars[:64], list(words[:16])
    )


def stats_invariants(result: SimResult, mode: str) -> List[str]:
    """Structural sanity checks every :class:`SimResult` must satisfy.

    Returns human-readable violation strings (empty when clean).
    """
    bad: List[str] = []

    def check(cond: bool, message: str) -> None:
        if not cond:
            bad.append(message)

    for name in ("il1", "dl1", "l2"):
        stats = getattr(result, name)
        if not stats:
            continue
        check(stats["misses"] <= stats["accesses"],
              "%s: misses %d > accesses %d"
              % (name, stats["misses"], stats["accesses"]))
        check(all(v >= 0 for v in stats.values()),
              "%s: negative counter in %r" % (name, stats))
    check(0 <= result.drc_misses <= result.drc_lookups
          if result.drc_lookups else result.drc_misses == 0,
          "drc: misses %d vs lookups %d"
          % (result.drc_misses, result.drc_lookups))
    if mode != "vcfr":
        check(result.drc_lookups == 0,
              "drc active outside vcfr: %d lookups" % result.drc_lookups)
    check(result.cycles >= result.instructions,
          "cycles %d < instructions %d (single-issue in-order)"
          % (result.cycles, result.instructions))
    check(result.instructions >= 0, "negative instruction count")
    for rate_name in ("ipc", "il1_miss_rate", "dl1_miss_rate",
                      "l2_miss_rate", "drc_miss_rate"):
        rate = getattr(result, rate_name)
        check(0.0 <= rate <= 1.0, "%s=%r out of [0,1]" % (rate_name, rate))
    check(result.cond_mispredicts <= result.cond_branches,
          "branch mispredicts %d > branches %d"
          % (result.cond_mispredicts, result.cond_branches))
    return bad


def _roundtrip_identity(result, type_name: str, report: OracleReport) -> None:
    """``from_dict(json(as_dict()))`` must reproduce ``as_dict`` exactly."""
    cls = type(result)
    try:
        first = result.as_dict()
        revived = cls.from_dict(json.loads(json.dumps(first)))
        second = revived.as_dict()
    except Exception:
        report.add("roundtrip:%s" % type_name,
                   "serialization raised:\n" + traceback.format_exc())
        return
    if first != second:
        diffs = _dict_diff(first, second)
        report.add("roundtrip:%s" % type_name,
                   "as_dict not a fixed point of from_dict: %s" % diffs)


def _dict_diff(a: dict, b: dict, prefix: str = "") -> str:
    parts = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if va == vb:
            continue
        if isinstance(va, dict) and isinstance(vb, dict):
            parts.append(_dict_diff(va, vb, prefix + key + "."))
        else:
            parts.append("%s%s: %r != %r" % (prefix, key, va, vb))
    return "; ".join(p for p in parts if p)[:500]


def check_image(image: BinaryImage, *, seed: int,
                config: Optional[OracleConfig] = None) -> OracleReport:
    """Run ``image`` through the full differential matrix.

    ``seed`` parameterizes the randomizer (and, derived from it, the
    re-randomization epoch seeds) so a finding is reproducible from
    ``(source, seed)`` alone.
    """
    cfg = config or OracleConfig()
    report = OracleReport()

    try:
        program = randomize(image, RandomizerConfig(seed=seed))
    except Exception:
        report.add("crash:randomizer", traceback.format_exc())
        return report

    # ---- leg 1: functional reference, all three modes -------------------
    reference = None
    for mode in MODES:
        snap = _functional_snapshot(program, mode, cfg, report)
        if snap is None:
            continue
        if reference is None:
            reference = snap
        elif snap != reference:
            report.add("output:functional:%s" % mode,
                       "functional %s diverged from baseline:\n  ref:  %s\n"
                       "  got:  %s" % (mode, _describe(reference),
                                       _describe(snap)))
    if reference is None:
        return report  # nothing else is comparable
    report.icount = reference[3]

    # ---- leg 2: software-ILR emulator -----------------------------------
    if cfg.check_emulator:
        _check_emulator(program, reference, cfg, report)

    # ---- leg 3: cycle simulator, modes x loops --------------------------
    if cfg.check_cycle:
        for mode in MODES:
            _check_cycle_mode(program, mode, reference, cfg, report)

    # ---- leg 4: live VCFR re-randomization epochs -----------------------
    if cfg.check_rerandomize:
        _check_rerandomization(program, reference, cfg, report)

    return report


def check_attack(*, seed: int,
                 config: Optional[OracleConfig] = None) -> OracleReport:
    """Differential leg for the *attacker's* view of the machine.

    Crafts the stack-smash exploit against the vulnerable service
    (:mod:`repro.security.attack`), randomized with ``seed``, and
    delivers the identical injected image through every engine — the
    functional reference and the cycle simulator's tiers (reference
    loop / blocks / compiled traces) — under every mode.  The attack
    outcome is architectural, so:

    * per mode, every engine must report the same
      :meth:`~repro.security.attack.AttackOutcome.key` — including the
      faulting target address when the transfer is blocked
      (``attack:<mode>:<tier>`` divergences otherwise);
    * the baseline must be EXPLOITED and both randomized modes BLOCKED
      (``attack:expected:<mode>``) — the paper's Table-1 result;
    * a benign request against VCFR must still complete
      (``attack:benign``) — the defense cannot break the service.
    """
    from ..binary import BinaryImage
    from ..security.attack import (
        SERVICE_OK,
        build_vulnerable_image,
        craft_exploit_input,
        deliver,
        inject_input,
    )
    from ..security.gadgets import scan_gadgets
    from ..security.payload import compile_shell_payload

    cfg = config or OracleConfig()
    report = OracleReport()

    try:
        image = build_vulnerable_image()
        program = randomize(image, RandomizerConfig(seed=seed))
        payload = compile_shell_payload(scan_gadgets(program.original))
        exploit = craft_exploit_input(payload)
    except Exception:
        report.add("crash:attack:setup", traceback.format_exc())
        return report

    engines = [("functional", "functional", None)]
    for tier, fastpath, tracepath in _tiers(cfg):
        engines.append(("cycle:%s" % tier, "cycle",
                        _cycle_config(cfg, fastpath, tracepath)))

    expected_exploited = {"baseline": True, "naive_ilr": False,
                          "vcfr": False}
    for mode in MODES:
        reference = None
        for label, engine, machine in engines:
            injected = BinaryImage.from_bytes(
                program.image_for(mode).to_bytes())
            inject_input(injected, exploit)
            try:
                outcome = deliver(
                    injected, mode,
                    program=None if mode == "baseline" else program,
                    max_instructions=cfg.max_instructions,
                    engine=engine, machine=machine)
            except Exception:
                report.add("crash:attack:%s:%s" % (mode, label),
                           traceback.format_exc())
                continue
            report.runs += 1
            if reference is None:
                reference = outcome
                if outcome.shell_spawned != expected_exploited[mode]:
                    report.add("attack:expected:%s" % mode,
                               "wrong verdict: %s" % outcome.describe())
                if mode != "baseline" and not outcome.blocked:
                    report.add("attack:expected:%s" % mode,
                               "randomized mode not blocked: %s"
                               % outcome.describe())
            elif outcome.key() != reference.key():
                report.add(
                    "attack:%s:%s" % (mode, label),
                    "engine disagrees on the attack outcome:\n"
                    "  ref:  %r\n  got:  %r"
                    % (reference.key(), outcome.key()))

    # Benign request: the defense must not break legitimate service.
    try:
        benign = BinaryImage.from_bytes(program.vcfr_image.to_bytes())
        inject_input(benign, [0x11111111, 0x22222222])
        outcome = deliver(benign, "vcfr", program=program,
                          max_instructions=cfg.max_instructions)
        report.runs += 1
        if not outcome.service_completed or outcome.blocked:
            report.add("attack:benign",
                       "benign request failed under vcfr: %s"
                       % outcome.describe())
    except Exception:
        report.add("crash:attack:benign", traceback.format_exc())
    return report


def check_source(source: str, *, seed: int,
                 config: Optional[OracleConfig] = None) -> OracleReport:
    """Assemble ``source`` then :func:`check_image` it.

    Assembly failures are reported as ``crash:assembler`` (the
    generator must only produce valid programs, and the shrinker uses
    this to reject candidate reductions that broke the program).
    """
    from ..isa import assemble

    try:
        image = assemble(source)
    except Exception:
        report = OracleReport()
        report.add("crash:assembler", traceback.format_exc())
        return report
    return check_image(image, seed=seed, config=config)


# ---------------------------------------------------------------------------
# Legs
# ---------------------------------------------------------------------------


def _functional_snapshot(program, mode, cfg, report):
    label = "functional:%s" % mode
    image = program.image_for(mode)
    try:
        cpu = FunctionalCPU(image, make_flow(mode, program),
                            max_instructions=cfg.max_instructions)
        run = cpu.run()
    except InstructionLimitExceeded:
        report.add("budget:%s" % label,
                   "did not terminate within %d instructions"
                   % cfg.max_instructions)
        return None
    except Exception:
        report.add("crash:%s" % label, traceback.format_exc())
        return None
    report.runs += 1  # run() returns only after EXIT or halt
    return _snapshot(run.exit_code, run.icount, run.output)


def _check_emulator(program, reference, cfg, report):
    try:
        emu = ILREmulator(program,
                          max_instructions=cfg.max_instructions).run()
    except Exception:
        report.add("crash:emulate", traceback.format_exc())
        return
    report.runs += 1
    run = emu.run
    if run.exit_code is None and not run.halted:
        report.add("budget:emulate", "emulator hit the instruction budget")
        return
    snap = _snapshot(run.exit_code, run.icount, run.output)
    if snap != reference:
        report.add("output:emulate",
                   "emulator diverged:\n  ref:  %s\n  got:  %s"
                   % (_describe(reference), _describe(snap)))
    if cfg.check_serialization:
        _roundtrip_identity(emu, "EmulationResult", report)


#: (tier name, fastpath, tracepath) — the cycle simulator's execution
#: tiers, cross-checked pairwise against the reference loop.
_TIERS = (("ref", False, False),
          ("blocks", True, False),
          ("traces", True, True))


def _cycle_config(cfg: OracleConfig, fastpath: bool,
                  tracepath: bool = False) -> MachineConfig:
    machine = default_config()
    machine.fastpath = fastpath
    machine.tracepath = tracepath
    machine.trace_hot_threshold = cfg.trace_hot_threshold
    machine.drc.entries = cfg.drc_entries
    return machine


def _tiers(cfg: OracleConfig):
    return [t for t in _TIERS if cfg.check_traces or not t[2]]


def _check_traces(cpu: CycleCPU, label: str, report: OracleReport) -> None:
    """Sum a trace leg's coverage into ``report.traces``.  A recording
    that fails to compile leaves its anchor on the block tier, so the
    run stays bit-identical and the comparisons below cannot see a
    broken template: every failure is a finding."""
    traces = cpu.tier_stats().get("traces")
    if traces is None:
        return
    report.traces.update({key: traces[key]
                          for key in ("builds", "entries", "bailouts",
                                      "steady")})
    if traces["compile_failures"]:
        report.add("tracecompile:%s" % label,
                   "%d trace compile failure(s)" % traces["compile_failures"])


def _check_cycle_mode(program, mode, reference, cfg, report):
    image = program.image_for(mode)
    results: Dict[str, SimResult] = {}
    for tier, fastpath, tracepath in _tiers(cfg):
        label = "cycle:%s:%s" % (mode, tier)
        try:
            cpu = CycleCPU(image, make_flow(mode, program),
                           _cycle_config(cfg, fastpath, tracepath))
            result = cpu.run(max_instructions=cfg.max_instructions)
        except Exception:
            report.add("crash:%s" % label, traceback.format_exc())
            continue
        report.runs += 1
        _check_traces(cpu, label, report)
        if not result.finished:
            report.add("budget:%s" % label, "budget exhausted")
            continue
        results[tier] = result
        snap = _snapshot(result.exit_code, result.instructions,
                         result.output)
        if snap != reference:
            report.add("output:%s" % label,
                       "cycle engine diverged:\n  ref:  %s\n  got:  %s"
                       % (_describe(reference), _describe(snap)))
        for violation in stats_invariants(result, mode):
            report.add("invariant:%s" % label, violation)
        if cfg.check_serialization:
            _roundtrip_identity(result, "SimResult", report)
    if "ref" in results:
        ref = results["ref"].as_dict()
        for tier, kind in (("blocks", "fastpath"), ("traces", "tracepath")):
            if tier not in results:
                continue
            fast = results[tier].as_dict()
            if fast != ref:
                report.add("%s:%s" % (kind, mode),
                           "%s tier not bit-identical to reference: %s"
                           % (tier, _dict_diff(ref, fast)))


def _check_rerandomization(program, reference, cfg, report):
    """Run VCFR with mid-run epoch rotations across all three tiers.

    Every tier rotates at the *same* retired-instruction points onto
    the *same* epoch programs, so their stats must stay bit-identical;
    the architectural outcome must still match the functional
    reference.  The trace tier is the interesting leg here: rotation
    must flush compiled traces (stale derand constants) and the next
    hot loop must recompile against the new tables.
    """
    icount = reference[3]
    if icount < 4:
        return
    # Rotation points: interior retired-instruction counts; epochs with
    # seeds derived from the randomizer seed (deterministic replay).
    slice_len = max(1, icount // (cfg.rerandomize_epochs + 1))
    epochs: List = []

    def run(tier: str, fastpath: bool, tracepath: bool) \
            -> Optional[SimResult]:
        label = "rerand:%s" % tier
        try:
            cpu = CycleCPU(program.vcfr_image, make_flow("vcfr", program),
                           _cycle_config(cfg, fastpath, tracepath))
            current = program
            finished = False
            for epoch in range(cfg.rerandomize_epochs):
                finished = cpu.run_slice(slice_len)
                if finished:
                    break
                if len(epochs) <= epoch:
                    epochs.append(rerandomize(
                        current,
                        new_seed=(program.config.seed * 7919 + epoch + 1)
                        % (1 << 30) + 1,
                    ))
                current = epochs[epoch]
                apply_rerandomization(cpu, current)
            if not finished:
                cpu.run_slice(cfg.max_instructions)
            result = cpu.result()
        except Exception:
            report.add("crash:%s" % label, traceback.format_exc())
            return None
        report.runs += 1
        _check_traces(cpu, label, report)
        if not result.finished:
            report.add("budget:%s" % label, "budget exhausted")
            return None
        snap = _snapshot(result.exit_code, result.instructions,
                         result.output)
        if snap != reference:
            report.add(
                "rerandomize:output:%s" % label,
                "post-rotation run diverged:\n  ref:  %s\n  got:  %s"
                % (_describe(reference), _describe(snap)))
        return result

    results = {tier: run(tier, fastpath, tracepath)
               for tier, fastpath, tracepath in _tiers(cfg)}
    ref = results.get("ref")
    if ref is None:
        return
    for tier, kind in (("blocks", "fastpath"), ("traces", "tracepath")):
        fast = results.get(tier)
        if fast is not None and fast.as_dict() != ref.as_dict():
            report.add("rerandomize:%s" % kind,
                       "rotation broke %s-tier identity: %s"
                       % (tier, _dict_diff(ref.as_dict(), fast.as_dict())))
