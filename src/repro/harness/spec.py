"""RunSpec: the single currency describing one simulation run.

Every layer of the harness — :class:`~repro.harness.session.
ExperimentSession`, the streaming scheduler
(:mod:`repro.harness.scheduler`), the on-disk result cache
(:mod:`repro.harness.resultcache`), CLI flags, and event-log
fields — identifies a run by one frozen, hashable, serializable
:class:`RunSpec` instead of ad-hoc ``(name, mode, drc_entries)`` tuples.

A spec captures everything that determines a run's *result*: workload,
mode, DRC size, randomizer seed, workload scale, the instruction
budgets and any overrides.  The machine model is the session's
:class:`~repro.arch.config.MachineConfig`, fingerprinted separately
(:func:`config_fingerprint`); a spec's overrides apply on top of it,
as its ``drc_entries`` does.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Tuple

from ..arch.config import HOST_TUNING_FIELDS, MachineConfig
from ..ilr import RandomizerConfig
from ..obs.events import run_label

__all__ = [
    "RunSpec",
    "SIM_MODES",
    "ALL_MODES",
    "DEFAULT_DRC_ENTRIES",
    "config_fingerprint",
]

#: Modes executed by the cycle simulator.
SIM_MODES: Tuple[str, ...] = ("baseline", "naive_ilr", "vcfr")

#: All valid spec modes (``emulate`` runs the software-ILR VM instead).
ALL_MODES: Tuple[str, ...] = SIM_MODES + ("emulate",)

#: The paper's default DRC size; used when a VCFR spec leaves it unset.
DEFAULT_DRC_ENTRIES = 128

#: Fields a spec sets only to vary a run against its plain spec; left
#: empty, they stay out of :meth:`RunSpec.as_dict`, so a plain spec's
#: cache key and store key do not depend on them.
_OVERRIDE_FIELDS: Tuple[str, ...] = ("machine", "randomizer", "quantum")

#: Randomizer fields a spec may override (``seed`` is a spec field).
_RANDOMIZER_FIELDS = {f.name for f in dataclasses.fields(RandomizerConfig)
                      if f.name != "seed"}


@dataclass(frozen=True)
class RunSpec:
    """Frozen identity of one simulation or emulation run.

    Instances are hashable (dict keys, set members), comparable, and
    round-trip through :meth:`as_dict`/:meth:`from_dict` for process
    boundaries and the on-disk cache.  Its overrides apply on top of
    the session's machine and randomizer, as ``drc_entries`` does.
    Construct via
    :meth:`ExperimentSession.spec()
    <repro.harness.session.ExperimentSession.spec>` to inherit the
    session's seed/scale/budget defaults, or directly when all fields
    are known.

    The scheduler, result cache and session memo read only the surface
    this class shares with the other job kinds
    (:class:`~repro.security.race.RaceSpec`,
    :class:`~repro.fleet.FleetSpec`): :attr:`kind`, :meth:`normalized`,
    :meth:`label`, :meth:`event_fields` and :meth:`as_dict`.
    """

    #: job kind: picks the executor, the cached result's type and the
    #: run-store row kind.
    kind = "run"

    workload: str
    mode: str = "baseline"
    #: DRC entry count; meaningful only under ``vcfr`` (0 elsewhere).
    drc_entries: int = 0
    seed: int = 42
    scale: float = 1.0
    max_instructions: int = 300_000
    warmup_instructions: int = 0
    #: ``(dotted MachineConfig field, value)`` pairs applied on top of
    #: the session's config, e.g. ``("drc.assoc", 4)``.
    machine: Tuple[Tuple[str, object], ...] = ()
    #: ``(RandomizerConfig field, value)`` pairs, e.g.
    #: ``("conservative_retaddr", True)``.
    randomizer: Tuple[Tuple[str, object], ...] = ()
    #: instructions per self-switch quantum (0 = a plain run).
    quantum: int = 0

    def __post_init__(self):
        if self.mode not in ALL_MODES:
            raise ValueError(
                "unknown mode %r (expected one of %s)"
                % (self.mode, ", ".join(ALL_MODES))
            )
        if self.machine == self.randomizer == () and not self.quantum:
            return
        # Pairs sorted by name, as a dict keeps them (JSON hands them
        # back as lists).  ``drc.entries`` is ``drc_entries``, ``seed``
        # is ``seed``, and a host-tuning field changes no result (the
        # cache key would split for nothing); TimeSharedCPU runs no
        # warmup and no emulation.
        for name in ("machine", "randomizer"):
            pairs = tuple(sorted(dict(getattr(self, name)).items()))
            object.__setattr__(self, name, pairs)
        MachineConfig().with_overrides(self.machine)  # raises on unknowns
        bad = (dict(self.machine).keys() & {"drc.entries", *HOST_TUNING_FIELDS}
               | dict(self.randomizer).keys() - _RANDOMIZER_FIELDS)
        if bad:
            raise ValueError("no override field %s" % ", ".join(sorted(bad)))
        if self.quantum < 0 or self.quantum and (
                self.warmup_instructions or self.mode == "emulate"):
            raise ValueError("quantum %d: must be >= 0, in a cycle mode, "
                             "without warmup" % self.quantum)

    # -- canonical form ----------------------------------------------------

    def normalized(self) -> "RunSpec":
        """The canonical equivalent spec.

        Non-VCFR modes ignore the DRC, so their ``drc_entries`` is
        forced to 0 (making ``baseline@64`` and ``baseline@512`` the
        *same* run, as they are in the simulator); a VCFR spec with no
        DRC size gets the paper default.  Cache keys and runner memo
        keys are always computed on the normalized spec.
        """
        entries = self.drc_entries
        if self.mode != "vcfr":
            entries = 0
        elif not entries:
            entries = DEFAULT_DRC_ENTRIES
        if entries == self.drc_entries:
            return self
        return dataclasses.replace(self, drc_entries=entries)

    @property
    def is_simulation(self) -> bool:
        """True for cycle-simulator modes (False for ``emulate``)."""
        return self.mode in SIM_MODES

    # -- serialization -----------------------------------------------------

    def as_dict(self) -> dict:
        # Shallow is enough: every field value is immutable.
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self)
                if getattr(self, f.name) or f.name not in _OVERRIDE_FIELDS}

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})

    # -- presentation ------------------------------------------------------

    def label(self) -> str:
        """Compact human-readable identity, e.g. ``gcc/vcfr@128`` or
        ``gcc/vcfr@128+drc.assoc=4`` (:func:`~repro.obs.events.run_label`)."""
        return run_label(self.normalized().as_dict())

    def event_fields(self) -> Dict[str, object]:
        """Fields stamped onto every event record of this run, so the
        JSONL stream can be grouped back into runs: with the ``mode``
        the CPU adds, what :func:`~repro.obs.events.run_label` reads."""
        spec = self.normalized()
        fields: Dict[str, object] = {"workload": spec.workload}
        if spec.mode == "vcfr":
            fields["drc_entries"] = spec.drc_entries
        fields.update((name, getattr(spec, name)) for name in _OVERRIDE_FIELDS
                      if getattr(spec, name))
        return fields


def config_fingerprint(config) -> str:
    """Short stable digest of a :class:`~repro.arch.config.MachineConfig`.

    Two configs with identical parameters fingerprint identically
    regardless of object identity; any parameter change (cache geometry,
    penalties, DRC associativity, ...) changes the digest, so cached
    results can never be served across machine models.

    Host-side tuning knobs (``fastpath`` and the block-cache sizing —
    :data:`~repro.arch.config.HOST_TUNING_FIELDS`) are *excluded*: they
    are contractually cycle- and stat-invariant, so a result computed by
    the reference loop is equally valid for the fast path and vice
    versa.  The timing-model version
    (:data:`~repro.arch.config.TIMING_MODEL_VERSION`) is *included*, so
    results produced under older timing semantics can never be served
    against newer ones even when every config field matches.
    """
    from ..arch.config import HOST_TUNING_FIELDS, TIMING_MODEL_VERSION

    fields = dataclasses.asdict(config)
    for name in HOST_TUNING_FIELDS:
        fields.pop(name, None)
    fields["timing_model_version"] = TIMING_MODEL_VERSION
    payload = json.dumps(fields, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]
