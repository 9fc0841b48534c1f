"""RunSpec: the single currency describing one simulation run.

Every layer of the harness — :class:`~repro.harness.session.
ExperimentSession`, the streaming scheduler
(:mod:`repro.harness.scheduler`), the on-disk result cache
(:mod:`repro.harness.resultcache`), CLI flags, and event-log
fields — identifies a run by one frozen, hashable, serializable
:class:`RunSpec` instead of ad-hoc ``(name, mode, drc_entries)`` tuples.

A spec captures everything that determines a run's *result*: workload,
mode, DRC size, randomizer seed, workload scale, and the instruction
budgets.  What it deliberately does **not** capture is the machine
model — that is the :class:`~repro.arch.config.MachineConfig`, which is
fingerprinted separately (:func:`config_fingerprint`) so one spec set
can be swept across machine variants without re-encoding the machine in
every spec.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Tuple

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


@dataclass(frozen=True)
class RunSpec:
    """Frozen identity of one simulation or emulation run.

    Instances are hashable (dict keys, set members), comparable, and
    round-trip through :meth:`as_dict`/:meth:`from_dict` for process
    boundaries and the on-disk cache.  Construct via
    :meth:`ExperimentSession.spec()
    <repro.harness.session.ExperimentSession.spec>` to inherit the
    session's seed/scale/budget defaults, or directly when all fields
    are known.

    The scheduler, result cache and session memo read only the surface
    this class shares with the other job kinds
    (:class:`~repro.security.race.RaceSpec`,
    :class:`~repro.fleet.FleetSpec`): :meth:`normalized`, :meth:`label`,
    :meth:`event_fields`, :meth:`as_dict` and :attr:`is_simulation`.
    """

    #: job kind: picks the executor and the run-store row kind.
    kind = "run"

    workload: str
    mode: str = "baseline"
    #: DRC entry count; meaningful only under ``vcfr`` (0 elsewhere).
    drc_entries: int = 0
    seed: int = 42
    scale: float = 1.0
    max_instructions: int = 300_000
    warmup_instructions: int = 0

    def __post_init__(self):
        if self.mode not in ALL_MODES:
            raise ValueError(
                "unknown mode %r (expected one of %s)"
                % (self.mode, ", ".join(ALL_MODES))
            )

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
        """True for cycle-simulator modes, whose ``SimResult`` the cache
        stores as JSON (False for ``emulate``: pickled)."""
        return self.mode in SIM_MODES

    # -- serialization -----------------------------------------------------

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunSpec":
        fields = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in fields})

    # -- presentation ------------------------------------------------------

    def label(self) -> str:
        """Compact human-readable identity, e.g. ``gcc/vcfr@128``."""
        spec = self.normalized()
        if spec.mode == "vcfr":
            return "%s/vcfr@%d" % (spec.workload, spec.drc_entries)
        return "%s/%s" % (spec.workload, spec.mode)

    def event_fields(self) -> Dict[str, object]:
        """Fields stamped onto every event record of this run, so the
        JSONL stream can be grouped back into runs (``repro.tools.stats``
        keys on workload/mode/drc_entries)."""
        spec = self.normalized()
        fields: Dict[str, object] = {"workload": spec.workload}
        if spec.mode == "vcfr":
            fields["drc_entries"] = spec.drc_entries
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
