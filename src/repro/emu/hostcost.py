"""Host-cost model of the software-ILR instruction-level emulator.

Paper Fig. 2 compares software ILR (a binary emulator de-randomizing the
instruction space *per executed instruction*) against native execution and
finds slowdowns of hundreds of times.  Our emulator reproduces the
comparison with a deterministic host-cost model: every interpreter
activity is charged a number of host instructions, calibrated against the
published per-guest-instruction budgets of interpretive emulators (Bochs,
QEMU's TCG in single-step mode, Valgrind's --tool=none, Pin's strict
per-instruction instrumentation all land in the 10²–10³ host
instructions/guest instruction range when no translation caching is
allowed — and per-instruction ILR forbids block caching, because every
instruction ends a "block").

The slowdown reported by the Fig. 2 experiment is::

    host_cycles(emulated run) / cycles(native run on the cycle simulator)

with host IPC conservatively taken as 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class HostCostParams:
    """Host instructions charged per interpreter activity."""

    #: main dispatch loop: fetch RPC, bounds checks, indirect dispatch
    #: (typically mispredicted), loop overhead.
    dispatch: int = 45
    #: software de-randomization: hash the randomized PC, probe the
    #: mapping table, load the translation (per instruction in complete ILR).
    derand_lookup: int = 40
    #: decode of one guest instruction: per-byte fetch + table decode.
    decode_base: int = 30
    decode_per_byte: int = 8
    #: semantic execution of the decoded operation (register file in
    #: memory, flags recomputation in software).
    execute: int = 25
    flags_update: int = 18
    #: guest memory access: address translation + host access + checks.
    memory_op: int = 22
    #: control transfer: apply ILR rewrite rules, map the target, update
    #: the virtual PC, verify the landing site.
    control_transfer: int = 60
    #: syscall marshalling.
    syscall: int = 150


@dataclass
class HostCostCounters:
    """Accumulated host instructions, by activity."""

    by_activity: Dict[str, int] = field(default_factory=dict)

    @property
    def total(self) -> int:
        return sum(self.by_activity.values())

    def rows(self):
        return sorted(self.by_activity.items(), key=lambda kv: -kv[1])
