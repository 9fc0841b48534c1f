"""Process contexts and time-shared execution (paper §IV-D).

"At system level, the main impact is to extend application context to
include the de-randomization/randomization tables."  This module models
that impact: several programs time-share one core under a round-robin
scheduler; a context switch swaps the architectural state *and* the RDR
table context, which costs the DRC its contents (the new process's
translations must refill through the L2) on top of the usual TLB
disturbance.

Each tenant owns a *private* CycleCPU cache hierarchy all the way
down — switches model flush costs, not cache sharing.  The multi-tenant
contention model (:mod:`repro.fleet`) builds its own CPUs on ports of
one :class:`~repro.arch.sharedmem.SharedMemorySystem` instead.

The interesting measurement is DRC cold-start sensitivity: how much of
VCFR's near-baseline IPC survives realistic scheduling quanta: a
``RunSpec`` with a ``quantum`` runs its program alone here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from .config import MachineConfig
from .cpu import CycleCPU
from .simstats import SimResult


@dataclass
class ProcessResult:
    """Per-process outcome of a time-shared run."""

    name: str
    result: SimResult
    quanta: int


@dataclass
class SwitchStats:
    """Context-switch accounting."""

    switches: int = 0
    #: fixed kernel cost charged per switch (save/restore + table swap).
    switch_cycles_each: int = 200
    total_switch_cycles: int = 0


@dataclass
class TimeSharedResult:
    processes: List[ProcessResult] = field(default_factory=list)
    switch_stats: SwitchStats = field(default_factory=SwitchStats)
    total_cycles: int = 0

    def by_name(self, name: str) -> ProcessResult:
        for proc in self.processes:
            if proc.name == name:
                return proc
        raise KeyError(name)


class TimeSharedCPU:
    """Round-robin time sharing of one core between VCFR processes.

    Each process gets its own :class:`CycleCPU` (its own memory image and
    architectural state — address spaces are per-process).  A switch
    models what handing over the core costs the incoming process: the
    DRC is flushed (its entries belong to the outgoing process's RDR
    tables), the TLBs are flushed (new address space), and the
    predictors are left alone (tagless structures alias across
    processes, which is how real cores behave).  Nothing below the
    core is shared — every tenant's caches are private.
    """

    def __init__(
        self,
        programs,  # list of (name, image, flow)
        config: Optional[MachineConfig] = None,
        quantum_instructions: int = 5_000,
        switch_cycles: int = 200,
        on_quantum=None,
        self_switch: bool = True,
    ):
        """``on_quantum(name, cpu, executed, finished)`` is invoked after
        every scheduling quantum, at an instruction boundary — the hook
        the rotation service and adversary race on (rotating the tenant
        or mutating its flow there is legal).  ``self_switch`` keeps the
        historical behaviour of charging a full context switch even when
        a single tenant has the core to itself (the adversarial
        DRC-cold-start study); pass ``False`` to model a lone tenant
        that simply keeps running.  With more than one live tenant every
        quantum still switches regardless.
        """
        self.cpus = [
            (name, CycleCPU(image, flow, config))
            for name, image, flow in programs
        ]
        self.quantum = quantum_instructions
        self.switch_stats = SwitchStats(switch_cycles_each=switch_cycles)
        self.on_quantum = on_quantum
        self.self_switch = self_switch

    def run(self, max_instructions_per_process: int = 200_000) -> TimeSharedResult:
        """Run all processes to completion (or budget), round-robin."""
        live = {name: True for name, _cpu in self.cpus}
        quanta = {name: 0 for name, _cpu in self.cpus}
        budget = {name: max_instructions_per_process for name, _ in self.cpus}

        while any(live.values()):
            for name, cpu in self.cpus:
                if not live[name]:
                    continue
                if self.self_switch or len(self.cpus) > 1:
                    self._on_switch_in(cpu)
                slice_size = min(self.quantum, budget[name])
                before = cpu.state.icount
                finished = cpu.run_slice(slice_size)
                executed = cpu.state.icount - before
                budget[name] -= executed
                quanta[name] += 1
                if self.on_quantum is not None:
                    self.on_quantum(name, cpu, executed, finished)
                if finished or budget[name] <= 0 or executed == 0:
                    live[name] = False

        # Switch cost is already charged to each cpu.cycle by
        # _on_switch_in; the total is the plain sum of tenant cycles
        # (adding switch_stats.total_switch_cycles again would double
        # count — switch_stats stays as a breakdown, not an addend).
        total_cycles = 0
        out = TimeSharedResult(switch_stats=self.switch_stats)
        for name, cpu in self.cpus:
            final = cpu.result()
            out.processes.append(
                ProcessResult(name=name, result=final, quanta=quanta[name])
            )
            total_cycles += cpu.cycle
        out.total_cycles = total_cycles
        return out

    def _on_switch_in(self, cpu: CycleCPU) -> None:
        """Model what a context switch costs the incoming process."""
        # Every tenant owns a private hierarchy, so warm lines only help
        # the same tenant on its next quantum.
        stats = self.switch_stats
        stats.switches += 1
        stats.total_switch_cycles += stats.switch_cycles_each
        cpu.switch_in(stats.switch_cycles_each)
