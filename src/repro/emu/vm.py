"""The software-ILR virtual machine (paper §III baseline, Fig. 2).

The modelled VM (after Hiser et al.'s ILR VM) de-randomizes the virtual PC
(vPC) through the software RDR mapping, fetches, decodes and interprets
the instruction and applies the rewrite rules for the next vPC — for
every guest instruction, since complete ILR makes each instruction its
own translation unit.  :class:`HostCostParams` charges that work per
executed instruction, reproducing the paper's hundreds-of-times slowdown.

The host runs the guest on :class:`~repro.arch.functional.FunctionalCPU`'s
loop under the naive-ILR flow, which decodes each vPC once (the emulator
never rewrites code, so a fresh decode would return the same
instruction).  A vPC's RDR check and static charges are fixed at its
first decode; the loop counts executions per vPC and control transfers,
and the counters settle at each checkpoint and at the end.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..arch.functional import FunctionalCPU, RunResult
from ..ilr.flow import NaiveILRFlow
from ..ilr.randomizer import RandomizedProgram
from ..isa.instruction import Instruction
from ..isa.opcodes import MODE_MR, MODE_RM
from ..isa.syscalls import OutputStream
from ..obs.events import EventLog
from .hostcost import HostCostCounters, HostCostParams


def touches_memory(inst: Instruction) -> bool:
    """Whether ``inst`` touches guest data memory (the model's ``memory_op``):
    stack operations, and memory operands other than ``lea``'s address."""
    if inst.mnemonic in ("push", "pop", "leave", "call", "calli", "ret"):
        return True
    return inst.mode in (MODE_RM, MODE_MR) and inst.mnemonic != "lea"


@dataclass
class EmulationResult:
    """Functional result + host cost of one emulated run."""

    run: RunResult
    host_instructions: int
    counters: HostCostCounters
    #: periodic progress samples: dicts with guest ``instructions``,
    #: cumulative ``host_instructions``, instantaneous ``host_per_guest``
    #: over the window, and ``host_seconds`` wall time.
    checkpoints: List[dict] = field(default_factory=list)

    def slowdown_vs(self, native_cycles: int, host_ipc: float = 1.0) -> float:
        """Fig. 2 metric: emulated host cycles over native cycles."""
        if native_cycles <= 0:
            return 0.0
        return (self.host_instructions / host_ipc) / native_cycles

    # -- observable serialization ------------------------------------------

    def as_dict(self) -> dict:
        """JSON form of the *observable* result.

        Emulation results drag the full :class:`MachineState` behind
        ``run.state``; that graph is neither canonical nor worth
        persisting.  This view carries exactly what the experiments and
        the qa oracle consume — architectural outcome plus host-cost
        accounting — and is the canonical payload for integrity digests
        (:mod:`repro.harness.sweep`) and round-trip checks.
        ``from_dict(as_dict())`` reproduces every one of these fields
        bit-identically (``run.state`` comes back as ``None``).
        """
        run = self.run
        output = {
            "chars": bytes(run.output.chars).decode("latin-1"),
            "words": list(run.output.words),
        }
        return {
            "exit_code": run.exit_code,
            "icount": run.icount,
            "halted": run.halted,
            "output": output,
            "host_instructions": self.host_instructions,
            "counters": dict(self.counters.by_activity),
            "checkpoints": [dict(cp) for cp in self.checkpoints],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "EmulationResult":
        run = RunResult(
            exit_code=data.get("exit_code"),
            icount=data.get("icount", 0),
            output=OutputStream(
                chars=bytearray(data["output"]["chars"], "latin-1"),
                words=list(data["output"]["words"]),
            ),
            state=None,
            halted=data.get("halted", False),
        )
        counters = HostCostCounters(
            by_activity=dict(data.get("counters", {}))
        )
        return cls(
            run=run,
            host_instructions=data.get("host_instructions", 0),
            counters=counters,
            checkpoints=[dict(cp) for cp in data.get("checkpoints", [])],
        )


class _CountingFlow(NaiveILRFlow):
    """The naive-ILR flow, counting the executions per vPC and the control
    transfers the functional loop asks it to resolve."""

    def __init__(self, rdr, entry_rand: int):
        super().__init__(rdr, entry_rand)
        self.executions: Counter = Counter()  # vPC -> executions
        self.transfers = 0

    def arch_pc_of(self, fetch_pc: int) -> int:
        self.executions[fetch_pc] += 1
        return fetch_pc

    def transfer(self, target: int) -> int:
        self.transfers += 1
        return NaiveILRFlow.transfer(self, target)


class ILREmulator(FunctionalCPU):
    """Instruction-level emulator for a randomized program: the functional
    CPU on its naive-ILR image, charging the host-cost model.  :meth:`run`
    stops at the instruction budget instead of raising and returns an
    :class:`EmulationResult`."""

    def __init__(
        self,
        program: RandomizedProgram,
        params: Optional[HostCostParams] = None,
        max_instructions: int = 50_000_000,
        events: Optional[EventLog] = None,
        checkpoint_interval: int = 0,
        event_fields: Optional[dict] = None,
    ):
        super().__init__(program.naive_image,
                         _CountingFlow(program.rdr, program.entry_rand),
                         max_instructions)
        self.params = params or HostCostParams()
        self.events = events if events is not None else EventLog()
        self.checkpoint_interval = max(0, checkpoint_interval)
        self.event_fields = {"mode": "emulate", **(event_fields or {})}
        self.checkpoints: List[dict] = []
        #: vPC -> what its charges depend on: (length, memory op?, syscall?)
        self._static: Dict[int, Tuple[int, bool, bool]] = {}

    def _decode(self, fetch_pc: int) -> Instruction:
        # The software de-randomization charged on every execution: a
        # vPC with no derand entry is a wild jump and raises RDRError.
        self.flow.rdr.to_original(fetch_pc)
        inst = super()._decode(fetch_pc)
        self._static[fetch_pc] = (inst.length, touches_memory(inst),
                                  inst.mnemonic == "int")
        return inst

    def _settle(self, exited: bool) -> HostCostCounters:
        """Charge the instructions executed so far; the one that ``exited``
        (an EXIT ``int``) pays only dispatch, derand, decode and syscall.
        An activity is listed once it has happened, even at zero cost."""
        params = self.params
        executed = self.state.icount
        decoded_bytes = memory_ops = syscalls = 0
        for vpc, count in self.flow.executions.items():
            length, memory_op, syscall = self._static[vpc]
            decoded_bytes += count * length
            memory_ops += count * memory_op
            syscalls += count * syscall
        completed = executed - exited
        transfers = self.flow.transfers
        tallies = (
            ("dispatch", executed, executed * params.dispatch),
            ("derand_lookup", executed, executed * params.derand_lookup),
            ("decode", executed, executed * params.decode_base
             + decoded_bytes * params.decode_per_byte),
            ("execute", completed, completed * params.execute),
            ("syscall", syscalls, syscalls * params.syscall),
            ("memory_op", memory_ops, memory_ops * params.memory_op),
            ("flags", completed, completed * params.flags_update),
            ("control_transfer", transfers,
             transfers * params.control_transfer),
        )
        return HostCostCounters(
            {name: amount for name, times, amount in tallies if times})

    def run(self) -> EmulationResult:
        """Emulate to termination or the instruction budget."""
        state = self.state
        budget = self.max_instructions
        interval = self.checkpoint_interval
        self.events.emit("run_start", max_instructions=budget,
                         checkpoint_interval=interval, **self.event_fields)
        run_t0 = time.perf_counter()
        last_icount = last_host = 0  # at the last checkpoint
        terminated = False
        while not terminated and state.icount < budget:
            stop = min(last_icount + interval, budget) if interval else budget
            terminated = self.run_until(stop)
            if (interval and not terminated
                    and state.icount == last_icount + interval):
                host = self._settle(exited=False).total
                checkpoint = {
                    "instructions": state.icount,
                    "host_instructions": host,
                    "host_per_guest": round((host - last_host) / interval, 3),
                    "host_seconds": round(time.perf_counter() - run_t0, 6),
                }
                self.checkpoints.append(checkpoint)
                self.events.emit("checkpoint", **checkpoint,
                                 **self.event_fields)
                last_icount, last_host = state.icount, host

        counters = self._settle(exited=terminated and not self.halted)
        run = self.result()
        self.events.emit(
            "run_end",
            instructions=run.icount,
            host_instructions=counters.total,
            halted=run.halted,
            host_seconds=round(time.perf_counter() - run_t0, 6),
            **self.event_fields,
        )
        return EmulationResult(
            run=run,
            host_instructions=counters.total,
            counters=counters,
            checkpoints=list(self.checkpoints),
        )
