"""Un-timed functional execution of RX86 programs.

The functional CPU is the semantic reference: it runs a program to
completion under any flow (baseline / naive ILR / VCFR) with no timing
model.  The cycle simulator (:mod:`repro.arch.cpu`) must produce exactly
the same architectural results — only cycle counts differ.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..binary import BinaryImage, load_image
from ..isa.decoder import decode
from ..isa.instruction import Instruction
from ..isa.syscalls import OutputStream
from .executor import CTRL_HALT, CTRL_NONE, execute
from .memory import SparseMemory
from .state import ExitProgram, MachineState


class InstructionLimitExceeded(Exception):
    """The program did not terminate within the instruction budget."""


@dataclass
class RunResult:
    """Outcome of one functional run."""

    exit_code: Optional[int]
    icount: int
    output: OutputStream
    state: MachineState
    halted: bool  # True when terminated via ``halt`` instead of EXIT

    def snapshot(self) -> tuple:
        """The cross-mode comparable view of this run."""
        return (self.output.snapshot(), self.exit_code, self.icount)


class FunctionalCPU:
    """Executes one loaded program under a given flow."""

    def __init__(
        self,
        image: BinaryImage,
        flow=None,
        max_instructions: int = 50_000_000,
    ):
        from ..ilr.flow import BaselineFlow  # local import; no cycle at module load

        self.image = image
        self.mem = SparseMemory()
        info = load_image(image, self.mem)
        self.state = MachineState(self.mem, stack_top=info.stack_top)
        self.flow = flow if flow is not None else BaselineFlow(image.entry)
        self.max_instructions = max_instructions
        self.halted = False
        self._decode_cache: Dict[int, Instruction] = {}
        self._fetch_pc = self.flow.initial_fetch_pc()

    def _decode(self, fetch_pc: int) -> Instruction:
        """Decode-cache miss: text does not change during a run, so each
        fetch address is decoded once."""
        raw = self.mem.read_block(fetch_pc, 8)
        inst = self._decode_cache[fetch_pc] = decode(raw, 0, fetch_pc)
        return inst

    def run(self) -> RunResult:
        """Run to EXIT/halt; raises on faults or instruction-budget overrun."""
        if not self.run_until(self.max_instructions):
            raise InstructionLimitExceeded(
                "no termination after %d instructions" % self.max_instructions
            )
        return self.result()

    def run_until(self, stop: int) -> bool:
        """Execute until the program terminates (True) or ``state.icount``
        reaches ``stop`` (False); the next call resumes where it stopped."""
        state = self.state
        flow = self.flow
        cached = self._decode_cache.get
        fetch_pc = self._fetch_pc
        while state.icount < stop:
            inst = cached(fetch_pc)
            if inst is None:
                inst = self._decode(fetch_pc)
            state.pc = flow.arch_pc_of(fetch_pc)
            try:
                kind, target = execute(inst, state, flow)
            except ExitProgram:
                return True
            if kind == CTRL_NONE:
                fetch_pc = flow.sequential(inst)
            elif kind == CTRL_HALT:
                self.halted = True
                return True
            else:
                fetch_pc = flow.transfer(target)
        self._fetch_pc = fetch_pc
        return False

    def result(self) -> RunResult:
        """The run's outcome so far."""
        state = self.state
        return RunResult(
            exit_code=state.exit_code,
            icount=state.icount,
            output=state.out,
            state=state,
            halted=self.halted,
        )


def run_image(image: BinaryImage, flow=None, max_instructions: int = 50_000_000):
    """One-shot helper: load, run, return the :class:`RunResult`."""
    return FunctionalCPU(image, flow, max_instructions).run()
