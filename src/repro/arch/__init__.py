"""Micro-architecture models: functional execution and the cycle simulator.

This package hosts the machine substrate of the reproduction:

* :mod:`memory`, :mod:`state`, :mod:`executor`, :mod:`functional` — the
  functional core shared by every execution path;
* :mod:`cache`, :mod:`prefetch`, :mod:`tlb`, :mod:`dram` — the memory
  hierarchy timing models;
* :mod:`branch` — gshare predictor, BTB, return address stack;
* :mod:`drc` — the De-Randomization Cache;
* :mod:`cpu` — the single-issue in-order cycle simulator;
* :mod:`power` — the McPAT-style per-access energy model.
"""

from .context import TimeSharedCPU, TimeSharedResult
from .functional import (
    FunctionalCPU,
    InstructionLimitExceeded,
    RunResult,
    run_image,
)
from .memory import MemoryFault, SparseMemory
from .sharedmem import MemoryPort, SharedMemorySystem
from .trace import TraceEntry, Tracer, attach_tracer
from .state import ExitProgram, MachineState

__all__ = [
    "FunctionalCPU",
    "run_image",
    "RunResult",
    "InstructionLimitExceeded",
    "SparseMemory",
    "MemoryFault",
    "MachineState",
    "ExitProgram",
    "Tracer",
    "TraceEntry",
    "attach_tracer",
    "TimeSharedCPU",
    "TimeSharedResult",
    "SharedMemorySystem",
    "MemoryPort",
]
