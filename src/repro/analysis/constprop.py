"""Constant propagation for indirect control-transfer resolution.

Paper §IV-A: "Indirect control transfer using constant code address can be
analyzed with constant propagation ... Constant code address propagates
over the CFG with instructions as producers of the code addresses (e.g.,
fetched from constant data segment) and indirect control transfers as the
consumers."

This is a forward, intra-procedural analysis on a flat constant lattice
(``TOP`` = unknown, concrete int = constant) over registers:

* ``movi r, imm`` / ``mov r, imm``  produce constants,
* ``mov r1, r2`` copies them,
* ``add r, imm`` adjusts them (code-pointer arithmetic),
* loads from *read-only* addresses that hold relocated code pointers
  produce constants (the "fetched from constant data segment" case),
* every other write kills the register.

At each ``jmpi``/``calli`` consuming a constant, the transfer is resolved.
The analysis is deliberately conservative: it merges with meet-to-TOP at
join points and never claims a target it cannot prove.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from ..binary import BinaryImage
from ..isa import opcodes
from ..isa.registers import NUM_REGS
from .basicblocks import BasicBlock

#: Lattice top: register value unknown.
TOP = None


class _Undef:
    """Lattice bottom: no path has reached this point yet."""

    def __repr__(self):  # pragma: no cover - debugging aid
        return "UNDEF"


UNDEF = _Undef()


@dataclass
class ResolvedTransfer:
    """An indirect transfer proven to go to a single constant target."""

    inst_addr: int
    target: int
    via: str  # 'register' | 'memory'


@dataclass
class ConstPropResult:
    resolved: List[ResolvedTransfer] = field(default_factory=list)
    #: Indirect transfer sites the analysis could not resolve.
    unresolved: Set[int] = field(default_factory=set)


def _transfer_block(
    block: BasicBlock,
    state: List[Optional[int]],
    image: BinaryImage,
    result: ConstPropResult,
    record: bool,
) -> List[Optional[int]]:
    """Run the transfer function of one block; optionally record resolutions."""
    state = list(state)
    for inst in block.instructions:
        m = inst.mnemonic

        if m in ("jmpi", "calli"):
            if inst.mode == opcodes.MODE_RR:
                value = state[inst.rm]
                if record:
                    if value is not TOP and image.is_code_addr(value):
                        result.resolved.append(
                            ResolvedTransfer(inst.addr, value, "register")
                        )
                    else:
                        result.unresolved.add(inst.addr)
            else:
                base = state[inst.rm]
                target = None
                if base is not TOP:
                    slot = (base + inst.disp) & 0xFFFFFFFF
                    target = _read_const_slot(image, slot)
                if record:
                    if target is not None and image.is_code_addr(target):
                        result.resolved.append(
                            ResolvedTransfer(inst.addr, target, "memory")
                        )
                    else:
                        result.unresolved.add(inst.addr)
            if m == "calli":
                # A call clobbers caller-saved registers in our convention.
                state = [TOP] * NUM_REGS
            continue

        if m == "call":
            state = [TOP] * NUM_REGS
            continue

        if m == "movi":
            state[inst.reg] = inst.imm & 0xFFFFFFFF
            continue

        if m == "mov":
            if inst.mode == opcodes.MODE_RR:
                state[inst.reg] = state[inst.rm]
            elif inst.mode == opcodes.MODE_RI:
                state[inst.reg] = inst.imm & 0xFFFFFFFF
            elif inst.mode == opcodes.MODE_RM:
                base = state[inst.rm]
                if base is not TOP:
                    slot = (base + inst.disp) & 0xFFFFFFFF
                    state[inst.reg] = _read_const_slot(image, slot)
                else:
                    state[inst.reg] = TOP
            continue

        if m == "add" and inst.mode == opcodes.MODE_RI:
            if state[inst.reg] is not TOP:
                state[inst.reg] = (state[inst.reg] + inst.imm) & 0xFFFFFFFF
            continue

        if m == "lea":
            base = state[inst.rm]
            state[inst.reg] = (
                (base + inst.disp) & 0xFFFFFFFF if base is not TOP else TOP
            )
            continue

        if m == "pop" or m == "leave":
            if m == "pop":
                state[inst.reg] = TOP
            else:
                state[5] = TOP  # ebp
            continue

        # Generic register-writing instructions kill the destination.
        if inst.mode in (opcodes.MODE_RR, opcodes.MODE_RM, opcodes.MODE_RI):
            if m not in ("cmp", "test"):
                state[inst.reg] = TOP
        elif m in ("shl", "shr", "sar"):
            state[inst.rm] = TOP
    return state


def _read_const_slot(image: BinaryImage, slot: int) -> Optional[int]:
    """Read a 4-byte constant from a *read-only* section (else unknown)."""
    sec = image.section_at(slot)
    if sec is None or sec.writable or slot + 4 > sec.end:
        return TOP
    import struct

    return struct.unpack_from("<I", sec.data, slot - sec.base)[0]


def propagate(
    image: BinaryImage,
    blocks: Dict[int, BasicBlock],
    edges: Dict[int, List[int]],
    max_iterations: int = 50,
) -> ConstPropResult:
    """Run constant propagation to a fixed point over the block graph.

    ``edges`` maps block start -> successor block starts (fall-through and
    direct edges; indirect edges are what we are trying to discover, so
    they conservatively clobber nothing — the transfer already kills state
    at calls).
    """
    result = ConstPropResult()
    in_states: Dict[int, list] = {b: [UNDEF] * NUM_REGS for b in blocks}
    # Blocks nothing is known to jump to (function entries, the program
    # entry) start from all-unknown rather than unreached.
    has_pred = {succ for succs in edges.values() for succ in succs}
    for start in blocks:
        if start not in has_pred:
            in_states[start] = [TOP] * NUM_REGS

    changed = True
    iterations = 0
    while changed and iterations < max_iterations:
        changed = False
        iterations += 1
        for start in sorted(blocks):
            if all(v is UNDEF for v in in_states[start]):
                # Unreached so far; propagating from UNDEF would be wrong.
                if start in has_pred:
                    continue
            out_state = _transfer_block(
                blocks[start], _defined(in_states[start]), image, result, record=False
            )
            for succ in edges.get(start, ()):
                if succ not in in_states:
                    continue
                merged = _meet(in_states[succ], out_state)
                if merged != in_states[succ]:
                    in_states[succ] = merged
                    changed = True

    # Final recording pass with the fixed-point states.
    for start in sorted(blocks):
        _transfer_block(blocks[start], _defined(in_states[start]), image, result,
                        record=True)
    return result


def _defined(state: list) -> list:
    """Replace UNDEF entries with TOP before running a transfer function."""
    return [TOP if v is UNDEF else v for v in state]


def _meet(a: list, b: list) -> list:
    out = []
    for x, y in zip(a, b):
        if x is UNDEF:
            out.append(y)
        elif y is UNDEF:
            out.append(x)
        elif x == y:
            out.append(x)
        else:
            out.append(TOP)
    return out
