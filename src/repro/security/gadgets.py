"""ROP gadget scanning (ROPgadget stand-in, paper §V-B).

A gadget is a short instruction sequence ending in a ``ret`` or an
indirect transfer, decoded starting at *any byte offset* of an executable
section — including unintended offsets inside other instructions, which
variable-length encoding makes plentiful (that is why the scanner works on
raw bytes, not on the disassembly).

``attacker_visible_gadgets`` models the paper's modified ROPgadget, which
"searches for gadgets using un-randomized instruction locations": after
randomization, a gadget is only *usable* if control can still legally
enter at its original address — i.e. its address survived as a failover
redirect entry in the RDR table.  Everything else faults on entry
(randomized tag / strict entry policy), so those gadgets are "removed"
in the Fig. 11 sense.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ..binary import BinaryImage
from ..ilr.rdr import RDRTable
from ..isa.decoder import try_decode
from ..isa.instruction import Instruction

#: Gadget terminators, in ROPgadget's classic categories.
END_RET = "ret"
END_JMP = "jmp_reg"
END_CALL = "call_reg"

#: Maximum gadget length, in instructions, terminator included.
DEFAULT_MAX_INSTRUCTIONS = 5


@dataclass
class Gadget:
    """One gadget: its entry address and decoded instruction sequence."""

    addr: int
    instructions: List[Instruction]
    end_kind: str

    @property
    def length(self) -> int:
        return len(self.instructions)

    def text(self) -> str:
        return " ; ".join(inst.text() for inst in self.instructions)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "Gadget(0x%x: %s)" % (self.addr, self.text())


def _terminator_kind(inst: Instruction) -> str:
    if inst.mnemonic == "ret":
        return END_RET
    if inst.mnemonic == "jmpi":
        return END_JMP
    if inst.mnemonic == "calli":
        return END_CALL
    return ""


def scan_gadgets(
    image: BinaryImage,
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> List[Gadget]:
    """Scan every byte offset of every executable section for gadgets.

    A candidate sequence is accepted when every instruction decodes, no
    instruction before the last transfers control, and the last is a
    ``ret`` / register-indirect transfer.  One gadget is reported per
    starting address (the shortest sequence ending at a terminator).

    Each byte offset is decoded once, so overlapping gadgets share
    their ``Instruction`` objects: treat them as read-only.
    """
    gadgets: List[Gadget] = []
    for sec in image.code_sections():
        data = bytes(sec.data)
        # A decoded instruction ends inside the section, so a candidate
        # reaches at most the slot one past its end: "runs off the end".
        decoded = [try_decode(data, pos, sec.base + pos)
                   for pos in range(len(data))] + [None]
        for off in range(len(data)):
            seq: List[Instruction] = []
            pos = off
            for _ in range(max_instructions):
                inst = decoded[pos]
                if inst is None:
                    break
                kind = _terminator_kind(inst)
                seq.append(inst)
                if kind:
                    gadgets.append(Gadget(sec.base + off, seq, kind))
                    break
                if inst.is_control or inst.is_halt:
                    break  # direct branches / halt end the candidate, unusably
                pos += inst.length
    return gadgets


def attacker_visible_gadgets(
    gadgets: List[Gadget], rdr: RDRTable
) -> List[Gadget]:
    """Gadgets still usable after randomization (Fig. 11's survivor set).

    The attacker addresses gadgets by their original (un-randomized)
    location; entry succeeds only at failover redirect addresses.
    """
    legal_entries = rdr.unrandomized_entries()
    return [g for g in gadgets if g.addr in legal_entries]


@dataclass
class GadgetSurvey:
    """Before/after gadget statistics for one application (Fig. 11 row)."""

    total_before: int
    usable_after: int
    by_end_kind: Dict[str, int] = field(default_factory=dict)

    @property
    def removal_percent(self) -> float:
        if not self.total_before:
            return 0.0
        return 100.0 * (1.0 - self.usable_after / self.total_before)


def survey_gadgets(gadgets: List[Gadget], rdr: RDRTable) -> GadgetSurvey:
    """Survivor analysis of an already scanned gadget list."""
    by_kind: Dict[str, int] = {}
    for g in gadgets:
        by_kind[g.end_kind] = by_kind.get(g.end_kind, 0) + 1
    return GadgetSurvey(
        total_before=len(gadgets),
        usable_after=len(attacker_visible_gadgets(gadgets, rdr)),
        by_end_kind=by_kind,
    )


def survey_image(image: BinaryImage, rdr: RDRTable,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS) -> GadgetSurvey:
    """Scan + survivor analysis in one call."""
    return survey_gadgets(scan_gadgets(image, max_instructions), rdr)
