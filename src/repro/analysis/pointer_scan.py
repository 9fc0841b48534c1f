"""Byte-by-byte pointer scan for indirect branch targets.

Implements the heuristic the paper adopts from Hiser et al. (§IV-A):
"perform a byte-by-byte scan of the program's data, and disassembled code
to determine any pointer-sized constant which could be an indirect branch
target.  As shown in their work, this easy to implement approach is often
sufficient."

A constant is a candidate when it decodes as a 32-bit little-endian value
that lands on a known instruction start inside a code section.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Optional

from ..binary import BinaryImage
from .disassembler import Disassembly


@dataclass(frozen=True)
class PointerHit:
    """One pointer-sized constant that looks like a code address."""

    slot: int  # where the constant was found
    target: int  # the code address it holds
    in_code: bool  # found inside a code section (vs data)


def scan_image(
    image: BinaryImage,
    disasm: Optional[Disassembly] = None,
    stride: int = 1,
) -> List[PointerHit]:
    """Scan every section for pointer-sized code-address constants.

    ``stride=1`` is the faithful byte-by-byte scan; ``stride=4`` is the
    cheaper aligned variant (useful in tests).  When ``disasm`` is given,
    only values landing on instruction starts count; otherwise any address
    inside a code section counts (more conservative, more false positives
    — exactly the trade-off the original heuristic makes).
    """
    hits: List[PointerHit] = []
    for sec in image.sections:
        data = bytes(sec.data)
        limit = len(data) - 3
        for off in range(0, max(0, limit), stride):
            value = struct.unpack_from("<I", data, off)[0]
            if not image.is_code_addr(value):
                continue
            if disasm is not None and not disasm.is_instruction_start(value):
                continue
            hits.append(PointerHit(sec.base + off, value, sec.executable))
    return hits

