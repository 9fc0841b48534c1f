"""The RX86 binary image container.

A :class:`BinaryImage` is what the assembler produces, the static analyses
and the randomizer consume, and the simulators load: a set of sections plus
entry point, symbols and relocations.  It plays the role of the ELF binary
in the paper's toolchain (Fig. 6).
"""

from __future__ import annotations

import struct
from typing import List, Optional

from .relocation import Relocation
from .section import FLAG_EXEC, FLAG_READ, FLAG_WRITE, Section
from .symbols import SymbolTable

MAGIC = b"RXBF"
VERSION = 1


class ImageError(ValueError):
    """Raised for malformed images or out-of-range accesses."""


class BinaryImage:
    """A complete RX86 program binary."""

    def __init__(self, entry: int = 0):
        self.entry = entry
        self.sections: List[Section] = []
        self.symbols = SymbolTable()
        self.relocations: List[Relocation] = []

    # -- construction --------------------------------------------------------

    def add_section(self, section: Section) -> Section:
        for existing in self.sections:
            if existing.name == section.name:
                raise ImageError("duplicate section %r" % section.name)
            if section.size and existing.size and (
                section.base < existing.end and existing.base < section.end
            ):
                raise ImageError(
                    "section %r overlaps %r" % (section.name, existing.name)
                )
        self.sections.append(section)
        return section

    # -- lookup ---------------------------------------------------------------

    def section(self, name: str) -> Section:
        for sec in self.sections:
            if sec.name == name:
                return sec
        raise ImageError("no section %r" % name)

    def section_at(self, addr: int) -> Optional[Section]:
        for sec in self.sections:
            if sec.contains(addr):
                return sec
        return None

    def code_sections(self) -> List[Section]:
        return [sec for sec in self.sections if sec.executable]

    def is_code_addr(self, addr: int) -> bool:
        sec = self.section_at(addr)
        return sec is not None and sec.executable

    # -- memory-style access ----------------------------------------------------

    def read(self, addr: int, count: int) -> bytes:
        sec = self.section_at(addr)
        if sec is None:
            raise ImageError("read at unmapped address 0x%x" % addr)
        return sec.read(addr, count)

    def write(self, addr: int, payload: bytes) -> None:
        sec = self.section_at(addr)
        if sec is None:
            raise ImageError("write at unmapped address 0x%x" % addr)
        sec.write(addr, payload)

    def read_u32(self, addr: int) -> int:
        return struct.unpack("<I", self.read(addr, 4))[0]

    def write_u32(self, addr: int, value: int) -> None:
        self.write(addr, struct.pack("<I", value & 0xFFFFFFFF))

    # -- stats -------------------------------------------------------------------

    @property
    def code_size(self) -> int:
        return sum(sec.size for sec in self.code_sections())

    @property
    def total_size(self) -> int:
        return sum(sec.size for sec in self.sections)

    # -- serialization -------------------------------------------------------------

    def to_bytes(self) -> bytes:
        """Serialize to the RXBF container format."""
        out = bytearray()
        out += MAGIC
        out += struct.pack("<HHI", VERSION, 0, self.entry)
        out += struct.pack("<III", len(self.sections), len(self.symbols),
                           len(self.relocations))
        for sec in self.sections:
            name = sec.name.encode()
            out += struct.pack("<HIIB", len(name), sec.base, sec.size, sec.flags)
            out += name
            out += sec.data
        for sym in self.symbols:
            name = sym.name.encode()
            out += struct.pack("<HIB", len(name), sym.addr, int(sym.is_func))
            out += name
        for reloc in self.relocations:
            kind = reloc.kind.encode()
            out += struct.pack("<HII", len(kind), reloc.addr, reloc.target)
            out += kind
        return bytes(out)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "BinaryImage":
        """Deserialize an RXBF container."""
        if blob[:4] != MAGIC:
            raise ImageError("bad magic %r" % blob[:4])
        version, _pad, entry = struct.unpack_from("<HHI", blob, 4)
        if version != VERSION:
            raise ImageError("unsupported RXBF version %d" % version)
        n_sec, n_sym, n_rel = struct.unpack_from("<III", blob, 12)
        image = cls(entry=entry)
        off = 24
        for _ in range(n_sec):
            name_len, base, size, flags = struct.unpack_from("<HIIB", blob, off)
            off += 11
            name = blob[off : off + name_len].decode()
            off += name_len
            data = bytearray(blob[off : off + size])
            off += size
            image.add_section(Section(name, base, data, flags))
        for _ in range(n_sym):
            name_len, addr, is_func = struct.unpack_from("<HIB", blob, off)
            off += 7
            name = blob[off : off + name_len].decode()
            off += name_len
            image.symbols.add(name, addr, bool(is_func))
        for _ in range(n_rel):
            kind_len, addr, target = struct.unpack_from("<HII", blob, off)
            off += 10
            kind = blob[off : off + kind_len].decode()
            off += kind_len
            image.relocations.append(Relocation(addr, kind, target))
        return image

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "BinaryImage(entry=0x%x, sections=%r)" % (self.entry, self.sections)


__all__ = [
    "BinaryImage",
    "ImageError",
    "Section",
    "FLAG_EXEC",
    "FLAG_READ",
    "FLAG_WRITE",
]
