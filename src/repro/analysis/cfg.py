"""Control flow graph construction with indirect-edge pruning.

Paper §IV-A: direct edges come straight from the disassembly; indirect
control transfers initially connect to *all* relocatable targets, then the
edge set is pruned with constant propagation and the pointer-scan
heuristic.  Fall-through edges are added to every block whose terminator
does not unconditionally transfer control.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set

from ..binary import BinaryImage
from .basicblocks import BasicBlock, build_blocks
from .constprop import ConstPropResult, propagate
from .disassembler import Disassembly, disassemble
from .pointer_scan import PointerHit, scan_image


@dataclass
class CFG:
    """Basic blocks + edge sets over one binary image."""

    image: BinaryImage
    disasm: Disassembly
    blocks: Dict[int, BasicBlock]
    #: block start -> successor block starts (intra-procedural edges).
    succs: Dict[int, List[int]] = field(default_factory=dict)
    #: block start -> predecessor block starts.
    preds: Dict[int, List[int]] = field(default_factory=dict)
    #: direct call targets (function entries) discovered along the way.
    call_targets: Set[int] = field(default_factory=set)
    #: candidate targets of indirect transfers after pruning.
    indirect_targets: Set[int] = field(default_factory=set)
    #: what the pointer scan found, for callers that rewrite the slots.
    pointer_hits: List[PointerHit] = field(default_factory=list)
    #: results of the constant propagation pass.
    constprop: Optional[ConstPropResult] = None

    def successors(self, start: int) -> List[int]:
        return self.succs.get(start, [])

    def predecessors(self, start: int) -> List[int]:
        return self.preds.get(start, [])

    @property
    def num_edges(self) -> int:
        return sum(len(v) for v in self.succs.values())


def _add_edge(cfg: CFG, src: int, dst: int) -> None:
    if dst not in cfg.blocks:
        return
    succs = cfg.succs.setdefault(src, [])
    if dst not in succs:
        succs.append(dst)
        cfg.preds.setdefault(dst, []).append(src)


def build_cfg(
    image: BinaryImage,
    disasm: Optional[Disassembly] = None,
    roots: Optional[Iterable[int]] = None,
    run_constprop: bool = True,
    pointer_scan_stride: int = 1,
) -> CFG:
    """Build the CFG of ``image``.

    1. direct edges + fall-through edges from the disassembly,
    2. indirect transfers conservatively target every relocatable address
       (relocation targets + pointer-scan hits),
    3. constant propagation prunes/resolves what it can.
    """
    if disasm is None:
        disasm = disassemble(image, roots)
    blocks = build_blocks(disasm, roots)
    cfg = CFG(image=image, disasm=disasm, blocks=blocks)

    # -- direct + fall-through edges -----------------------------------------
    for start, block in blocks.items():
        term = block.terminator
        target = term.target
        if target is not None:
            if term.is_call:
                cfg.call_targets.add(target)
                # Intra-procedural view: a call falls through to its
                # return point rather than edge-ing into the callee.
            else:
                _add_edge(cfg, start, target)
        if block.falls_through:
            _add_edge(cfg, start, block.end)

    # -- conservative indirect edge set ----------------------------------------
    reloc_targets = {
        r.target for r in image.relocations if image.is_code_addr(r.target)
    }
    cfg.pointer_hits = scan_image(image, disasm, stride=pointer_scan_stride)
    scan_targets = {hit.target for hit in cfg.pointer_hits}
    conservative = {
        t for t in reloc_targets | scan_targets if t in blocks
    }
    cfg.indirect_targets = set(conservative)

    indirect_sites = [
        block.start
        for block in blocks.values()
        if block.terminator.mnemonic in ("jmpi", "calli")
    ]
    for src in indirect_sites:
        block = blocks[src]
        if block.terminator.mnemonic == "jmpi":
            for dst in conservative:
                _add_edge(cfg, src, dst)

    # -- pruning via constant propagation ------------------------------------------
    if run_constprop:
        cfg.constprop = propagate(image, blocks, cfg.succs)
        resolved_by_site: Dict[int, Set[int]] = {}
        for res in cfg.constprop.resolved:
            resolved_by_site.setdefault(res.inst_addr, set()).add(res.target)
        for src in indirect_sites:
            term = blocks[src].terminator
            if term.mnemonic != "jmpi":
                continue
            resolved = resolved_by_site.get(term.addr)
            if resolved:
                # Replace the conservative fan-out with the proven target(s).
                old = cfg.succs.get(src, [])
                kept = [d for d in old if d not in conservative or d in resolved]
                removed = [d for d in old if d not in kept]
                cfg.succs[src] = kept
                for dst in removed:
                    cfg.preds[dst].remove(src)
    return cfg
