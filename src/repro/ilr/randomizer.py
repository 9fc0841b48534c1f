"""The ILR randomizer: paper Fig. 6, end to end.

``randomize`` takes a third-party :class:`BinaryImage` and produces a
:class:`RandomizedProgram` bundling

* the **VCFR image** — original instruction layout, direct branch targets
  and code-pointer constants rewritten into the randomized address space
  (this is what a VCFR processor executes, paper Fig. 5c);
* the **naive-ILR image** — instructions physically scattered over the
  randomized region (what a straightforward hardware ILR executes, paper
  Fig. 5b);
* the **RDR table** — the bidirectional address maps, randomized-tag bits,
  failover redirects and fall-through map both executions rely on.

Both images encode the *same* randomized control flow: the architectural
address trace of a program is identical under naive ILR and VCFR, which
is the paper's core observation — only the *memory layout* differs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

from ..analysis import (
    analyze_functions,
    build_cfg,
    disassemble,
    ret_randomization_safety,
)
from ..binary import BinaryImage, FLAG_EXEC, FLAG_READ, Section
from ..binary.loader import RANDOMIZED_BASE
from .layout import (
    DEFAULT_SLOT_SIZE,
    DEFAULT_SPREAD_FACTOR,
    RandomLayout,
    allocate_layout,
)
from .rdr import RDRTable
from .rewriter import (
    RewriteError,
    can_retarget_in_place,
    collect_pointer_slots_from_relocations,
    emit_naive_code,
    imm_field_addr,
    patch_code_pointer,
    retarget_in_place,
)


@dataclass
class RandomizerConfig:
    """Knobs of the randomization software."""

    seed: int = 1
    slot_size: int = DEFAULT_SLOT_SIZE
    spread_factor: int = DEFAULT_SPREAD_FACTOR
    region_base: int = RANDOMIZED_BASE
    #: Use relocation info (our assembler emits it) to find code pointers.
    #: When False, fall back to the pointer-scan heuristic — the stripped-
    #: binary scenario of Hiser et al.
    use_relocations: bool = True
    #: Conservative return-address policy (software-only, §IV-A option 1)
    #: instead of the architectural §IV-C policy that randomizes
    #: aggressively and relies on auto-de-randomizing tagged stack slots.
    conservative_retaddr: bool = False
    #: Confine randomization within pages (§IV-D iTLB mitigation): lower
    #: entropy, but the naive layout touches no more pages than needed.
    page_confined: bool = False


@dataclass
class RandomizeStats:
    """What the randomizer did — reported by DESIGN/EXPERIMENTS tooling."""

    num_instructions: int = 0
    num_direct_rewritten: int = 0
    num_pointer_slots_rewritten: int = 0
    num_ret_randomized: int = 0
    num_ret_unrandomized: int = 0
    num_redirects: int = 0
    region_size: int = 0
    entropy_bits: float = 0.0


@dataclass
class RandomizedProgram:
    """Everything produced by one randomization run."""

    original: BinaryImage
    vcfr_image: BinaryImage
    naive_image: BinaryImage
    rdr: RDRTable
    layout: RandomLayout
    entry_rand: int
    config: RandomizerConfig = field(default_factory=RandomizerConfig)
    stats: RandomizeStats = field(default_factory=RandomizeStats)

    def image_for(self, mode: str) -> BinaryImage:
        """The image ``mode`` executes: ``baseline`` the original,
        ``naive_ilr`` the scattered image, ``vcfr`` the VCFR image."""
        if mode == "baseline":
            return self.original
        if mode == "naive_ilr":
            return self.naive_image
        if mode == "vcfr":
            return self.vcfr_image
        raise ValueError("unknown mode: %r" % (mode,))


def _copy_image(image: BinaryImage) -> BinaryImage:
    return BinaryImage.from_bytes(image.to_bytes())


def randomize(
    image: BinaryImage, config: Optional[RandomizerConfig] = None
) -> RandomizedProgram:
    """Run the full randomization pipeline on ``image``.

    The CFG serves only ``use_relocations=False``, which also reads its
    pointer-scan hits as the slots to rewrite: with relocation records
    (the default) neither the CFG nor the scan is built.
    """
    config = config or RandomizerConfig()
    rng = random.Random(config.seed)
    stats = RandomizeStats()

    # -- 1. disassemble + analyze (front half of Fig. 6) ----------------------
    disasm = disassemble(image)
    functions = analyze_functions(image, disasm)
    safety = ret_randomization_safety(
        functions, disasm, conservative=config.conservative_retaddr
    )
    instructions = disasm.instructions
    stats.num_instructions = len(instructions)

    # -- 2. assign randomized addresses ------------------------------------------
    layout = allocate_layout(
        instructions,
        rng,
        region_base=config.region_base,
        slot_size=config.slot_size,
        spread_factor=config.spread_factor,
        page_confined=config.page_confined,
    )
    stats.region_size = layout.region_size
    stats.entropy_bits = layout.entropy_bits()

    # -- 3. build the RDR table -----------------------------------------------------
    rdr = RDRTable()
    for inst in instructions:
        rdr.add_mapping(inst.addr, layout.placement[inst.addr], tag=True)
    for inst in instructions:
        nxt = inst.next_addr
        if nxt in layout.placement and not (
            inst.mnemonic in ("jmp", "jmp8", "jmpi", "ret", "halt")
        ):
            rdr.fallthrough[layout.placement[inst.addr]] = layout.placement[nxt]

    # Return-address policy per call site.
    for site, safe in safety.items():
        inst = disasm.at(site)
        fall = inst.next_addr
        if fall not in layout.placement:
            continue
        if safe:
            rdr.ret_randomized.add(fall)
            stats.num_ret_randomized += 1
        else:
            rdr.add_redirect(fall)
            stats.num_ret_unrandomized += 1

    # -- 4. find the code-pointer slots to rewrite --------------------------------------
    if config.use_relocations:
        pointer_slots = collect_pointer_slots_from_relocations(image)
    else:
        cfg = build_cfg(image, disasm, run_constprop=True)
        pointer_slots = [
            (hit.slot, hit.target)
            for hit in cfg.pointer_hits
            if not hit.in_code and hit.target in layout.placement
        ]
        # In-code immediates: recover via decoded instructions rather than
        # raw byte scanning, so we never corrupt overlapping bytes.
        from ..isa import opcodes as _op

        for inst in instructions:
            if inst.mnemonic == "movi" and image.is_code_addr(inst.imm):
                pointer_slots.append((inst.addr + 1, inst.imm))
            elif (
                inst.mode == _op.MODE_RI
                and inst.mnemonic == "mov"
                and image.is_code_addr(inst.imm)
            ):
                pointer_slots.append((inst.addr + 2, inst.imm))
        # Unproven indirect targets keep their original addresses legal
        # (failover, paper §IV-A).
        for target in cfg.indirect_targets:
            if target in layout.placement:
                rdr.add_redirect(target)

    # -- 5. emit the VCFR image (original layout, rewritten targets) ----------------------
    vcfr_image = _copy_image(image)
    for inst in instructions:
        if not inst.is_direct_branch:
            continue
        target = inst.target
        new_target = layout.placement.get(target)
        if new_target is None:
            raise RewriteError(
                "direct branch at 0x%x targets non-instruction 0x%x"
                % (inst.addr, target)
            )
        if can_retarget_in_place(inst, new_target):
            retarget_in_place(vcfr_image, inst, new_target)
            stats.num_direct_rewritten += 1
        else:
            # rel8 can't reach the randomized region: leave the original
            # target and let the failover redirect pull execution back in.
            rdr.add_redirect(target)
    for slot, target in pointer_slots:
        new_target = layout.placement.get(target)
        if new_target is None:
            continue
        patch_code_pointer(vcfr_image, slot, new_target)
        stats.num_pointer_slots_rewritten += 1

    # -- 6. emit the naive-ILR image (scattered layout) ------------------------------------
    # In-code pointer slots (movi/RI imm32 holding a code address) must be
    # rewritten in the naive layout too: map imm-field addr -> owner inst.
    imm_owner = {}
    for inst in instructions:
        field = imm_field_addr(inst)
        if field is not None:
            imm_owner[field] = inst
    imm_overrides = {}
    for slot, target in pointer_slots:
        owner = imm_owner.get(slot)
        new_target = layout.placement.get(target)
        if owner is not None and new_target is not None:
            imm_overrides[owner.addr] = new_target

    naive_image = BinaryImage(entry=layout.placement[image.entry])
    region = emit_naive_code(
        instructions, layout.placement, layout.region_base, layout.region_size,
        imm_overrides=imm_overrides,
    )
    naive_image.add_section(
        Section("code_rand", layout.region_base, region, FLAG_READ | FLAG_EXEC)
    )
    for sec in vcfr_image.sections:
        if not sec.executable:
            naive_image.add_section(
                Section(sec.name, sec.base, bytearray(sec.data), sec.flags)
            )
    naive_image.symbols = image.symbols.copy()

    stats.num_redirects = len(rdr.redirect)
    rdr.check_bijection()

    return RandomizedProgram(
        original=image,
        vcfr_image=vcfr_image,
        naive_image=naive_image,
        rdr=rdr,
        layout=layout,
        entry_rand=layout.placement[image.entry],
        config=config,
        stats=stats,
    )
