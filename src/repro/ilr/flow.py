"""Execution-mode control flow: baseline, naive hardware ILR, VCFR.

A *flow* object owns everything address-space-specific about executing a
program:

* where the next instruction's bytes live (``fetch`` address),
* how architectural control-transfer targets are resolved — including the
  randomized-tag security check and the failover redirect mechanism of
  paper §IV-A,
* the hooks the executor (:func:`repro.arch.executor.execute`) calls:
  ``call_retaddr`` (return-address randomization) and ``fixup_load``,
  ``note_store`` and ``note_retaddr_push`` (the §IV-C stack bitmap with
  auto-de-randomizing loads), plus the ``derand_map``/``tagmask`` tag
  state they read.

The cycle simulator additionally needs to know *when* an RDR table lookup
happened (to model the DRC); flows therefore append lookup events to
``self.events`` when ``record_events`` is set.  Event kinds:

``('derand', addr)``
    randomized address translated to original space,
``('rand', addr)``
    original address translated to randomized space,
``('redirect', addr)``
    failover entry consulted for an un-randomized target,
``('bitmap', slot)``
    stack-bitmap probe for a load hitting a marked slot.
"""

from __future__ import annotations

from typing import List, Set, Tuple

from ..isa.instruction import Instruction
from .rdr import RDRTable


class SecurityFault(Exception):
    """Control transfer to a prohibited address (randomized tag set).

    This is the architectural mechanism that stops ROP chains built from
    original-space gadget addresses.
    """

    def __init__(self, target: int):
        super().__init__(
            "control transfer to tagged un-randomized address 0x%08x" % target
        )
        self.target = target


class BaselineFlow:
    """No randomization: architectural space == fetch space."""

    name = "baseline"
    randomized = False
    uses_drc = False

    #: No randomization means no randomized-value tags: immediates are
    #: never rewritten (empty producer map) and no register ever carries
    #: a tag bit.  The executor's tag maintenance is guarded on these,
    #: so baseline execution pays nothing for them.
    derand_map: dict = {}
    tagmask: int = 0

    def __init__(self, entry: int):
        self.entry = entry
        self.record_events = False
        self.events: List[Tuple[str, int]] = []

    # -- flow --------------------------------------------------------------

    def initial_fetch_pc(self) -> int:
        return self.entry

    def sequential(self, inst: Instruction) -> int:
        return inst.addr + inst.length

    def transfer(self, target: int) -> int:
        return target

    def arch_pc_of(self, fetch_pc: int) -> int:
        return fetch_pc

    # -- executor hooks -------------------------------------------------------

    def call_retaddr(self, inst: Instruction) -> int:
        return inst.addr + inst.length

    def fixup_load(self, addr: int, value: int) -> int:
        return value

    def note_store(self, addr: int, value: int, tagged: bool = False) -> None:
        pass

    def note_retaddr_push(self, addr: int, value: int) -> None:
        pass


class _RandomizedFlowBase:
    """Shared machinery of the two randomized execution modes."""

    randomized = True

    def __init__(self, rdr: RDRTable, entry_rand: int):
        self.rdr = rdr
        self.entry_rand = entry_rand
        self.record_events = False
        self.events: List[Tuple[str, int]] = []
        #: §IV-C bitmap: memory slots currently holding *tagged* randomized
        #: code pointers (call-pushed return addresses and program-stored
        #: function pointers alike — the store hardware sees the tag).
        self.marked_slots: Set[int] = set()
        #: Tag *producer* map: a value is minted as a tagged randomized
        #: pointer exactly when an instruction materializes a
        #: rewriter-produced immediate, i.e. a current randomized
        #: address.  The executor consults this at ``movi``/``mov ri``.
        self.derand_map = rdr.derand
        #: §IV-C per-register randomized-tag bits (bit *i* = register
        #: *i*).  Tags are set when a randomized pointer is materialized,
        #: propagated by register moves, and cleared by loads (which
        #: auto-de-randomize) and by any arithmetic — provenance, not
        #: value comparison, decides what the store hardware marks.
        #: Deciding by value (``stored value in derand``) has false
        #: positives: an arithmetic result that collides with a live
        #: randomized address would get spuriously marked and then
        #: wrongly translated by the next load, diverging from baseline
        #: (found by the differential fuzzer).
        self.tagmask = 0

    # -- target resolution (shared security semantics) -------------------------

    #: When True (default), a transfer to an original-space address that has
    #: neither a derand entry nor a failover redirect faults.  This is the
    #: default-deny reading of the paper's randomized-tag mechanism: the only
    #: legal entry points are randomized addresses and explicit failover
    #: entries, which is what removes gadgets at unintended instruction
    #: offsets as well.  Setting it False (tag-bits-only policing) is kept
    #: for the security ablation study.
    strict_entry = True

    def resolve(self, target: int) -> Tuple[int, int]:
        """Resolve an architectural target; returns (arch_pc, original_pc).

        * target in randomized space -> execute there;
        * target in original space with tag set -> :class:`SecurityFault`;
        * target with a failover redirect -> re-enter randomized space;
        * anything else -> :class:`SecurityFault` under the strict policy,
          un-randomized execution otherwise.
        """
        rdr = self.rdr
        original = rdr.derand.get(target)
        if original is not None:
            if self.record_events:
                self.events.append(("derand", target))
            return target, original
        if target in rdr.randomized_tag:
            raise SecurityFault(target)
        redirected = rdr.redirect.get(target)
        if redirected is not None:
            if self.record_events:
                self.events.append(("redirect", target))
            return redirected, target
        if self.strict_entry:
            raise SecurityFault(target)
        return target, target

    # -- executor hooks (shared) ----------------------------------------------

    def _orig_fallthrough(self, inst: Instruction) -> int:
        raise NotImplementedError

    def call_retaddr(self, inst: Instruction) -> int:
        """Paper §IV-A: push the *randomized* return address when safe."""
        fall = self._orig_fallthrough(inst)
        if fall in self.rdr.ret_randomized:
            if self.record_events:
                self.events.append(("rand", fall))
            return self.rdr.rand[fall]
        return fall

    def fixup_load(self, addr: int, value: int) -> int:
        """Paper §IV-C: loads from marked stack slots auto-de-randomize."""
        if addr in self.marked_slots:
            if self.record_events:
                self.events.append(("bitmap", addr))
            original = self.rdr.derand.get(value)
            if original is not None:
                if self.record_events:
                    self.events.append(("derand", value))
                return original
        return value

    def note_store(self, addr: int, value: int, tagged: bool = False) -> None:
        """§IV-C bitmap maintenance at store retirement.

        The hardware sees the stored value's randomized *tag* bit (the
        executor's per-register ``tagmask``), so any store of a live
        randomized code pointer — a return address moved by the program,
        a function pointer written into a table at run time — marks the
        slot, and a store of plain data clears a stale mark.  Marked
        slots are exactly what re-randomization must re-translate when
        the old tables retire
        (:func:`repro.ilr.rerandomize.apply_rerandomization`): before
        this tracked only call-pushed return addresses, a code pointer
        the *program* stored would go stale at the next epoch rotation
        and fault on its next indirect use.
        """
        if tagged:
            self.marked_slots.add(addr)
        else:
            self.marked_slots.discard(addr)

    def note_retaddr_push(self, addr: int, value: int) -> None:
        if value in self.rdr.derand:
            self.marked_slots.add(addr)
        else:
            self.marked_slots.discard(addr)


class NaiveILRFlow(_RandomizedFlowBase):
    """Straightforward hardware ILR (paper §III, Fig. 5b).

    Instructions are *stored* at randomized addresses; the architectural
    space and the fetch space coincide.  Sequential successors come from
    the fall-through map, which the paper's naive model resolves at zero
    cost ("The naive implementation assumes that CPU can resolve address
    mapping with zero cost") — so no lookup events are recorded for it.
    """

    name = "naive_ilr"
    #: The naive model has no DRC; the paper charges its address mapping
    #: zero cycles, so no lookup events are recorded.
    uses_drc = False

    def initial_fetch_pc(self) -> int:
        return self.entry_rand

    def sequential(self, inst: Instruction) -> int:
        return self.rdr.next_randomized(inst.addr)

    def transfer(self, target: int) -> int:
        arch_pc, _original = self.resolve(target)
        return arch_pc

    def arch_pc_of(self, fetch_pc: int) -> int:
        return fetch_pc

    def _orig_fallthrough(self, inst: Instruction) -> int:
        original = self.rdr.to_original(inst.addr)
        return original + inst.length


class VCFRFlow(_RandomizedFlowBase):
    """Virtual control flow randomization (paper §IV, Fig. 5c).

    Instructions are *stored* in the original layout (fetch space = UPC),
    while control flow runs in the randomized space (RPC).  Sequential
    fetch advances UPC for free; only control transfers translate — the
    lookups the DRC exists to serve.
    """

    name = "vcfr"
    #: VCFR translations go through the DRC; the cycle simulator records
    #: and charges every lookup event.
    uses_drc = True

    def initial_fetch_pc(self) -> int:
        arch_pc, original = self.resolve(self.entry_rand)
        del arch_pc
        return original

    def sequential(self, inst: Instruction) -> int:
        return inst.addr + inst.length  # inst.addr is UPC

    def transfer(self, target: int) -> int:
        _arch_pc, original = self.resolve(target)
        return original

    def arch_pc_of(self, fetch_pc: int) -> int:
        return self.rdr.rand.get(fetch_pc, fetch_pc)

    def _orig_fallthrough(self, inst: Instruction) -> int:
        return inst.addr + inst.length


def make_flow(mode: str, program=None, image=None):
    """Factory: ``mode`` in {'baseline', 'naive_ilr', 'vcfr'}.

    ``program`` is a :class:`~repro.ilr.randomizer.RandomizedProgram`
    (required for the randomized modes); ``image`` overrides the baseline
    image (defaults to ``program.original``).
    """
    if mode == "baseline":
        if image is None:
            if program is None:
                raise ValueError("baseline flow needs an image or a program")
            image = program.original
        return BaselineFlow(image.entry)
    if program is None:
        raise ValueError("%s flow needs a RandomizedProgram" % mode)
    if mode == "naive_ilr":
        return NaiveILRFlow(program.rdr, program.entry_rand)
    if mode == "vcfr":
        return VCFRFlow(program.rdr, program.entry_rand)
    raise ValueError("unknown mode %r" % mode)
