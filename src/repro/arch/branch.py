"""Branch prediction: 2-level gshare, BTB, and return address stack.

Paper §VI-C: "The detailed processor model includes, branch predictor
(2-level gshare), BTB (branch target buffer), RAS ...".  §IV-D: under
VCFR, "both predictions can be based on the de-randomized program
counter", so prediction accuracy is unaffected by randomization — the
cycle simulator feeds these structures UPC-space addresses in VCFR mode
and randomized addresses in naive mode (where no original space exists at
fetch time).
"""

from __future__ import annotations

from .config import BranchConfig
from .executor import CTRL_HALT, CTRL_JUMP, CTRL_NONE


class BranchStats:
    __slots__ = (
        "cond_branches", "cond_mispredicts",
        "btb_lookups", "btb_misses",
        "ras_pushes", "ras_pops", "ras_mispredicts",
        "indirect_branches", "indirect_mispredicts",
    )

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        """Zero every counter in place (object identity is preserved so
        compiled trace code may close over this instance)."""
        for name in self.__slots__:
            setattr(self, name, 0)

    @property
    def cond_accuracy(self) -> float:
        if not self.cond_branches:
            return 1.0
        return 1.0 - self.cond_mispredicts / self.cond_branches


class GShare:
    """Global-history XOR PC indexed table of 2-bit saturating counters."""

    __slots__ = ("history_bits", "mask", "table", "history")

    def __init__(self, history_bits: int):
        self.history_bits = history_bits
        self.mask = (1 << history_bits) - 1
        self.table = [2] * (1 << history_bits)  # weakly taken
        self.history = 0

    def predict(self, pc: int) -> bool:
        idx = ((pc >> 2) ^ self.history) & self.mask
        return self.table[idx] >= 2

    def update(self, pc: int, taken: bool) -> None:
        idx = ((pc >> 2) ^ self.history) & self.mask
        counter = self.table[idx]
        if taken:
            if counter < 3:
                self.table[idx] = counter + 1
        else:
            if counter > 0:
                self.table[idx] = counter - 1
        self.history = ((self.history << 1) | int(taken)) & self.mask


class BTB:
    """Set-associative branch target buffer (LRU)."""

    __slots__ = ("num_sets", "assoc", "_sets", "_set_mask")

    def __init__(self, entries: int, assoc: int):
        self.num_sets = max(1, entries // assoc)
        self.assoc = assoc
        # Power-of-two index mask (-1 = fall back to ``%``).
        if self.num_sets & (self.num_sets - 1) == 0:
            self._set_mask = self.num_sets - 1
        else:
            self._set_mask = -1
        self._sets = [[] for _ in range(self.num_sets)]  # [tag, target] LRU order

    def update(self, pc: int, target: int):
        """Install ``pc -> target`` at MRU and return the target the
        entry held before (None on a miss): a taken transfer's lookup
        and update in one set scan."""
        word = pc >> 2
        mask = self._set_mask
        ways = self._sets[word & mask if mask >= 0 else word % self.num_sets]
        for idx, entry in enumerate(ways):
            if entry[0] == pc:
                old = entry[1]
                entry[1] = target
                ways.append(ways.pop(idx))
                return old
        if len(ways) >= self.assoc:
            ways.pop(0)
        ways.append([pc, target])
        return None


class RAS:
    """Fixed-depth return address stack (overwrites on overflow)."""

    __slots__ = ("entries", "_stack")

    def __init__(self, entries: int):
        self.entries = entries
        self._stack = []

    def push(self, addr: int) -> None:
        if len(self._stack) >= self.entries:
            self._stack.pop(0)
        self._stack.append(addr)

    def pop(self):
        if self._stack:
            return self._stack.pop()
        return None


class BranchUnit:
    """Front-end prediction state + penalty computation.

    The prediction methods return stall cycles to charge and update the
    predictors, given the architectural outcome of the instruction;
    :meth:`resolve` picks the method for one retired instruction.
    """

    __slots__ = ("config", "gshare", "btb", "ras", "stats")

    def __init__(self, config: BranchConfig):
        self.config = config
        self.gshare = GShare(config.gshare_bits)
        self.btb = BTB(config.btb_entries, config.btb_assoc)
        self.ras = RAS(config.ras_entries)
        self.stats = BranchStats()

    # Every prediction method returns ``(penalty_cycles, predicted_ok)``.
    # ``predicted_ok`` tells the caller whether the front end had the
    # correct next fetch address in hand — when it did, a VCFR DRC lookup
    # for the same transfer is off the critical path (paper §IV-D:
    # prediction runs in the de-randomized space, so fetch never waits
    # for a translation it already has a predicted UPC for).

    # -- conditional branches -------------------------------------------------

    def conditional(self, pc: int, taken: bool, target: int):
        stats = self.stats
        stats.cond_branches += 1
        predicted_taken = self.gshare.predict(pc)
        self.gshare.update(pc, taken)

        if predicted_taken != taken:
            stats.cond_mispredicts += 1
            if taken:
                self.btb.update(pc, target)
            return self.config.mispredict_penalty, False
        if not taken:
            return 0, True
        return self._taken_target_penalty(pc, target)

    def conditional_src(self, pc: int, taken: bool, target: str):
        """Source lines that leave ``pen, ok`` as :meth:`conditional`
        returns them for ``(pc, taken, target)``; ``target`` is a source
        expression and the names are those of :meth:`inline_scope`.

        The correctly predicted case runs inline: the gshare counter
        and history update and, for a taken branch, a BTB hit in the
        MRU way of ``pc``'s set holding ``target``.  Anything else calls
        the method, which does its own accounting on the untouched
        state.  A taken branch keeps the plain call when the BTB set
        index does not fold to a mask (non-power-of-two set count).
        """
        call = "pen, ok = bcond(%d, %s, %s)" % (
            pc, taken, target if taken else 0)
        mask = self.gshare.mask
        if taken:
            set_mask = self.btb._set_mask
            if set_mask < 0:
                return [call]
            # A predicted-taken counter (2 or 3) saturates at 3.
            hit = [
                "w_ = bts[%d]" % ((pc >> 2) & set_mask),
                "if gt[g_] > 1 and w_ and w_[-1][0] == %d "
                "and w_[-1][1] == %s:" % (pc, target),
                "    gt[g_] = 3",
                "    gs.history = ((h_ << 1) | 1) & %d" % mask,
                "    bst.cond_branches += 1",
                "    bst.btb_lookups += 1",
                "    pen, ok = %d, True" % self.config.taken_bubble,
            ]
        else:
            # A predicted-not-taken counter (0 or 1) saturates at 0.
            hit = [
                "if gt[g_] < 2:",
                "    gt[g_] = 0",
                "    gs.history = (h_ << 1) & %d" % mask,
                "    bst.cond_branches += 1",
                "    pen, ok = 0, True",
            ]
        # ``history`` never exceeds the mask, so the index folds to
        # ``((pc >> 2) & mask) ^ history``.
        return (["h_ = gs.history", "g_ = %d ^ h_" % ((pc >> 2) & mask)]
                + hit + ["else:", "    " + call])

    def inline_scope(self) -> dict:
        """Generated-scope bindings for the trace tier's predictor
        source (:meth:`conditional_src`, :meth:`resolve_src`).  Each
        keeps its identity for the unit's lifetime: the predictors
        update in place and ``BranchStats.reset`` zeroes in place."""
        return {
            "bcond": self.conditional, "bdir": self.direct,
            "bind": self.indirect, "bret": self.ret,
            "gs": self.gshare, "gt": self.gshare.table,
            "bts": self.btb._sets, "bst": self.stats,
        }

    # -- one instruction's outcome -------------------------------------------------

    def resolve(self, inst, kind: int, next_fetch_pc: int, arch_target: int,
                state):
        """Front-end penalty for ``inst``'s control-flow outcome ``kind``
        (an ``executor.CTRL_*`` code), dispatched on its mnemonic.

        Predictions are made on the *fetch-space* PC (under VCFR that is
        the de-randomized UPC, per §IV-D), so predictor accuracy does not
        depend on the randomization; a call pushes
        ``state.last_retaddr``.  Returns ``(penalty, predicted_ok)``.
        """
        pc = inst.addr
        if inst.cc is not None:
            taken = kind == CTRL_JUMP
            return self.conditional(pc, taken, next_fetch_pc if taken else 0)
        if kind == CTRL_NONE or kind == CTRL_HALT:
            return 0, True
        m = inst.mnemonic
        if m == "call":
            return self.direct(pc, next_fetch_pc, True, state.last_retaddr)
        if m == "jmp" or m == "jmp8":
            return self.direct(pc, next_fetch_pc, False)
        if m == "calli":
            return self.indirect(pc, next_fetch_pc, True, state.last_retaddr)
        if m == "jmpi":
            return self.indirect(pc, next_fetch_pc, False)
        if m == "ret":
            return self.ret(pc, arch_target)
        return 0, True

    def resolve_src(self, inst, target: str, arch_target: str):
        """Source lines that leave ``pen, ok`` as :meth:`resolve` returns
        them for the taken unconditional transfer ``inst``, with the
        mnemonic dispatch done now; ``target`` and ``arch_target`` are
        source expressions for the next fetch PC and the architectural
        target, and the names are those of :meth:`inline_scope` plus
        ``st`` for the machine state.  A conditional branch renders
        each direction through :meth:`conditional_src` instead."""
        pc = inst.addr
        m = inst.mnemonic
        if m == "call":
            line = "bdir(%d, %s, True, st.last_retaddr)" % (pc, target)
        elif m == "jmp" or m == "jmp8":
            line = "bdir(%d, %s, False)" % (pc, target)
        elif m == "calli":
            line = "bind(%d, %s, True, st.last_retaddr)" % (pc, target)
        elif m == "jmpi":
            line = "bind(%d, %s, False)" % (pc, target)
        elif m == "ret":
            line = "bret(%d, %s)" % (pc, arch_target)
        else:
            raise ValueError("no unconditional transfer: %s" % m)
        return ["pen, ok = " + line]

    # -- unconditional direct (jmp, call) ------------------------------------------

    def direct(self, pc: int, target: int, is_call: bool, retaddr: int = 0):
        penalty, target_ok = self._taken_target_penalty(pc, target)
        if is_call:
            self.ras.push(retaddr)
            self.stats.ras_pushes += 1
        return penalty, target_ok

    # -- indirect (jmpi, calli) --------------------------------------------------------

    def indirect(self, pc: int, target: int, is_call: bool, retaddr: int = 0):
        stats = self.stats
        stats.indirect_branches += 1
        stats.btb_lookups += 1
        predicted = self.btb.update(pc, target)
        if is_call:
            self.ras.push(retaddr)
            stats.ras_pushes += 1
        if predicted == target:
            return self.config.taken_bubble, True
        stats.indirect_mispredicts += 1
        if predicted is None:
            stats.btb_misses += 1
        return self.config.mispredict_penalty, False

    # -- returns ---------------------------------------------------------------------------

    def ret(self, pc: int, target: int):
        del pc
        stats = self.stats
        stats.ras_pops += 1
        predicted = self.ras.pop()
        if predicted == target:
            return self.config.taken_bubble, True
        stats.ras_mispredicts += 1
        return self.config.mispredict_penalty, False

    # -- helpers ------------------------------------------------------------------------------

    def _taken_target_penalty(self, pc: int, target: int):
        """Penalty of a taken transfer whose direction was known: the
        BTB lookup, then the update that installs ``target``."""
        self.stats.btb_lookups += 1
        if self.btb.update(pc, target) == target:
            return self.config.taken_bubble, True
        self.stats.btb_misses += 1
        return self.config.btb_miss_penalty, False
