"""Branch prediction structures: gshare, BTB, RAS, penalty accounting."""

from types import SimpleNamespace

import pytest

from repro.arch.branch import BTB, BranchStats, BranchUnit, GShare, RAS
from repro.arch.config import BranchConfig
from repro.arch.executor import CTRL_CALL, CTRL_JUMP, CTRL_NONE, CTRL_RET


class TestGShare:
    def test_learns_always_taken(self):
        pred = GShare(10)
        pc = 0x400010
        for _ in range(8):
            pred.update(pc, True)
        assert pred.predict(pc) is True

    def test_learns_never_taken(self):
        pred = GShare(10)
        pc = 0x400010
        for _ in range(8):
            pred.update(pc, False)
        assert pred.predict(pc) is False

    def test_history_distinguishes_patterns(self):
        # Alternating T/N with global history: gshare can learn it, a
        # single 2-bit counter cannot.  After training, accuracy is high.
        pred = GShare(10)
        pc = 0x400020
        outcomes = [bool(i % 2) for i in range(200)]
        correct = 0
        for taken in outcomes:
            if pred.predict(pc) == taken:
                correct += 1
            pred.update(pc, taken)
        assert correct > 150

    def test_counter_saturation(self):
        pred = GShare(4)
        pc = 0
        for _ in range(100):
            pred.update(pc, True)
        # One not-taken must not flip the prediction (hysteresis)...
        pred.update(pc, False)
        # history changed; check the counter itself stayed >= 2 somewhere
        assert any(c >= 2 for c in pred.table)


class TestBTB:
    def test_miss_then_hit(self):
        btb = BTB(64, 4)
        assert btb.update(0x400000, 0x401000) is None
        assert btb.update(0x400000, 0x401000) == 0x401000

    def test_update_existing(self):
        btb = BTB(64, 4)
        btb.update(0x400000, 0x1)
        assert btb.update(0x400000, 0x2) == 0x1
        assert btb.update(0x400000, 0x2) == 0x2

    def test_lru_within_set(self):
        btb = BTB(8, 2)  # 4 sets, 2 ways
        # Three PCs in the same set (stride 16 bytes = 4 words).
        pcs = [0x0, 0x10, 0x20]
        btb.update(pcs[0], 1)
        btb.update(pcs[1], 2)
        btb.update(pcs[0], 1)       # refresh
        btb.update(pcs[2], 3)       # evicts pcs[1]
        assert btb.update(pcs[0], 1) == 1
        assert btb.update(pcs[1], 2) is None


class TestRAS:
    def test_push_pop_order(self):
        ras = RAS(8)
        ras.push(1)
        ras.push(2)
        assert ras.pop() == 2
        assert ras.pop() == 1
        assert ras.pop() is None

    def test_overflow_drops_oldest(self):
        ras = RAS(2)
        ras.push(1)
        ras.push(2)
        ras.push(3)
        assert ras.pop() == 3
        assert ras.pop() == 2
        assert ras.pop() is None


class TestBranchUnit:
    def _unit(self):
        return BranchUnit(BranchConfig())

    def test_conditional_first_taken_not_free(self):
        unit = self._unit()
        penalty, ok = unit.conditional(0x400000, True, 0x401000)
        # First encounter: direction may be guessed right (weakly-taken
        # init) but the BTB is cold, so the front end cannot have the
        # target in hand: ok must be False and a penalty charged.
        assert not ok
        assert penalty in (unit.config.btb_miss_penalty,
                           unit.config.mispredict_penalty)
        assert unit.stats.cond_branches == 1

    def test_conditional_direction_mispredict_penalty(self):
        unit = self._unit()
        pc = 0x400040
        for _ in range(8):
            unit.conditional(pc, True, 0x401000)  # train taken
        penalty, ok = unit.conditional(pc, False, 0)  # surprise not-taken
        assert not ok and penalty == unit.config.mispredict_penalty
        assert unit.stats.cond_mispredicts >= 1

    def test_trained_loop_branch_cheap(self):
        unit = self._unit()
        pc, target = 0x400000, 0x400100
        for _ in range(16):
            unit.conditional(pc, True, target)
        penalty, ok = unit.conditional(pc, True, target)
        assert ok and penalty == unit.config.taken_bubble

    def test_not_taken_correct_is_free(self):
        unit = self._unit()
        for _ in range(8):
            unit.conditional(0x400000, False, 0)
        penalty, ok = unit.conditional(0x400000, False, 0)
        assert ok and penalty == 0

    def test_direct_jump_btb_warmup(self):
        unit = self._unit()
        penalty1, ok1 = unit.direct(0x400000, 0x402000, False)
        assert not ok1 and penalty1 == unit.config.btb_miss_penalty
        penalty2, ok2 = unit.direct(0x400000, 0x402000, False)
        assert ok2 and penalty2 == unit.config.taken_bubble

    def test_call_ret_pair_uses_ras(self):
        unit = self._unit()
        unit.direct(0x400000, 0x402000, True, retaddr=0x400005)
        penalty, ok = unit.ret(0x402010, 0x400005)
        assert ok and penalty == unit.config.taken_bubble
        assert unit.stats.ras_mispredicts == 0

    def test_ret_mispredict_on_corrupted_address(self):
        unit = self._unit()
        unit.direct(0x400000, 0x402000, True, retaddr=0x400005)
        penalty, ok = unit.ret(0x402010, 0xDEAD)
        assert not ok and penalty == unit.config.mispredict_penalty
        assert unit.stats.ras_mispredicts == 1

    def test_indirect_predicted_after_first(self):
        unit = self._unit()
        penalty1, ok1 = unit.indirect(0x400000, 0x403000, False)
        assert not ok1
        penalty2, ok2 = unit.indirect(0x400000, 0x403000, False)
        assert ok2 and penalty2 == unit.config.taken_bubble

    def test_indirect_polymorphic_mispredicts(self):
        unit = self._unit()
        unit.indirect(0x400000, 0x403000, False)
        penalty, ok = unit.indirect(0x400000, 0x404000, False)
        assert not ok and penalty == unit.config.mispredict_penalty
        assert unit.stats.indirect_mispredicts == 2

    def test_accuracy_property(self):
        unit = self._unit()
        for i in range(100):
            unit.conditional(0x400000, i % 4 != 3, 0x400100)
        assert 0.0 <= unit.stats.cond_accuracy <= 1.0


def _state(unit):
    """Everything a prediction can change: stats and predictor state."""
    stats = {name: getattr(unit.stats, name) for name in BranchStats.__slots__}
    return (stats, unit.btb._sets, unit.ras._stack, unit.gshare.table,
            unit.gshare.history)


class TestResolve:
    def test_non_control_outcome_is_stat_free(self):
        unit = BranchUnit(BranchConfig())
        inst = SimpleNamespace(addr=0x400000, mnemonic="add", cc=None)
        before = _state(BranchUnit(BranchConfig()))
        assert unit.resolve(inst, CTRL_NONE, 0x400003, 0, None) == (0, True)
        assert _state(unit) == before

    def test_conditional_dispatches_on_the_taken_outcome(self):
        unit, twin = BranchUnit(BranchConfig()), BranchUnit(BranchConfig())
        inst = SimpleNamespace(addr=0x400000, mnemonic="jz", cc=4)
        for kind, taken in ((CTRL_JUMP, True), (CTRL_NONE, False)):
            assert (unit.resolve(inst, kind, 0x400100, 0x400100, None)
                    == twin.conditional(0x400000, taken,
                                        0x400100 if taken else 0))
        assert _state(unit) == _state(twin)

    @pytest.mark.parametrize("mnemonic,kind", [
        ("call", CTRL_CALL), ("jmp", CTRL_JUMP), ("jmp8", CTRL_JUMP),
        ("calli", CTRL_CALL), ("jmpi", CTRL_JUMP), ("ret", CTRL_RET),
    ])
    def test_rendered_source_matches_resolve(self, mnemonic, kind):
        """``resolve_src``'s line, run over ``inline_scope()``, leaves
        the ``(pen, ok)`` and the predictor state ``resolve`` does on a
        twin unit: a miss, then a hit."""
        inst = SimpleNamespace(addr=0x400040, mnemonic=mnemonic, cc=None)
        # Distinct fetch-space and architectural targets, so a source
        # that passed the wrong one would diverge.
        nfp, tgt = 0x402000, 0x5000
        st = SimpleNamespace(last_retaddr=0x400045)
        ref, gen = BranchUnit(BranchConfig()), BranchUnit(BranchConfig())
        src = "\n".join(gen.resolve_src(inst, "nfp", "tgt"))
        code = compile(src, "<resolve_src>", "exec")
        outcomes = []
        for attempt in range(2):
            if mnemonic == "ret" and attempt:
                # The matching call pushed the return address.
                for unit in (ref, gen):
                    unit.ras.push(tgt)
            expected = ref.resolve(inst, kind, nfp, tgt, st)
            scope = dict(gen.inline_scope(), st=st, nfp=nfp, tgt=tgt)
            exec(code, scope)
            assert (scope["pen"], scope["ok"]) == expected
            assert _state(gen) == _state(ref)
            outcomes.append(expected[1])
        assert outcomes == [False, True]

    def test_source_for_a_conditional_is_refused(self):
        unit = BranchUnit(BranchConfig())
        inst = SimpleNamespace(addr=0x400000, mnemonic="jz", cc=4)
        with pytest.raises(ValueError):
            unit.resolve_src(inst, "nfp", "tgt")
