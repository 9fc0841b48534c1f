"""Functional executor semantics, instruction by instruction."""

import pytest

from repro.arch.executor import (
    CTRL_CALL,
    CTRL_HALT,
    CTRL_JUMP,
    CTRL_NONE,
    CTRL_RET,
    ExecutionError,
    execute,
)
from repro.arch.state import ExitProgram, MachineState
from repro.ilr.flow import BaselineFlow
from repro.isa import opcodes
from repro.isa.encoder import make
from repro.isa.registers import EAX, EBX, ECX, EDX, EBP, ESI, ESP


BASELINE = BaselineFlow(0)


def _state(stack_top=0x7FFF0000):
    return MachineState(stack_top=stack_top)


def run(inst, state=None):
    state = state or _state()
    result = execute(inst, state, BASELINE)
    return result, state


class TestMovesAndStack:
    def test_movi(self):
        (_k, _t), s = run(make("movi", reg=EAX, imm=0x1234))
        assert s.regs.regs[EAX] == 0x1234

    def test_mov_rr(self):
        s = _state()
        s.regs.regs[EBX] = 7
        execute(make("mov", mode=opcodes.MODE_RR, reg=EAX, rm=EBX), s,
                BASELINE)
        assert s.regs.regs[EAX] == 7

    def test_load_store_roundtrip(self):
        s = _state()
        s.regs.regs[ESI] = 0x9000
        s.regs.regs[EAX] = 0xCAFEBABE
        execute(make("mov", mode=opcodes.MODE_MR, reg=EAX, rm=ESI, disp=8), s,
                BASELINE)
        assert s.mem.read_u32(0x9008) == 0xCAFEBABE
        assert s.last_store_addr == 0x9008
        execute(make("mov", mode=opcodes.MODE_RM, reg=EBX, rm=ESI, disp=8), s,
                BASELINE)
        assert s.regs.regs[EBX] == 0xCAFEBABE
        assert s.last_load_addr == 0x9008

    def test_push_pop(self):
        s = _state()
        s.regs.regs[EAX] = 0x11
        sp0 = s.regs.regs[ESP]
        execute(make("push", reg=EAX), s, BASELINE)
        assert s.regs.regs[ESP] == sp0 - 4
        execute(make("pop", reg=EBX), s, BASELINE)
        assert s.regs.regs[EBX] == 0x11
        assert s.regs.regs[ESP] == sp0

    def test_leave(self):
        s = _state()
        s.regs.regs[EBP] = 0x7FFE0000
        s.mem.write_u32(0x7FFE0000, 0x1234)
        execute(make("leave"), s, BASELINE)
        assert s.regs.regs[EBP] == 0x1234
        assert s.regs.regs[ESP] == 0x7FFE0004

    def test_lea(self):
        s = _state()
        s.regs.regs[ESI] = 0x100
        execute(make("lea", mode=opcodes.MODE_RM, reg=EAX, rm=ESI, disp=-4), s,
                BASELINE)
        assert s.regs.regs[EAX] == 0xFC
        assert s.last_load_addr is None  # lea never touches memory


class TestALU:
    def test_add_wraps(self):
        s = _state()
        s.regs.regs[EAX] = 0xFFFFFFFF
        execute(make("add", mode=opcodes.MODE_RI, reg=EAX, imm=2), s,
                BASELINE)
        assert s.regs.regs[EAX] == 1
        assert s.flags.cf

    def test_sub_sets_zero_flag(self):
        s = _state()
        s.regs.regs[EAX] = 5
        execute(make("sub", mode=opcodes.MODE_RI, reg=EAX, imm=5), s,
                BASELINE)
        assert s.regs.regs[EAX] == 0 and s.flags.zf

    def test_cmp_does_not_write(self):
        s = _state()
        s.regs.regs[EAX] = 9
        execute(make("cmp", mode=opcodes.MODE_RI, reg=EAX, imm=4), s,
                BASELINE)
        assert s.regs.regs[EAX] == 9
        assert not s.flags.zf

    def test_test_does_not_write(self):
        s = _state()
        s.regs.regs[EAX] = 0b1010
        execute(make("test", mode=opcodes.MODE_RI, reg=EAX, imm=0b0101), s,
                BASELINE)
        assert s.regs.regs[EAX] == 0b1010
        assert s.flags.zf

    def test_imul_signed(self):
        s = _state()
        s.regs.regs[EAX] = 0xFFFFFFFF  # -1
        execute(make("imul", mode=opcodes.MODE_RI, reg=EAX, imm=5), s,
                BASELINE)
        assert s.regs.regs[EAX] == 0xFFFFFFFB  # -5

    def test_imul_store_form_rejected(self):
        s = _state()
        with pytest.raises(ExecutionError):
            execute(make("imul", mode=opcodes.MODE_MR, reg=EAX, rm=ESI), s,
                    BASELINE)

    def test_memory_rmw(self):
        s = _state()
        s.regs.regs[ESI] = 0x9000
        s.mem.write_u32(0x9000, 10)
        s.regs.regs[EAX] = 5
        execute(make("add", mode=opcodes.MODE_MR, reg=EAX, rm=ESI), s,
                BASELINE)
        assert s.mem.read_u32(0x9000) == 15

    @pytest.mark.parametrize("mnemonic,a,b,expected", [
        ("and", 0b1100, 0b1010, 0b1000),
        ("or", 0b1100, 0b1010, 0b1110),
        ("xor", 0b1100, 0b1010, 0b0110),
    ])
    def test_logic_ops(self, mnemonic, a, b, expected):
        s = _state()
        s.regs.regs[EAX] = a
        execute(make(mnemonic, mode=opcodes.MODE_RI, reg=EAX, imm=b), s,
                BASELINE)
        assert s.regs.regs[EAX] == expected
        assert not s.flags.cf and not s.flags.of


class TestShifts:
    def test_shl(self):
        s = _state()
        s.regs.regs[ECX] = 3
        execute(make("shl", rm=ECX, imm=4), s, BASELINE)
        assert s.regs.regs[ECX] == 48

    def test_shr_logical(self):
        s = _state()
        s.regs.regs[ECX] = 0x80000000
        execute(make("shr", rm=ECX, imm=4), s, BASELINE)
        assert s.regs.regs[ECX] == 0x08000000

    def test_sar_arithmetic(self):
        s = _state()
        s.regs.regs[ECX] = 0x80000000
        execute(make("sar", rm=ECX, imm=4), s, BASELINE)
        assert s.regs.regs[ECX] == 0xF8000000

    def test_shift_count_masked(self):
        s = _state()
        s.regs.regs[ECX] = 1
        execute(make("shl", rm=ECX, imm=33), s, BASELINE)
        assert s.regs.regs[ECX] == 2  # count taken mod 32


class TestControlFlow:
    def test_jmp(self):
        inst = make("jmp", addr=0x1000, imm=0x20)
        (kind, target), _ = run(inst)
        assert kind == CTRL_JUMP and target == 0x1025

    def test_conditional_taken_and_not(self):
        s = _state()
        s.flags.zf = True
        kind, target = execute(make("jz", addr=0x10, imm=4), s, BASELINE)
        assert kind == CTRL_JUMP and target == 0x1A
        s.flags.zf = False
        kind, _ = execute(make("jz", addr=0x10, imm=4), s, BASELINE)
        assert kind == CTRL_NONE

    def test_call_pushes_return_address(self):
        s = _state()
        inst = make("call", addr=0x1000, imm=0x100)
        kind, target = execute(inst, s, BASELINE)
        assert kind == CTRL_CALL and target == 0x1105
        assert s.mem.read_u32(s.regs.regs[ESP]) == 0x1005
        assert s.last_retaddr == 0x1005

    def test_calli_register(self):
        s = _state()
        s.regs.regs[EDX] = 0x2000
        kind, target = execute(
            make("calli", addr=0x10, mode=opcodes.MODE_RR, rm=EDX), s,
            BASELINE,
        )
        assert kind == CTRL_CALL and target == 0x2000

    def test_jmpi_memory(self):
        s = _state()
        s.regs.regs[EDX] = 0x9000
        s.mem.write_u32(0x9004, 0x3000)
        kind, target = execute(
            make("jmpi", mode=opcodes.MODE_RM, rm=EDX, disp=4), s,
            BASELINE,
        )
        assert kind == CTRL_JUMP and target == 0x3000
        assert s.last_load_addr == 0x9004

    def test_ret_pops_target(self):
        s = _state()
        s.push(0x4242)
        kind, target = execute(make("ret"), s, BASELINE)
        assert kind == CTRL_RET and target == 0x4242

    def test_halt(self):
        (kind, _), _ = run(make("halt"))
        assert kind == CTRL_HALT


class TestSyscalls:
    def test_exit_raises(self):
        s = _state()
        s.regs.regs[EAX] = 1
        s.regs.regs[EBX] = 7
        with pytest.raises(ExitProgram) as err:
            execute(make("int", imm=0x80), s, BASELINE)
        assert err.value.code == 7
        assert s.exit_code == 7

    def test_putc_and_emit(self):
        s = _state()
        s.regs.regs[EAX] = 4
        s.regs.regs[EBX] = ord("x")
        execute(make("int", imm=0x80), s, BASELINE)
        s.regs.regs[EAX] = 5
        s.regs.regs[EBX] = 99
        execute(make("int", imm=0x80), s, BASELINE)
        assert s.out.text() == "x"
        assert s.out.words == [99]

    def test_icount(self):
        s = _state()
        for _ in range(3):
            execute(make("nop"), s, BASELINE)
        s.regs.regs[EAX] = 7
        execute(make("int", imm=0x80), s, BASELINE)
        assert s.regs.regs[EAX] == 4  # nop x3 + the int itself

    def test_icount_increments(self):
        s = _state()
        execute(make("nop"), s, BASELINE)
        execute(make("nop"), s, BASELINE)
        assert s.icount == 2
