"""Gadget scanner, role classification, payload compiler tests."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.binary import BinaryImage, FLAG_EXEC, FLAG_READ, Section
from repro.ilr import RandomizerConfig, randomize
from repro.isa import assemble
from repro.isa.decoder import try_decode
from repro.security import (
    END_CALL,
    END_JMP,
    END_RET,
    PayloadError,
    SHELL_MAGIC,
    attacker_visible_gadgets,
    can_build_payload,
    classify_roles,
    compile_shell_payload,
    scan_gadgets,
    survey_gadgets,
    survey_image,
)
from repro.isa.registers import EAX, EBX
from repro.workloads import build_image
from repro.workloads.suite import BY_NAME


def _raw_image(code: bytes) -> BinaryImage:
    image = BinaryImage(entry=0x400000)
    image.add_section(
        Section("code", 0x400000, bytearray(code), FLAG_READ | FLAG_EXEC)
    )
    return image


_REFERENCE_ENDS = {"ret": END_RET, "jmpi": END_JMP, "calli": END_CALL}


def _reference_scan(image: BinaryImage, max_instructions: int = 5):
    """The oracle ``scan_gadgets`` must match: the plainest form of the
    scan, decoding afresh at every step of every candidate."""
    found = []
    for sec in image.code_sections():
        data = bytes(sec.data)
        for off in range(len(data)):
            seq, pos = [], off
            for _ in range(max_instructions):
                inst = try_decode(data, pos, sec.base + pos)
                if inst is None:
                    break
                seq.append(inst)
                if inst.mnemonic in _REFERENCE_ENDS:
                    found.append((sec.base + off,
                                  _REFERENCE_ENDS[inst.mnemonic], seq))
                    break
                if inst.is_control or inst.is_halt:
                    break
                pos += inst.length
    return [_shape(addr, kind, seq) for addr, kind, seq in found]


def _shape(addr, end_kind, instructions):
    return (addr, end_kind,
            [(i.mnemonic, i.addr, i.length, i.text()) for i in instructions])


def _scanned(image: BinaryImage, max_instructions: int = 5):
    return [_shape(g.addr, g.end_kind, g.instructions)
            for g in scan_gadgets(image, max_instructions)]


#: Bytes that start gadget-relevant encodings (pop, ret, the FF group,
#: movi, jumps, halt, the two-byte escape), drawn often so random
#: strings hold real gadgets; any byte can still come up.
_GADGET_BYTES = st.one_of(
    st.sampled_from([0x58, 0x5B, 0xC3, 0xFF, 0x20, 0x10, 0xB8, 0xE9,
                     0xEB, 0x70, 0xF4, 0x0F, 0x01, 0x8B, 0x90, 0xCD]),
    st.integers(min_value=0, max_value=255),
)


class TestScanner:
    def test_finds_pop_ret(self):
        # pop eax (0x58) ; ret (0xC3)
        image = _raw_image(bytes([0x58, 0xC3]))
        gadgets = scan_gadgets(image)
        texts = [g.text() for g in gadgets]
        assert "pop eax ; ret" in texts
        assert "ret" in texts  # the bare terminator at offset 1

    def test_finds_unintended_offsets(self):
        # movi eax, 0xC358: the immediate bytes contain 58 C3 = pop eax; ret.
        image = _raw_image(bytes([0xB8, 0x58, 0xC3, 0x00, 0x00]))
        gadgets = scan_gadgets(image)
        assert any(
            g.addr == 0x400001 and g.text() == "pop eax ; ret" for g in gadgets
        )

    def test_end_kinds(self):
        # RX86 register-indirect forms use ModRM mode 0:
        # jmpi eax = FF 20 (subop /4), calli eax = FF 10 (subop /2).
        image = _raw_image(bytes([0xFF, 0x20, 0xFF, 0x10, 0xC3]))
        kinds = {g.end_kind for g in scan_gadgets(image)}
        assert {END_JMP, END_CALL, END_RET} <= kinds

    def test_intermediate_control_flow_breaks_gadget(self):
        # jmp rel32 ; ret — the jmp is unusable mid-gadget, only the bare
        # ret at offset 5 is a gadget.
        image = _raw_image(bytes([0xE9, 0, 0, 0, 0, 0xC3]))
        gadgets = scan_gadgets(image)
        assert all(g.addr == 0x400005 for g in gadgets)

    def test_max_length_respected(self):
        code = bytes([0x90] * 10 + [0xC3])
        image = _raw_image(code)
        gadgets = scan_gadgets(image, max_instructions=3)
        assert max(g.length for g in gadgets) <= 3

    def test_one_gadget_per_start_address(self):
        image = _raw_image(bytes([0x58, 0x5B, 0xC3]))
        gadgets = scan_gadgets(image)
        addrs = [g.addr for g in gadgets]
        assert len(addrs) == len(set(addrs))


class TestAgainstReference:
    """``scan_gadgets`` finds exactly what the reference scanner finds."""

    @pytest.mark.parametrize("name", sorted(BY_NAME))
    def test_suite_images(self, name):
        image = build_image(name)
        assert _scanned(image) == _reference_scan(image)

    @settings(max_examples=200, deadline=None)
    @given(
        sections=st.lists(st.lists(_GADGET_BYTES, max_size=48),
                          min_size=1, max_size=3),
        base=st.integers(min_value=0, max_value=0x7FFF0000),
        max_instructions=st.integers(min_value=1, max_value=6),
    )
    # A movi and an FF-group op cut short by the section's end.
    @example(sections=[[0x58, 0xB8, 0xC3]], base=0x400000,
             max_instructions=5)
    @example(sections=[[0x58, 0x5B, 0xFF], [0x58, 0xC3, 0xB8, 0x58]],
             base=0x1003, max_instructions=6)
    def test_byte_strings(self, sections, base, max_instructions):
        image = BinaryImage(entry=base)
        for index, code in enumerate(sections):
            image.add_section(Section("code%d" % index, base,
                                      bytearray(code), FLAG_READ | FLAG_EXEC))
            base += len(code) + 16
        assert (_scanned(image, max_instructions)
                == _reference_scan(image, max_instructions))


class TestDecodeOnce:
    def test_one_decode_per_code_byte(self, monkeypatch):
        from repro.security import gadgets as gadgets_module

        calls = []

        def counting(data, offset, addr):
            calls.append(addr)
            return try_decode(data, offset, addr)

        monkeypatch.setattr(gadgets_module, "try_decode", counting)
        image = build_image("gcc")
        scan_gadgets(image)
        code_addrs = [sec.base + off for sec in image.code_sections()
                      for off in range(sec.size)]
        assert sorted(calls) == sorted(code_addrs)


class TestRoles:
    def test_pop_roles_by_register(self):
        image = _raw_image(bytes([0x58, 0xC3, 0x5B, 0xC3]))  # pop eax/pop ebx
        pool = classify_roles(scan_gadgets(image))
        assert EAX in pool.pop_to_reg
        assert EBX in pool.pop_to_reg

    def test_syscall_role(self):
        image = _raw_image(bytes([0xCD, 0x80, 0xC3]))  # int 0x80 ; ret
        pool = classify_roles(scan_gadgets(image))
        assert len(pool.syscall) == 1

    def test_non_ret_endings_excluded(self):
        image = _raw_image(bytes([0x58, 0xFF, 0xE0]))  # pop eax ; jmp eax
        pool = classify_roles(scan_gadgets(image))
        assert EAX not in pool.pop_to_reg

    def test_dirty_gadget_not_a_clean_pop(self):
        # pop eax ; pop ebx ; ret — not a single-pop role for eax.
        image = _raw_image(bytes([0x58, 0x5B, 0xC3]))
        pool = classify_roles(scan_gadgets(image))
        assert EAX not in pool.pop_to_reg
        assert EBX in pool.pop_to_reg  # offset 1 gives pop ebx ; ret


class TestPayload:
    def _full_pool_image(self):
        return _raw_image(bytes([
            0x58, 0xC3,        # pop eax ; ret
            0x5B, 0xC3,        # pop ebx ; ret
            0xCD, 0x80, 0xC3,  # int 0x80 ; ret
        ]))

    def test_compiles_when_roles_present(self):
        payload = compile_shell_payload(scan_gadgets(self._full_pool_image()))
        assert SHELL_MAGIC in payload.words
        assert len(payload.words) == 10
        assert payload.words[0] == 0x400000  # pop eax gadget address

    def test_fails_without_syscall_gadget(self):
        image = _raw_image(bytes([0x58, 0xC3, 0x5B, 0xC3]))
        with pytest.raises(PayloadError) as err:
            compile_shell_payload(scan_gadgets(image))
        assert "int 0x80" in str(err.value)

    def test_fails_without_pop_ebx(self):
        image = _raw_image(bytes([0x58, 0xC3, 0xCD, 0x80, 0xC3]))
        assert not can_build_payload(scan_gadgets(image))

    def test_can_build_payload_true_case(self):
        assert can_build_payload(scan_gadgets(self._full_pool_image()))


class TestSurvivors:
    @pytest.fixture(scope="class")
    def program(self):
        src = """
.code 0x400000
main:
    call helper
    movi edx, helper
    calli edx
    movi eax, 1
    movi ebx, 0
    int 0x80
helper:
    pop eax
    push eax
    ret
"""
        return randomize(assemble(src), RandomizerConfig(seed=13))

    def test_survivors_are_redirect_entries(self, program):
        gadgets = scan_gadgets(program.original)
        survivors = attacker_visible_gadgets(gadgets, program.rdr)
        legal = program.rdr.unrandomized_entries()
        assert all(g.addr in legal for g in survivors)

    def test_survey_consistency(self, program):
        survey = survey_image(program.original, program.rdr)
        gadgets = scan_gadgets(program.original)
        assert survey.total_before == len(gadgets)
        assert survey.usable_after <= survey.total_before
        assert 0.0 <= survey.removal_percent <= 100.0

    def test_survey_of_a_scanned_list(self, program):
        gadgets = scan_gadgets(program.original)
        assert survey_gadgets(gadgets, program.rdr) == survey_image(
            program.original, program.rdr)

    def test_randomization_removes_most_gadgets(self, program):
        survey = survey_image(program.original, program.rdr)
        assert survey.removal_percent >= 80.0
