"""Encode/decode round-trip tests for the ISA layer."""

import pytest

from repro.arch import DecoupledProcessor
from repro.errors import DecodingError, EncodingError
from repro.isa import I, Instr, Op, assemble, decode, encode, vtype_e32m1
from repro.isa.disassembler import format_instr
from repro.isa.instructions import (
    OPC_OP_V,
    OPCODES,
    OPMVX,
    VECTOR_CLASSES,
    VINDEXMAC_FUNCT6,
)
from test_isa_extended import EXTENDED_SAMPLES


def roundtrip(instr: Instr) -> Instr:
    word = encode(instr)
    assert 0 <= word < 2**32
    return decode(word)


SCALAR_SAMPLES = [
    I.add("a0", "a1", "a2"),
    I.sub("t0", "t1", "t2"),
    I.and_("s2", "s3", "s4"),
    I.or_("a5", "a6", "a7"),
    I.xor("t3", "t4", "t5"),
    I.sll("a0", "a1", "a2"),
    I.srl("a0", "a1", "a2"),
    I.sra("a0", "a1", "a2"),
    I.slt("a0", "a1", "a2"),
    I.sltu("a0", "a1", "a2"),
    I.mul("a0", "a1", "a2"),
    I.addi("sp", "sp", -16),
    I.andi("a0", "a1", 255),
    I.ori("a0", "a1", 1),
    I.xori("a0", "a1", -1),
    I.slli("a0", "a1", 3),
    I.srli("a0", "a1", 63),
    I.srai("a0", "a1", 2),
    I.slti("a0", "a1", -5),
    I.sltiu("a0", "a1", 5),
    I.lui("a0", 0xFFFFF),
    I.auipc("a1", 0x12345),
    I.lw("a0", "sp", 8),
    I.lwu("a0", "sp", 8),
    I.ld("a0", "sp", -8),
    I.lb("a0", "sp", 1),
    I.lbu("a0", "sp", 1),
    I.lh("a0", "sp", 2),
    I.lhu("a0", "sp", 2),
    I.sw("a0", "sp", 4),
    I.sd("a0", "sp", -4),
    I.sb("a0", "sp", 0),
    I.sh("a0", "sp", 0),
    I.flw("fa0", "a0", 12),
    I.fsw("fa0", "a0", -12),
    I.beq("a0", "a1", 64),
    I.bne("a0", "zero", -64),
    I.blt("a0", "a1", 4),
    I.bge("a0", "a1", -4),
    I.bltu("a0", "a1", 4094),
    I.bgeu("a0", "a1", -4096),
    I.jal("ra", 2048),
    I.jal("zero", -2048),
    I.jalr("ra", "a0", 16),
]

VECTOR_SAMPLES = [
    I.vsetvli("t0", "a0", vtype_e32m1()),
    I.vle32(4, "a1"),
    I.vse32(8, "a2"),
    I.vadd_vx(1, 2, "t0"),
    I.vadd_vi(1, 2, -3),
    I.vadd_vv(1, 2, 3),
    I.vmul_vx(6, 7, "t1"),
    I.vfmacc_vf(8, "fa0", 9),
    I.vfmacc_vv(8, 9, 10),
    I.vfmul_vf(8, 9, "fa1"),
    I.vslide1down_vx(1, 1, "zero"),
    I.vslidedown_vx(2, 3, "t0"),
    I.vslidedown_vi(2, 3, 17),
    I.vmv_v_i(5, -1),
    I.vmv_v_x(5, "a0"),
    I.vmv_v_v(5, 6),
    I.vmv_x_s("t0", 2),
    I.vfmv_f_s("fa0", 3),
    I.vfmv_s_f(4, "fa2"),
    I.vindexmac_vx(8, 1, "t0"),
]


@pytest.mark.parametrize("instr", SCALAR_SAMPLES, ids=lambda i: i.asm())
def test_scalar_roundtrip(instr):
    assert roundtrip(instr) == instr


@pytest.mark.parametrize("instr", VECTOR_SAMPLES, ids=lambda i: i.asm())
def test_vector_roundtrip(instr):
    assert roundtrip(instr) == instr


ALL_SAMPLES = SCALAR_SAMPLES + VECTOR_SAMPLES + EXTENDED_SAMPLES


def test_samples_cover_every_opcode():
    """A new opcode fails here until it has a sample, so every opcode
    goes through the full round trip below."""
    assert {instr.op for instr in ALL_SAMPLES} == set(Op)


@pytest.mark.parametrize("instr", ALL_SAMPLES, ids=lambda i: i.asm())
def test_full_roundtrip(instr):
    """encode -> decode -> disassemble -> assemble gives the
    instruction back."""
    program = assemble(format_instr(decode(encode(instr))))
    assert len(program) == 1
    assert program[0] == instr


def test_vindexmac_encoding_fields():
    """The proposed instruction must sit in the OPMVX space of OP-V."""
    word = encode(I.vindexmac_vx(8, 1, "t0"))
    assert word & 0x7F == OPC_OP_V
    assert (word >> 12) & 0x7 == OPMVX
    assert word >> 26 == VINDEXMAC_FUNCT6
    assert (word >> 7) & 0x1F == 8  # vd
    assert (word >> 20) & 0x1F == 1  # vs2
    assert (word >> 15) & 0x1F == 5  # rs1 = t0 = x5
    assert (word >> 25) & 1 == 1  # unmasked


def test_vindexmac_does_not_collide_with_subset():
    """No other supported instruction may decode to the chosen word."""
    word = encode(I.vindexmac_vx(0, 0, 0))
    assert decode(word).op is Op.VINDEXMAC_VX
    for instr in SCALAR_SAMPLES + VECTOR_SAMPLES:
        if instr.op is Op.VINDEXMAC_VX:
            continue
        assert encode(instr) != word


def test_vmv_x_s_keeps_scalar_destination():
    instr = I.vmv_x_s("a3", 7)
    back = roundtrip(instr)
    assert back.rd == 13
    assert back.vs2 == 7


def test_branch_offset_must_be_even():
    with pytest.raises(EncodingError):
        encode(I.beq("a0", "a1", 3))


def test_immediate_out_of_range():
    with pytest.raises(EncodingError):
        encode(I.addi("a0", "a0", 4096))
    with pytest.raises(EncodingError):
        encode(I.vadd_vi(1, 2, 16))


def test_unsigned_slide_immediate_allows_up_to_31():
    back = roundtrip(I.vslidedown_vi(2, 3, 31))
    assert back.imm == 31


def test_decode_rejects_garbage():
    with pytest.raises(DecodingError):
        decode(0x0000007F)  # unused major opcode


def test_decode_rejects_vsetvl_register_form():
    # bit31=1 selects vsetvl/vsetivli which the subset does not implement
    word = encode(I.vsetvli("t0", "a0", vtype_e32m1())) | (1 << 31)
    with pytest.raises(DecodingError):
        decode(word)


def test_vtype_e32m1_fields():
    vt = vtype_e32m1()
    assert (vt >> 3) & 0x7 == 0b010  # SEW=32
    assert vt & 0x7 == 0  # LMUL=1
    assert vt >> 6 & 1 and vt >> 7 & 1  # ta/ma
    plain = vtype_e32m1(tail_agnostic=False, mask_agnostic=False)
    assert plain == 0b010 << 3


# ----------------------------------------------------------------------
# the opcode table
# ----------------------------------------------------------------------
def test_every_op_has_one_row():
    assert set(OPCODES) == set(Op)
    assert all(spec.op is op for op, spec in OPCODES.items())


def test_every_match_lies_inside_its_mask():
    for spec in OPCODES.values():
        assert spec.match & ~spec.mask == 0, spec


def test_every_timing_class_is_one_the_processor_builds():
    built = DecoupledProcessor()._timing_classes()
    assert {spec.timing for spec in OPCODES.values()} == set(built)
    assert VECTOR_CLASSES <= set(built)


@pytest.mark.parametrize("word", [
    # masked forms (vm = 0) of the unmasked subset
    encode(I.vadd_vv(1, 2, 3)) & ~(1 << 25),
    encode(I.vindexmac_vx(8, 1, "t0")) & ~(1 << 25),
    # loads that are not unit-stride: strided, indexed, segment,
    # fault-only-first
    encode(I.vle32(4, "a1")) | 0b10 << 26 | 6 << 20,
    encode(I.vle32(4, "a1")) | 0b01 << 26 | 6 << 20,
    encode(I.vle32(4, "a1")) | 0b001 << 29,
    encode(I.vle32(4, "a1")) | 0b10000 << 20,
    # VWXUNARY0 functions other than vmv.x.s: vcpop.m, vfirst.m
    encode(I.vmv_x_s("t0", 2)) | 0b10000 << 15,
    encode(I.vmv_x_s("t0", 2)) | 0b10001 << 15,
    # vmerge.vxm (vm = 0, vs2 != 0) under vmv.v.x's funct6
    (encode(I.vmv_v_x(1, "a0")) & ~(1 << 25)) | 2 << 20,
    # vs2 must be 0 for vmv.v.* and the scalar moves into element 0
    encode(I.vmv_v_i(1, 3)) | 2 << 20,
    encode(I.vmv_s_x(1, "a0")) | 2 << 20,
    encode(I.vfmv_s_f(1, "fa0")) | 2 << 20,
    # a reserved shift funct6 next to srai's
    encode(I.srai("a0", "a1", 2)) | 0b100000 << 26,
], ids=lambda word: f"{word:#010x}")
def test_decode_rejects_words_outside_the_subset(word):
    with pytest.raises(DecodingError):
        decode(word)
