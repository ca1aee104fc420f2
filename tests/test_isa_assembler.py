"""Assembler / disassembler tests, including label resolution."""

import pytest

from repro.errors import AssemblerError
from repro.isa import I, Instr, Op, assemble, disassemble, format_instr

#: One valid statement per mnemonic: every opcode with all-zero
#: operands, and the pseudo-instructions.
STATEMENTS = {text.split(" ", 1)[0]: text for text in
              [format_instr(Instr(op)) for op in Op]
              + ["li a0, 5", "mv a0, a1", "nop"]}


def test_assemble_simple_sequence():
    program = assemble("""
        li   a0, 16
        addi a1, a0, 4
        add  a2, a0, a1
    """)
    assert len(program) == 3
    assert program[0] == I.li("a0", 16)
    assert program[1] == I.addi("a1", "a0", 4)
    assert program[2] == I.add("a2", "a0", "a1")


def test_assemble_comments_and_blank_lines():
    program = assemble("""
        # leading comment
        nop        // trailing comment styles
        nop        ; semicolon comment

    """)
    assert len(program) == 2


def test_label_backward_branch():
    program = assemble("""
    loop:
        addi a0, a0, -1
        bne  a0, zero, loop
    """)
    assert program.labels["loop"] == 0
    # bne is instruction 1; target is instruction 0 -> offset -4 bytes
    assert program[1].imm == -4


def test_label_forward_branch():
    program = assemble("""
        beq a0, zero, done
        addi a1, a1, 1
    done:
        nop
    """)
    assert program[0].imm == 8


def test_jal_label():
    program = assemble("""
        jal ra, func
        nop
    func:
        nop
    """)
    assert program[0].imm == 8
    assert program.index_of("func") == 2
    assert program.address_of("func") == 8


def test_duplicate_label_rejected():
    with pytest.raises(AssemblerError):
        assemble("x:\nnop\nx:\nnop")


def test_undefined_label_rejected():
    with pytest.raises(AssemblerError):
        assemble("beq a0, a1, nowhere")


def test_unknown_mnemonic_rejected():
    with pytest.raises(AssemblerError):
        assemble("frobnicate a0, a1")


@pytest.mark.parametrize("mnem", ["vslidedown.vi", "vslideup.vi"])
@pytest.mark.parametrize("offset", [-1, 32])
def test_slide_vi_offset_outside_uimm5_rejected(mnem, offset):
    with pytest.raises(AssemblerError, match="unsigned 5-bit"):
        assemble(f"{mnem} v1, v2, {offset}")


@pytest.mark.parametrize("mnem", ["vslidedown.vi", "vslideup.vi"])
def test_slide_vi_offset_range_ends_assemble_and_encode(mnem):
    program = assemble(f"{mnem} v1, v2, 0\n{mnem} v1, v2, 31")
    assert [instr.imm for instr in program] == [0, 31]
    assert len(program.words()) == 2


@pytest.mark.parametrize("mnem", sorted(STATEMENTS))
def test_every_mnemonic_checks_its_operand_count(mnem):
    text = STATEMENTS[mnem]
    assert len(assemble(text)) == 1
    ops = text.split(" ", 1)[1].split(", ") if " " in text else []
    if ops:
        with pytest.raises(AssemblerError, match="operand"):
            assemble(" ".join([mnem, ", ".join(ops[:-1])]))
    with pytest.raises(AssemblerError, match="operand"):
        assemble(" ".join([mnem, ", ".join(ops + (ops[-1:] or ["a0"]))]))


def test_bad_register_rejected():
    with pytest.raises(AssemblerError):
        assemble("add a0, a1, q9")


def test_vector_kernel_fragment():
    """The paper's Algorithm 3 inner loop assembles as written."""
    program = assemble("""
    inner:
        vmv.x.s      t0, v2
        vindexmac.vx v8, v1, t0
        vslide1down.vx v1, v1, zero
        vslide1down.vx v2, v2, zero
        addi a0, a0, -1
        bne  a0, zero, inner
    """)
    ops = [i.op for i in program]
    assert ops == [
        Op.VMV_X_S, Op.VINDEXMAC_VX, Op.VSLIDE1DOWN_VX,
        Op.VSLIDE1DOWN_VX, Op.ADDI, Op.BNE,
    ]


def test_vector_memory_syntax():
    program = assemble("""
        vle32.v v4, (a1)
        vse32.v v4, (a2)
    """)
    assert program[0].op is Op.VLE32
    assert program[0].vd == 4
    assert program[1].op is Op.VSE32


def test_disassemble_roundtrip_through_assembler():
    source_instrs = [
        I.vsetvli("t0", "a0", 0xD0),
        I.vle32(1, "a1"),
        I.vmv_x_s("t1", 2),
        I.vindexmac_vx(8, 1, "t1"),
        I.vfmacc_vf(9, "fa0", 3),
        I.vse32(8, "a3"),
        I.addi("a1", "a1", 64),
    ]
    text = disassemble(source_instrs)
    program = assemble(text)
    assert list(program) == source_instrs


def test_format_instr_examples():
    assert format_instr(I.vindexmac_vx(8, 1, "t0")) == "vindexmac.vx v8, v1, t0"
    assert format_instr(I.vfmacc_vf(9, "fa0", 3)) == "vfmacc.vf v9, fa0, v3"
    assert format_instr(I.lw("a0", "sp", 8)) == "lw a0, 8(sp)"
    assert format_instr(I.vle32(4, "a1")) == "vle32.v v4, (a1)"


def test_program_words_encodable():
    program = assemble("""
        vmv.x.s t0, v2
        vindexmac.vx v8, v1, t0
    """)
    words = program.words()
    assert len(words) == 2
    assert all(0 <= w < 2**32 for w in words)


def test_program_text_contains_labels():
    program = assemble("""
    start:
        nop
        jal zero, start
    """)
    rendered = program.text()
    assert "start:" in rendered
    assert "jal zero, -4" in rendered
