"""A small two-pass assembler for the supported RV64IM + RVV subset.

Accepted syntax is the canonical form produced by
:mod:`repro.isa.disassembler`, plus:

* labels (``loop:``) and label operands in branches/jumps,
* ``#`` and ``//`` comments,
* the pseudo-instructions ``li``, ``mv`` and ``nop``.

Example::

    asm = '''
    loop:
        vmv.x.s   t0, v2            # col_idx[0] -> t0
        vindexmac.vx v8, v1, t0     # C += values[0] * vrf[t0]
        vslide1down.vx v1, v1, zero
        vslide1down.vx v2, v2, zero
        addi a0, a0, -1
        bne  a0, zero, loop
    '''
    program = assemble(asm)
"""

from __future__ import annotations

import re

from repro.errors import AssemblerError
from repro.isa.instructions import I, Instr
from repro.isa.program import Program

_LABEL_RE = re.compile(r"^([A-Za-z_.][\w.$]*):$")
_MEM_RE = re.compile(r"^(-?\w+)\((\w+)\)$")

#: Branch/jump mnemonics whose last operand may be a label.
_LABEL_TARGET_MNEMONICS = {
    "beq", "bne", "blt", "bge", "bltu", "bgeu", "jal",
}


def _strip_comment(line: str) -> str:
    for marker in ("#", "//", ";"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def _int_or_none(token: str):
    try:
        return int(token, 0)
    except ValueError:
        return None


def _parse_operands(rest: str) -> list[str]:
    rest = rest.strip()
    if not rest:
        return []
    return [part.strip() for part in rest.split(",")]


def _mem_operand(token: str) -> tuple[int, str]:
    """Parse ``imm(rs1)`` into ``(imm, rs1_name)``."""
    match = _MEM_RE.match(token.replace(" ", ""))
    if not match:
        raise AssemblerError(f"expected imm(reg) operand, got {token!r}")
    imm = _int_or_none(match.group(1))
    if imm is None:
        raise AssemblerError(f"bad memory offset in {token!r}")
    return imm, match.group(2)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise AssemblerError(msg)


def _parse_line(mnem: str, ops: list[str], lineno: int) -> Instr:
    """Build an Instr for one statement (label targets still unresolved:
    branches to labels get imm=0 here and are patched in pass two)."""

    def imm_of(token: str) -> int:
        value = _int_or_none(token)
        _require(value is not None, f"line {lineno}: bad immediate {token!r}")
        return value

    def slide_imm_of(token: str) -> int:
        value = imm_of(token)
        _require(0 <= value <= 31, f"line {lineno}: {mnem} offset {value} "
                 "out of unsigned 5-bit range [0, 31]")
        return value

    three_reg = {
        "add": I.add, "sub": I.sub, "and": I.and_, "or": I.or_,
        "xor": I.xor, "sll": I.sll, "srl": I.srl, "sra": I.sra,
        "slt": I.slt, "sltu": I.sltu, "mul": I.mul,
    }
    reg_reg_imm = {
        "addi": I.addi, "andi": I.andi, "ori": I.ori, "xori": I.xori,
        "slli": I.slli, "srli": I.srli, "srai": I.srai, "slti": I.slti,
        "sltiu": I.sltiu,
    }
    loads = {
        "lb": I.lb, "lbu": I.lbu, "lh": I.lh, "lhu": I.lhu,
        "lw": I.lw, "lwu": I.lwu, "ld": I.ld, "flw": I.flw,
    }
    stores = {"sb": I.sb, "sh": I.sh, "sw": I.sw, "sd": I.sd, "fsw": I.fsw}
    branches = {
        "beq": I.beq, "bne": I.bne, "blt": I.blt, "bge": I.bge,
        "bltu": I.bltu, "bgeu": I.bgeu,
    }

    if mnem in three_reg:
        _require(len(ops) == 3, f"line {lineno}: {mnem} needs 3 operands")
        return three_reg[mnem](ops[0], ops[1], ops[2])
    if mnem in reg_reg_imm:
        _require(len(ops) == 3, f"line {lineno}: {mnem} needs 3 operands")
        return reg_reg_imm[mnem](ops[0], ops[1], imm_of(ops[2]))
    if mnem in loads:
        _require(len(ops) == 2, f"line {lineno}: {mnem} needs 2 operands")
        imm, base = _mem_operand(ops[1])
        return loads[mnem](ops[0], base, imm)
    if mnem in stores:
        _require(len(ops) == 2, f"line {lineno}: {mnem} needs 2 operands")
        imm, base = _mem_operand(ops[1])
        return stores[mnem](ops[0], base, imm)
    if mnem in branches:
        _require(len(ops) == 3, f"line {lineno}: {mnem} needs 3 operands")
        target = _int_or_none(ops[2])
        return branches[mnem](ops[0], ops[1], target if target is not None else 0)
    if mnem == "jal":
        _require(len(ops) == 2, f"line {lineno}: jal needs 2 operands")
        target = _int_or_none(ops[1])
        return I.jal(ops[0], target if target is not None else 0)
    if mnem == "jalr":
        _require(len(ops) == 3, f"line {lineno}: jalr needs 3 operands")
        return I.jalr(ops[0], ops[1], imm_of(ops[2]))
    if mnem == "lui":
        return I.lui(ops[0], imm_of(ops[1]))
    if mnem == "auipc":
        return I.auipc(ops[0], imm_of(ops[1]))
    if mnem == "li":
        return I.li(ops[0], imm_of(ops[1]))
    if mnem == "mv":
        return I.mv(ops[0], ops[1])
    if mnem == "nop":
        return I.nop()
    if mnem == "vsetvli":
        _require(len(ops) == 3, f"line {lineno}: vsetvli needs 3 operands")
        return I.vsetvli(ops[0], ops[1], imm_of(ops[2]))
    if mnem in ("vle32.v", "vse32.v"):
        _require(len(ops) == 2, f"line {lineno}: {mnem} needs 2 operands")
        base = ops[1].strip()
        _require(base.startswith("(") and base.endswith(")"),
                 f"line {lineno}: expected (reg) address operand")
        base_reg = base[1:-1].strip()
        if mnem == "vle32.v":
            return I.vle32(ops[0], base_reg)
        return I.vse32(ops[0], base_reg)
    if mnem == "vadd.vx":
        return I.vadd_vx(ops[0], ops[1], ops[2])
    if mnem == "vadd.vi":
        return I.vadd_vi(ops[0], ops[1], imm_of(ops[2]))
    if mnem == "vadd.vv":
        return I.vadd_vv(ops[0], ops[1], ops[2])
    if mnem == "vmul.vx":
        return I.vmul_vx(ops[0], ops[1], ops[2])
    if mnem == "vfmacc.vf":
        return I.vfmacc_vf(ops[0], ops[1], ops[2])
    if mnem == "vfmacc.vv":
        return I.vfmacc_vv(ops[0], ops[1], ops[2])
    if mnem == "vfmul.vf":
        return I.vfmul_vf(ops[0], ops[1], ops[2])
    if mnem == "vslide1down.vx":
        return I.vslide1down_vx(ops[0], ops[1], ops[2])
    if mnem == "vslidedown.vx":
        return I.vslidedown_vx(ops[0], ops[1], ops[2])
    if mnem == "vslidedown.vi":
        return I.vslidedown_vi(ops[0], ops[1], slide_imm_of(ops[2]))
    if mnem == "vmv.v.i":
        return I.vmv_v_i(ops[0], imm_of(ops[1]))
    if mnem == "vmv.v.x":
        return I.vmv_v_x(ops[0], ops[1])
    if mnem == "vmv.v.v":
        return I.vmv_v_v(ops[0], ops[1])
    if mnem == "vmv.x.s":
        return I.vmv_x_s(ops[0], ops[1])
    if mnem == "vfmv.f.s":
        return I.vfmv_f_s(ops[0], ops[1])
    if mnem == "vfmv.s.f":
        return I.vfmv_s_f(ops[0], ops[1])
    if mnem == "vindexmac.vx":
        _require(len(ops) == 3,
                 f"line {lineno}: vindexmac.vx needs 3 operands")
        return I.vindexmac_vx(ops[0], ops[1], ops[2])

    # wider RVV subset — uniform three-operand forms
    vector_three_op = {
        "vsub.vv": I.vsub_vv, "vsub.vx": I.vsub_vx, "vrsub.vx": I.vrsub_vx,
        "vand.vv": I.vand_vv, "vand.vx": I.vand_vx,
        "vor.vv": I.vor_vv, "vor.vx": I.vor_vx,
        "vxor.vv": I.vxor_vv, "vxor.vx": I.vxor_vx,
        "vmin.vv": I.vmin_vv, "vmin.vx": I.vmin_vx,
        "vminu.vv": I.vminu_vv, "vminu.vx": I.vminu_vx,
        "vmax.vv": I.vmax_vv, "vmax.vx": I.vmax_vx,
        "vmaxu.vv": I.vmaxu_vv, "vmaxu.vx": I.vmaxu_vx,
        "vmul.vv": I.vmul_vv,
        "vmacc.vv": I.vmacc_vv, "vmacc.vx": I.vmacc_vx,
        "vredsum.vs": I.vredsum_vs,
        "vfadd.vv": I.vfadd_vv, "vfadd.vf": I.vfadd_vf,
        "vfsub.vv": I.vfsub_vv, "vfsub.vf": I.vfsub_vf,
        "vfmul.vv": I.vfmul_vv,
        "vfredusum.vs": I.vfredusum_vs,
        "vslideup.vx": I.vslideup_vx, "vslide1up.vx": I.vslide1up_vx,
    }
    if mnem in vector_three_op:
        _require(len(ops) == 3, f"line {lineno}: {mnem} needs 3 operands")
        return vector_three_op[mnem](ops[0], ops[1], ops[2])
    if mnem == "vrsub.vi":
        _require(len(ops) == 3, f"line {lineno}: {mnem} needs 3 operands")
        return I.vrsub_vi(ops[0], ops[1], imm_of(ops[2]))
    if mnem == "vslideup.vi":
        _require(len(ops) == 3, f"line {lineno}: {mnem} needs 3 operands")
        return I.vslideup_vi(ops[0], ops[1], slide_imm_of(ops[2]))
    if mnem == "vmv.s.x":
        _require(len(ops) == 2, f"line {lineno}: vmv.s.x needs 2 operands")
        return I.vmv_s_x(ops[0], ops[1])
    if mnem == "vid.v":
        _require(len(ops) == 1, f"line {lineno}: vid.v needs 1 operand")
        return I.vid_v(ops[0])
    raise AssemblerError(f"line {lineno}: unknown mnemonic {mnem!r}")


def assemble(text: str, base: int = 0) -> Program:
    """Assemble ``text`` into a :class:`Program`.

    Branches and ``jal`` may name labels; their immediates become byte
    offsets relative to the instruction, as in the hardware encoding.
    """
    program = Program(base=base)
    pending: list[tuple[int, str, int]] = []  # (instr index, label, lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            name = label_match.group(1)
            if name in program.labels:
                raise AssemblerError(f"line {lineno}: duplicate label {name!r}")
            program.labels[name] = len(program.instrs)
            continue
        parts = line.split(None, 1)
        mnem = parts[0].lower()
        ops = _parse_operands(parts[1]) if len(parts) > 1 else []
        if mnem in _LABEL_TARGET_MNEMONICS and ops:
            target = ops[-1]
            if _int_or_none(target) is None:
                pending.append((len(program.instrs), target, lineno))
        program.instrs.append(_parse_line(mnem, ops, lineno))

    for index, label, lineno in pending:
        if label not in program.labels:
            raise AssemblerError(f"line {lineno}: undefined label {label!r}")
        offset = 4 * (program.labels[label] - index)
        program.instrs[index].imm = offset
    return program
