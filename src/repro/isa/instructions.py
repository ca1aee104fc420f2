"""Instructions of the RV64IM + RVV subset used by IndexMAC: records,
opcodes and the opcode table.

The whole library shares a single flat instruction record, :class:`Instr`.
Flat records (rather than one dataclass per format) keep trace generation
and simulation fast: kernels emit millions of these objects, and the
processor model dispatches on the integer :class:`Op` code.

:data:`OPCODES` holds one :class:`OpSpec` row per opcode: its assembly
form with typed operands, its fixed encoding bits, its timing class and
its semantic flags.  Everything else the library knows per opcode is
derived from the rows: the class sets below, the :class:`I`
constructors, :func:`~repro.isa.encoding.encode` and
:func:`~repro.isa.encoding.decode`, the assembler and disassembler,
:func:`~repro.isa.trace.instruction_roles`, the processor's timing
handlers and the analytic instruction classes.  A new opcode is one row,
plus a functional handler unless it is element-wise.

Operand conventions follow the RISC-V assembly forms (``x``, ``f`` and
``v`` name the register file; ``d`` is the destination):

* scalar R-type:  ``op xd, xs1, xs2``
* scalar I-type:  ``op xd, xs1, imm``
* loads:          ``op xd, imm(xs1)``
* stores:         ``op xs2, imm(xs1)``  (``rs2`` is the data source)
* branches:       ``op xs1, xs2, imm``
* vector .vx:     ``op vd, vs2, xs1``   (RVV puts the scalar in rs1)
* vector .vf:     ``op vd, vs2, fs1``
* vector .vi:     ``op vd, vs2, imm``
* vle/vse:        ``op vd, (xs1)`` / ``op vs3, (xs1)`` (vs3 held in ``vd``)
* vindexmac.vx:   ``vindexmac.vx vd, vs2, xs1`` with semantics
  ``vd[i] += vs2[0] * vrf[x[rs1] & 0x1f][i]`` (Section III-A of the paper).
"""

from __future__ import annotations

import functools
import keyword
import operator
from enum import IntEnum
from typing import NamedTuple

import numpy as np

from repro.isa import registers as _regs


class Op(IntEnum):
    """Opcode identifiers for every supported instruction."""

    # --- RV64I scalar ALU, register-register ---
    ADD = 0
    SUB = 1
    AND = 2
    OR = 3
    XOR = 4
    SLL = 5
    SRL = 6
    SRA = 7
    SLT = 8
    SLTU = 9
    MUL = 10  # RV64M

    # --- RV64I scalar ALU, immediate ---
    ADDI = 20
    ANDI = 21
    ORI = 22
    XORI = 23
    SLLI = 24
    SRLI = 25
    SRAI = 26
    SLTI = 27
    SLTIU = 28

    # --- upper-immediate ---
    LUI = 40
    AUIPC = 41

    # --- scalar memory ---
    LB = 50
    LBU = 51
    LH = 52
    LHU = 53
    LW = 54
    LWU = 55
    LD = 56
    SB = 60
    SH = 61
    SW = 62
    SD = 63
    FLW = 64
    FSW = 65

    # --- control flow ---
    BEQ = 70
    BNE = 71
    BLT = 72
    BGE = 73
    BLTU = 74
    BGEU = 75
    JAL = 76
    JALR = 77

    # --- vector configuration ---
    VSETVLI = 90

    # --- vector memory (unit-stride, 32-bit elements) ---
    VLE32 = 100
    VSE32 = 101

    # --- vector arithmetic / permutation ---
    VADD_VX = 110
    VADD_VI = 111
    VADD_VV = 112
    VMUL_VX = 113
    VFMACC_VF = 114
    VFMACC_VV = 115
    VFMUL_VF = 116
    VSLIDE1DOWN_VX = 120
    VSLIDEDOWN_VX = 121
    VSLIDEDOWN_VI = 122
    VMV_V_I = 130
    VMV_V_X = 131
    VMV_V_V = 132
    VMV_X_S = 133
    VFMV_F_S = 134
    VFMV_S_F = 135

    # --- the proposed instruction (paper Section III-A) ---
    VINDEXMAC_VX = 150

    # --- wider RVV subset (general-purpose vector machine) ---
    VSUB_VV = 160
    VSUB_VX = 161
    VRSUB_VX = 162
    VRSUB_VI = 163
    VAND_VV = 164
    VAND_VX = 165
    VOR_VV = 166
    VOR_VX = 167
    VXOR_VV = 168
    VXOR_VX = 169
    VMIN_VV = 170
    VMIN_VX = 171
    VMINU_VV = 172
    VMINU_VX = 173
    VMAX_VV = 174
    VMAX_VX = 175
    VMAXU_VV = 176
    VMAXU_VX = 177
    VMUL_VV = 178
    VMACC_VV = 179
    VMACC_VX = 180
    VREDSUM_VS = 181
    VFADD_VV = 182
    VFADD_VF = 183
    VFSUB_VV = 184
    VFSUB_VF = 185
    VFMUL_VV = 186
    VFREDUSUM_VS = 187
    VSLIDEUP_VX = 188
    VSLIDEUP_VI = 189
    VSLIDE1UP_VX = 190
    VMV_S_X = 191
    VID_V = 192


# ----------------------------------------------------------------------
# encoding vocabulary (RVV 1.0 for the vector major opcode)
# ----------------------------------------------------------------------
OPC_OP = 0b0110011
OPC_OP_IMM = 0b0010011
OPC_LUI = 0b0110111
OPC_AUIPC = 0b0010111
OPC_LOAD = 0b0000011
OPC_STORE = 0b0100011
OPC_LOAD_FP = 0b0000111
OPC_STORE_FP = 0b0100111
OPC_BRANCH = 0b1100011
OPC_JAL = 0b1101111
OPC_JALR = 0b1100111
OPC_OP_V = 0b1010111

# OP-V funct3 dispatch values (RVV 1.0 Table "OP-V instruction formats").
OPIVV = 0b000
OPFVV = 0b001
OPMVV = 0b010
OPIVI = 0b011
OPIVX = 0b100
OPFVF = 0b101
OPMVX = 0b110
OPCFG = 0b111  # vsetvli

#: funct6 assigned to the proposed instruction (an unused slot in RVV
#: 1.0; see :mod:`repro.isa.encoding`).
VINDEXMAC_FUNCT6 = 0b101110

#: Word bit of each register field: rd/vd [11:7], rs1/vs1 [19:15],
#: rs2/vs2 [24:20].
_FIELD_SHIFTS = {"rd": 7, "vd": 7, "rs1": 15, "vs1": 15, "rs2": 20, "vs2": 20}


class Imm(NamedTuple):
    """An immediate form: its range and where its bits sit in the word.

    ``segments`` are ``(immediate bit, width, word bit)`` runs.  ``step``
    is 2 for the pc-relative offsets of branches and ``jal``, which the
    assembler also accepts as labels.
    """

    width: int
    signed: bool
    segments: tuple
    step: int = 1

    @property
    def lo(self) -> int:
        return -(1 << (self.width - 1)) if self.signed else 0

    @property
    def hi(self) -> int:
        return (1 << (self.width - 1)) - 1 if self.signed \
            else (1 << self.width) - 1

    def problem(self, value: int) -> str | None:
        """Why ``value`` cannot be encoded, or ``None`` if it can."""
        if not self.lo <= value <= self.hi:
            kind = "signed" if self.signed else "unsigned"
            return (f"{value} out of {kind} {self.width}-bit range "
                    f"[{self.lo}, {self.hi}]")
        if value % self.step:
            return f"{value} is not a multiple of {self.step}"
        return None

    def place(self, value: int) -> int:
        """The word bits holding ``value`` (``place(-1)`` marks them)."""
        word = 0
        for at, width, to in self.segments:
            word |= (value >> at & (1 << width) - 1) << to
        return word

    def extract(self, word: int) -> int:
        """The immediate ``word`` holds."""
        value = 0
        for at, width, to in self.segments:
            value |= (word >> to & (1 << width) - 1) << at
        if self.signed and value >> (self.width - 1):
            value -= 1 << self.width
        return value


_I = Imm(12, True, ((0, 12, 20),))
_S = Imm(12, True, ((0, 5, 7), (5, 7, 25)))
_B = Imm(13, True, ((1, 4, 8), (5, 6, 25), (11, 1, 7), (12, 1, 31)), 2)
_U = Imm(20, False, ((0, 20, 12),))
_J = Imm(21, True, ((1, 10, 21), (11, 1, 20), (12, 8, 12), (20, 1, 31)), 2)
_SHAMT = Imm(6, False, ((0, 6, 20),))
_VTYPE = Imm(11, False, ((0, 11, 20),))
_SIMM5 = Imm(5, True, ((0, 5, 15),))
_UIMM5 = Imm(5, False, ((0, 5, 15),))


# Each instruction format's fixed bits and immediate form.
def _r(funct7, funct3):
    return funct7 << 25 | funct3 << 12 | OPC_OP, None


def _i(funct3, opcode=OPC_OP_IMM):
    return funct3 << 12 | opcode, _I


def _shift(funct6, funct3):
    return funct6 << 26 | funct3 << 12 | OPC_OP_IMM, _SHAMT


def _s(funct3, opcode=OPC_STORE):
    return funct3 << 12 | opcode, _S


def _b(funct3):
    return funct3 << 12 | OPC_BRANCH, _B


def _vmem(opcode):
    """Unit stride, unmasked, 32-bit elements: ``nf``, ``mew``, ``mop``
    and ``lumop``/``sumop`` are 0, ``vm`` is 1, the width is 0b110."""
    return 1 << 25 | 0b110 << 12 | opcode, None


def _opv(funct6, funct3, vs1=0, imm=_SIMM5):
    """OP-V arithmetic, unmasked (``vm`` = 1).  ``vs1`` fixes that field
    where a unary form uses it as a function selector; an OPIVI form
    takes ``imm``."""
    return (funct6 << 26 | 1 << 25 | vs1 << 15 | funct3 << 12 | OPC_OP_V,
            imm if funct3 == OPIVI else None)


def operand_register(token: str):
    """``(file, field)`` of the register a form operand names, or
    ``None`` for ``imm``: ``fs1`` is ``("f", "rs1")``, a store's ``vs3``
    is ``("v", "vd")``, and ``imm(xs1)`` and ``(xs1)`` name
    ``("x", "rs1")``."""
    reg = token[token.find("(") + 1:].rstrip(")")
    if reg == "imm":
        return None
    file, role = reg[0], reg[1:]
    return file, ("v" if file == "v" else "r") + \
        ("d" if role == "s3" else role)


class OpSpec:
    """One row of :data:`OPCODES`.

    Given per row:

    * ``name`` and ``operands``: the mnemonic and the typed operands of
      the assembly form (``xd``, ``fs1``, ``vs2``, ``imm``, ``imm(xs1)``,
      ``(xs1)`` ...), in assembly order;
    * ``match``: the word's fixed bits; ``imm``: the :class:`Imm` form,
      or ``None``;
    * ``timing``: the processor's timing class (:data:`VECTOR_CLASSES`
      lists the vector engine's; the scalar core's are ``alu``, ``mul``,
      ``load``, ``store``, ``branch``, ``jump`` and ``vsetvli``);
    * ``accumulate``: the op adds into ``vd``; ``partial``: it writes
      part of ``vd`` and the rest keeps its value.  Either way ``vd`` is
      also a source;
    * ``access``: a scalar memory access as a little-endian NumPy type
      (``"<i4"`` for ``lw``: 4 bytes, sign-extended);
    * ``fn``: for an element-wise vector op, ``(view, function)``, with
      ``vd[i] = function(vs2[i], b)`` over ``i32``, ``u32`` or ``f32``
      elements, where ``b`` is ``vs1[i]`` or the form's scalar or
      immediate.

    Derived: ``regs`` maps each register field to its file, ``dest`` is
    the field written (``None`` for stores and branches), ``fields``
    pairs each register field with its word bit, ``mask`` marks the
    fixed bits and ``size`` is the byte count of ``access``.
    """

    __slots__ = ("op", "name", "operands", "match", "imm", "timing",
                 "accumulate", "partial", "access", "fn", "regs", "dest",
                 "fields", "mask", "size")

    def __init__(self, op, form, encoding, timing, accumulate=False,
                 partial=False, access=None, fn=None):
        self.op = op
        self.name, _, rest = form.partition(" ")
        self.operands = tuple(token.strip() for token in rest.split(",")) \
            if rest else ()
        self.match, self.imm = encoding
        self.timing = timing
        self.accumulate = accumulate
        self.partial = partial
        self.access = access
        self.fn = fn
        self.regs = {}
        self.dest = None
        for token in self.operands:
            reg = operand_register(token)
            if reg is not None:
                file, field = reg
                self.regs[field] = file
                if token.endswith("d"):
                    self.dest = field
        self.fields = tuple((field, _FIELD_SHIFTS[field])
                            for field in self.regs)
        used = self.imm.place(-1) if self.imm else 0
        for _, shift in self.fields:
            used |= 0x1F << shift
        self.mask = 0xFFFFFFFF & ~used
        self.size = np.dtype(access).itemsize if access else None

    def __repr__(self) -> str:
        return f"OpSpec({self.name} {', '.join(self.operands)})"


def _rsub(a, b):
    return b - a


_add, _sub, _mul = operator.add, operator.sub, operator.mul
_and, _or, _xor = operator.and_, operator.or_, operator.xor
_min, _max = np.minimum, np.maximum

#: The opcode table: one :class:`OpSpec` row per :class:`Op`.
OPCODES = {spec.op: spec for spec in (
    # --- RV64IM scalar ALU ---
    OpSpec(Op.ADD, "add xd, xs1, xs2", _r(0b0000000, 0b000), "alu"),
    OpSpec(Op.SUB, "sub xd, xs1, xs2", _r(0b0100000, 0b000), "alu"),
    OpSpec(Op.AND, "and xd, xs1, xs2", _r(0b0000000, 0b111), "alu"),
    OpSpec(Op.OR, "or xd, xs1, xs2", _r(0b0000000, 0b110), "alu"),
    OpSpec(Op.XOR, "xor xd, xs1, xs2", _r(0b0000000, 0b100), "alu"),
    OpSpec(Op.SLL, "sll xd, xs1, xs2", _r(0b0000000, 0b001), "alu"),
    OpSpec(Op.SRL, "srl xd, xs1, xs2", _r(0b0000000, 0b101), "alu"),
    OpSpec(Op.SRA, "sra xd, xs1, xs2", _r(0b0100000, 0b101), "alu"),
    OpSpec(Op.SLT, "slt xd, xs1, xs2", _r(0b0000000, 0b010), "alu"),
    OpSpec(Op.SLTU, "sltu xd, xs1, xs2", _r(0b0000000, 0b011), "alu"),
    OpSpec(Op.MUL, "mul xd, xs1, xs2", _r(0b0000001, 0b000), "mul"),
    OpSpec(Op.ADDI, "addi xd, xs1, imm", _i(0b000), "alu"),
    OpSpec(Op.ANDI, "andi xd, xs1, imm", _i(0b111), "alu"),
    OpSpec(Op.ORI, "ori xd, xs1, imm", _i(0b110), "alu"),
    OpSpec(Op.XORI, "xori xd, xs1, imm", _i(0b100), "alu"),
    OpSpec(Op.SLLI, "slli xd, xs1, imm", _shift(0b000000, 0b001), "alu"),
    OpSpec(Op.SRLI, "srli xd, xs1, imm", _shift(0b000000, 0b101), "alu"),
    OpSpec(Op.SRAI, "srai xd, xs1, imm", _shift(0b010000, 0b101), "alu"),
    OpSpec(Op.SLTI, "slti xd, xs1, imm", _i(0b010), "alu"),
    OpSpec(Op.SLTIU, "sltiu xd, xs1, imm", _i(0b011), "alu"),
    OpSpec(Op.LUI, "lui xd, imm", (OPC_LUI, _U), "alu"),
    OpSpec(Op.AUIPC, "auipc xd, imm", (OPC_AUIPC, _U), "alu"),
    # --- scalar memory ---
    OpSpec(Op.LB, "lb xd, imm(xs1)", _i(0b000, OPC_LOAD), "load",
           access="<i1"),
    OpSpec(Op.LBU, "lbu xd, imm(xs1)", _i(0b100, OPC_LOAD), "load",
           access="<u1"),
    OpSpec(Op.LH, "lh xd, imm(xs1)", _i(0b001, OPC_LOAD), "load",
           access="<i2"),
    OpSpec(Op.LHU, "lhu xd, imm(xs1)", _i(0b101, OPC_LOAD), "load",
           access="<u2"),
    OpSpec(Op.LW, "lw xd, imm(xs1)", _i(0b010, OPC_LOAD), "load",
           access="<i4"),
    OpSpec(Op.LWU, "lwu xd, imm(xs1)", _i(0b110, OPC_LOAD), "load",
           access="<u4"),
    OpSpec(Op.LD, "ld xd, imm(xs1)", _i(0b011, OPC_LOAD), "load",
           access="<i8"),
    OpSpec(Op.SB, "sb xs2, imm(xs1)", _s(0b000), "store", access="<u1"),
    OpSpec(Op.SH, "sh xs2, imm(xs1)", _s(0b001), "store", access="<u2"),
    OpSpec(Op.SW, "sw xs2, imm(xs1)", _s(0b010), "store", access="<u4"),
    OpSpec(Op.SD, "sd xs2, imm(xs1)", _s(0b011), "store", access="<u8"),
    OpSpec(Op.FLW, "flw fd, imm(xs1)", _i(0b010, OPC_LOAD_FP), "load",
           access="<f4"),
    OpSpec(Op.FSW, "fsw fs2, imm(xs1)", _s(0b010, OPC_STORE_FP), "store",
           access="<f4"),
    # --- control flow ---
    OpSpec(Op.BEQ, "beq xs1, xs2, imm", _b(0b000), "branch"),
    OpSpec(Op.BNE, "bne xs1, xs2, imm", _b(0b001), "branch"),
    OpSpec(Op.BLT, "blt xs1, xs2, imm", _b(0b100), "branch"),
    OpSpec(Op.BGE, "bge xs1, xs2, imm", _b(0b101), "branch"),
    OpSpec(Op.BLTU, "bltu xs1, xs2, imm", _b(0b110), "branch"),
    OpSpec(Op.BGEU, "bgeu xs1, xs2, imm", _b(0b111), "branch"),
    OpSpec(Op.JAL, "jal xd, imm", (OPC_JAL, _J), "jump"),
    OpSpec(Op.JALR, "jalr xd, xs1, imm", _i(0b000, OPC_JALR), "jump"),
    # --- vector configuration and memory ---
    OpSpec(Op.VSETVLI, "vsetvli xd, xs1, imm", (OPCFG << 12 | OPC_OP_V,
                                                 _VTYPE), "vsetvli"),
    OpSpec(Op.VLE32, "vle32.v vd, (xs1)", _vmem(OPC_LOAD_FP), "vload"),
    OpSpec(Op.VSE32, "vse32.v vs3, (xs1)", _vmem(OPC_STORE_FP), "vstore"),
    # --- vector arithmetic and permutation ---
    OpSpec(Op.VADD_VX, "vadd.vx vd, vs2, xs1", _opv(0b000000, OPIVX), "valu",
           fn=("i32", _add)),
    OpSpec(Op.VADD_VI, "vadd.vi vd, vs2, imm", _opv(0b000000, OPIVI), "valu",
           fn=("i32", _add)),
    OpSpec(Op.VADD_VV, "vadd.vv vd, vs2, vs1", _opv(0b000000, OPIVV), "valu",
           fn=("i32", _add)),
    OpSpec(Op.VMUL_VX, "vmul.vx vd, vs2, xs1", _opv(0b100101, OPMVX), "valu",
           fn=("i32", _mul)),
    OpSpec(Op.VFMACC_VF, "vfmacc.vf vd, fs1, vs2", _opv(0b101100, OPFVF),
           "vfmacc", accumulate=True),
    OpSpec(Op.VFMACC_VV, "vfmacc.vv vd, vs1, vs2", _opv(0b101100, OPFVV),
           "vfmacc", accumulate=True),
    OpSpec(Op.VFMUL_VF, "vfmul.vf vd, vs2, fs1", _opv(0b100100, OPFVF),
           "vmac", fn=("f32", _mul)),
    OpSpec(Op.VSLIDE1DOWN_VX, "vslide1down.vx vd, vs2, xs1",
           _opv(0b001111, OPMVX), "vslide"),
    OpSpec(Op.VSLIDEDOWN_VX, "vslidedown.vx vd, vs2, xs1",
           _opv(0b001111, OPIVX), "vslide"),
    OpSpec(Op.VSLIDEDOWN_VI, "vslidedown.vi vd, vs2, imm",
           _opv(0b001111, OPIVI, imm=_UIMM5), "vslide"),
    OpSpec(Op.VMV_V_I, "vmv.v.i vd, imm", _opv(0b010111, OPIVI), "vmove"),
    OpSpec(Op.VMV_V_X, "vmv.v.x vd, xs1", _opv(0b010111, OPIVX), "vmove"),
    OpSpec(Op.VMV_V_V, "vmv.v.v vd, vs1", _opv(0b010111, OPIVV), "vmove"),
    OpSpec(Op.VMV_X_S, "vmv.x.s xd, vs2", _opv(0b010000, OPMVV), "v2s"),
    OpSpec(Op.VFMV_F_S, "vfmv.f.s fd, vs2", _opv(0b010000, OPFVV), "v2s"),
    OpSpec(Op.VFMV_S_F, "vfmv.s.f vd, fs1", _opv(0b010000, OPFVF), "vmove",
           partial=True),
    # --- the proposed instruction (paper Section III-A) ---
    OpSpec(Op.VINDEXMAC_VX, "vindexmac.vx vd, vs2, xs1",
           _opv(VINDEXMAC_FUNCT6, OPMVX), "vindexmac", accumulate=True),
    # --- wider RVV subset ---
    OpSpec(Op.VSUB_VV, "vsub.vv vd, vs2, vs1", _opv(0b000010, OPIVV), "valu",
           fn=("i32", _sub)),
    OpSpec(Op.VSUB_VX, "vsub.vx vd, vs2, xs1", _opv(0b000010, OPIVX), "valu",
           fn=("i32", _sub)),
    OpSpec(Op.VRSUB_VX, "vrsub.vx vd, vs2, xs1", _opv(0b000011, OPIVX),
           "valu", fn=("i32", _rsub)),
    OpSpec(Op.VRSUB_VI, "vrsub.vi vd, vs2, imm", _opv(0b000011, OPIVI),
           "valu", fn=("i32", _rsub)),
    OpSpec(Op.VAND_VV, "vand.vv vd, vs2, vs1", _opv(0b001001, OPIVV), "valu",
           fn=("i32", _and)),
    OpSpec(Op.VAND_VX, "vand.vx vd, vs2, xs1", _opv(0b001001, OPIVX), "valu",
           fn=("i32", _and)),
    OpSpec(Op.VOR_VV, "vor.vv vd, vs2, vs1", _opv(0b001010, OPIVV), "valu",
           fn=("i32", _or)),
    OpSpec(Op.VOR_VX, "vor.vx vd, vs2, xs1", _opv(0b001010, OPIVX), "valu",
           fn=("i32", _or)),
    OpSpec(Op.VXOR_VV, "vxor.vv vd, vs2, vs1", _opv(0b001011, OPIVV), "valu",
           fn=("i32", _xor)),
    OpSpec(Op.VXOR_VX, "vxor.vx vd, vs2, xs1", _opv(0b001011, OPIVX), "valu",
           fn=("i32", _xor)),
    OpSpec(Op.VMIN_VV, "vmin.vv vd, vs2, vs1", _opv(0b000101, OPIVV), "valu",
           fn=("i32", _min)),
    OpSpec(Op.VMIN_VX, "vmin.vx vd, vs2, xs1", _opv(0b000101, OPIVX), "valu",
           fn=("i32", _min)),
    OpSpec(Op.VMINU_VV, "vminu.vv vd, vs2, vs1", _opv(0b000100, OPIVV),
           "valu", fn=("u32", _min)),
    OpSpec(Op.VMINU_VX, "vminu.vx vd, vs2, xs1", _opv(0b000100, OPIVX),
           "valu", fn=("u32", _min)),
    OpSpec(Op.VMAX_VV, "vmax.vv vd, vs2, vs1", _opv(0b000111, OPIVV), "valu",
           fn=("i32", _max)),
    OpSpec(Op.VMAX_VX, "vmax.vx vd, vs2, xs1", _opv(0b000111, OPIVX), "valu",
           fn=("i32", _max)),
    OpSpec(Op.VMAXU_VV, "vmaxu.vv vd, vs2, vs1", _opv(0b000110, OPIVV),
           "valu", fn=("u32", _max)),
    OpSpec(Op.VMAXU_VX, "vmaxu.vx vd, vs2, xs1", _opv(0b000110, OPIVX),
           "valu", fn=("u32", _max)),
    OpSpec(Op.VMUL_VV, "vmul.vv vd, vs2, vs1", _opv(0b100101, OPMVV), "valu",
           fn=("i32", _mul)),
    OpSpec(Op.VMACC_VV, "vmacc.vv vd, vs1, vs2", _opv(0b101101, OPMVV),
           "vmac", accumulate=True),
    OpSpec(Op.VMACC_VX, "vmacc.vx vd, xs1, vs2", _opv(0b101101, OPMVX),
           "vmac", accumulate=True),
    OpSpec(Op.VREDSUM_VS, "vredsum.vs vd, vs2, vs1", _opv(0b000000, OPMVV),
           "vred", partial=True),
    OpSpec(Op.VFADD_VV, "vfadd.vv vd, vs2, vs1", _opv(0b000000, OPFVV),
           "vmac", fn=("f32", _add)),
    OpSpec(Op.VFADD_VF, "vfadd.vf vd, vs2, fs1", _opv(0b000000, OPFVF),
           "vmac", fn=("f32", _add)),
    OpSpec(Op.VFSUB_VV, "vfsub.vv vd, vs2, vs1", _opv(0b000010, OPFVV),
           "vmac", fn=("f32", _sub)),
    OpSpec(Op.VFSUB_VF, "vfsub.vf vd, vs2, fs1", _opv(0b000010, OPFVF),
           "vmac", fn=("f32", _sub)),
    OpSpec(Op.VFMUL_VV, "vfmul.vv vd, vs2, vs1", _opv(0b100100, OPFVV),
           "vmac", fn=("f32", _mul)),
    OpSpec(Op.VFREDUSUM_VS, "vfredusum.vs vd, vs2, vs1",
           _opv(0b000001, OPFVV), "vred", partial=True),
    OpSpec(Op.VSLIDEUP_VX, "vslideup.vx vd, vs2, xs1", _opv(0b001110, OPIVX),
           "vslide", partial=True),
    OpSpec(Op.VSLIDEUP_VI, "vslideup.vi vd, vs2, imm",
           _opv(0b001110, OPIVI, imm=_UIMM5), "vslide", partial=True),
    OpSpec(Op.VSLIDE1UP_VX, "vslide1up.vx vd, vs2, xs1",
           _opv(0b001110, OPMVX), "vslide"),
    OpSpec(Op.VMV_S_X, "vmv.s.x vd, xs1", _opv(0b010000, OPMVX), "vmove",
           partial=True),
    # vid.v: VMUNARY0 selects the function in vs1
    OpSpec(Op.VID_V, "vid.v vd", _opv(0b010100, OPMVV, vs1=0b10001), "valu"),
)}

#: The vector engine's timing classes.
VECTOR_CLASSES = frozenset({"vload", "vstore", "valu", "vmac", "vfmacc",
                            "vred", "vslide", "vmove", "v2s", "vindexmac"})


def _ops(*timing) -> frozenset:
    return frozenset(op for op, spec in OPCODES.items()
                     if spec.timing in timing)


#: Ops executed by the vector engine (including vector memory and moves;
#: ``vsetvli`` configures it but is timed by the scalar core).
VECTOR_OPS = _ops("vsetvli", *VECTOR_CLASSES)

#: Ops whose result register is a vector register.
VECTOR_DEST_OPS = frozenset(op for op, spec in OPCODES.items()
                            if spec.dest == "vd")

#: Vector ops that move a value from the vector engine back to the scalar
#: core.  These are the costly round-trips in a decoupled design.
VECTOR_TO_SCALAR_OPS = _ops("v2s")

#: Vector ops that access memory.
VECTOR_MEM_OPS = _ops("vload", "vstore")

#: Scalar ops that access memory.
SCALAR_LOAD_OPS = _ops("load")
SCALAR_STORE_OPS = _ops("store")

#: Control-flow ops.
BRANCH_OPS = _ops("branch", "jump")


class Instr:
    """A single decoded instruction.

    The record is deliberately flat; unused operand slots hold 0.  Use
    the constructor helpers of :class:`I` (or the assembler) to create
    instances with the right operand slots filled in.
    """

    __slots__ = ("op", "rd", "rs1", "rs2", "imm", "vd", "vs1", "vs2")

    def __init__(self, op, rd=0, rs1=0, rs2=0, imm=0, vd=0, vs1=0, vs2=0):
        self.op = op
        self.rd = rd
        self.rs1 = rs1
        self.rs2 = rs2
        self.imm = imm
        self.vd = vd
        self.vs1 = vs1
        self.vs2 = vs2

    # ------------------------------------------------------------------
    def key(self) -> tuple:
        """Hashable identity of the instruction (used in tests)."""
        return (self.op, self.rd, self.rs1, self.rs2, self.imm,
                self.vd, self.vs1, self.vs2)

    def __eq__(self, other) -> bool:
        return isinstance(other, Instr) and self.key() == other.key()

    def __hash__(self) -> int:
        return hash(self.key())

    def __repr__(self) -> str:
        return f"Instr({self.asm()})"

    # ------------------------------------------------------------------
    def asm(self) -> str:
        """Render the canonical assembly text of this instruction."""
        # Imported lazily to avoid a circular import at module load time.
        from repro.isa.disassembler import format_instr

        return format_instr(self)


def _x(idx_or_name) -> int:
    if isinstance(idx_or_name, str):
        return _regs.x_reg(idx_or_name)
    return int(idx_or_name)


def _f(idx_or_name) -> int:
    if isinstance(idx_or_name, str):
        return _regs.f_reg(idx_or_name)
    return int(idx_or_name)


def _v(idx_or_name) -> int:
    if isinstance(idx_or_name, str):
        return _regs.v_reg(idx_or_name)
    return int(idx_or_name)


def constructor_name(op: Op) -> str:
    """The name of ``op``'s :class:`I` helper: the lowercase opcode
    name, with ``_`` after a Python keyword (``I.and_``)."""
    name = op.name.lower()
    return name + "_" if keyword.iskeyword(name) else name


@functools.cache
def _factory(source: str):
    """Compile one constructor shape once (23 shapes serve 96 rows)."""
    namespace = {"Instr": Instr, "_x": _x, "_f": _f, "_v": _v}
    exec(source, namespace)
    return namespace["factory"]


def _constructor(spec: OpSpec):
    """``spec``'s :class:`I` helper.  It takes the form's operands in
    order, a memory operand as ``rs1, imm=0``.  The helper is compiled
    from source, so it costs what a hand-written one does."""
    params, args = [], []
    for token in spec.operands:
        reg = operand_register(token)
        if reg is not None:
            file, field = reg
            param = "vs3" if token == "vs3" else field
            params.append(param)
            args.append(f"{field}=_{file}({param})")
        if "imm" in token:
            params.append("imm=0" if "(" in token else "imm")
            args.append("imm=int(imm)")
    make = _factory(f"def factory(op):\n"
                    f"    def make({', '.join(params)}):\n"
                    f"        return Instr(op, {', '.join(args)})\n"
                    f"    return make\n")(spec.op)
    make.__name__ = make.__qualname__ = constructor_name(spec.op)
    return make


class I:
    """Constructor helpers: ``I.addi("t0", "t0", 4)``, ``I.vle32(4, "a1")``.

    Each :data:`OPCODES` row has one (see :func:`constructor_name`),
    taking the operands of its assembly form in order; register operands
    accept integer indices or ABI names.  ``li``, ``mv`` and ``nop`` are
    the pseudo-instructions.  The class only namespaces the helpers; it
    is never instantiated.
    """

    @staticmethod
    def li(rd, imm):
        """Pseudo-instruction: materialise a small constant (``addi rd,x0``)."""
        return Instr(Op.ADDI, rd=_x(rd), rs1=0, imm=int(imm))

    @staticmethod
    def mv(rd, rs1):
        """Pseudo-instruction: register copy (``addi rd, rs1, 0``)."""
        return Instr(Op.ADDI, rd=_x(rd), rs1=_x(rs1), imm=0)

    @staticmethod
    def nop():
        return Instr(Op.ADDI, rd=0, rs1=0, imm=0)


for _spec in OPCODES.values():
    setattr(I, constructor_name(_spec.op), staticmethod(_constructor(_spec)))
del _spec
