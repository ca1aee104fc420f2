"""Bit-exact functional semantics of the RV64IM + RVV subset.

This module is the single source of truth for *what every instruction
does* to architectural state — scalar/FP/vector registers and memory —
with no notion of time.  Element-wise vector ops apply the element
function of their :data:`~repro.isa.instructions.OPCODES` row and
scalar memory ops its access type; the scalar ALU and the branches
have their own lambdas, and every other opcode runs the method named
after it (``_vfmacc_vf``).
:class:`repro.arch.processor.DecoupledProcessor` composes a
:class:`FunctionalCore` with the timing model, and the
``batch-replay`` timing backend drives the core directly to execute
the iterations it does not time, so kernel results stay bit-exact no
matter which backend produced the cycle numbers.

Control flow mirrors the processor's trace-mode contract: handlers
return ``None`` for straight-line instructions, a byte offset for a
taken branch, ``("jump", imm)`` for ``jal`` and ``("jump_abs", target)``
for ``jalr`` (link registers are patched by the ISS, which knows the
program counter).
"""

from __future__ import annotations

import hashlib
import operator

import numpy as np

from repro.arch.config import ProcessorConfig
from repro.arch.memory import FlatMemory
from repro.arch.regfile import FpRegisterFile, IntRegisterFile, to_unsigned64
from repro.arch.vrf import VectorRegisterFile
from repro.errors import SimulationError
from repro.isa.instructions import (
    OPCODES,
    SCALAR_LOAD_OPS,
    SCALAR_STORE_OPS,
    Instr,
    Op,
)


def _i32(value: int) -> np.int32:
    """Truncate a Python int to a signed 32-bit numpy scalar."""
    value &= 0xFFFFFFFF
    if value >= 0x80000000:
        value -= 1 << 32
    return np.int32(value)


class FunctionalCore:
    """Architectural state + bit-exact execution, no timing."""

    def __init__(self, config: ProcessorConfig | None = None,
                 memory: FlatMemory | None = None):
        self.config = config or ProcessorConfig.paper_default()
        self.mem = memory or FlatMemory(self.config.memory_bytes)
        self.xrf = IntRegisterFile()
        self.frf = FpRegisterFile()
        vcfg = self.config.vector
        self.vrf = VectorRegisterFile(vcfg.num_vregs, vcfg.vlmax)
        self._vl = None
        self.vl = vcfg.vlmax
        self.handlers = self._build_handlers()

    # ==================================================================
    # public API
    # ==================================================================
    def execute(self, instr: Instr):
        """Execute one instruction; returns control-flow info."""
        return self.handlers[instr.op](instr)

    def run(self, stream) -> None:
        """Execute a dynamic stream functionally (trace mode)."""
        handlers = self.handlers
        for instr in stream:
            handlers[instr.op](instr)

    def state_fingerprint(self) -> str:
        """Digest over all architectural state (registers + memory).

        Two cores that ran the same program through different replay
        strategies must produce identical fingerprints; the
        batch-replay equivalence tests gate on this.
        """
        digest = hashlib.sha256()
        digest.update(np.array(self.xrf.values, dtype=np.int64).tobytes())
        digest.update(np.array(self.frf.values, dtype=np.float64).tobytes())
        digest.update(self.vrf.raw.tobytes())
        digest.update(np.int64(self.vl).tobytes())
        digest.update(self.mem._buf.tobytes())
        return digest.hexdigest()

    # ==================================================================
    # handler construction
    # ==================================================================
    def _build_handlers(self):
        h = {}
        # scalar ALU register-register
        h[Op.ADD] = self._make_alu_rr(lambda a, b: a + b)
        h[Op.SUB] = self._make_alu_rr(lambda a, b: a - b)
        h[Op.AND] = self._make_alu_rr(lambda a, b: a & b)
        h[Op.OR] = self._make_alu_rr(lambda a, b: a | b)
        h[Op.XOR] = self._make_alu_rr(lambda a, b: a ^ b)
        h[Op.SLL] = self._make_alu_rr(lambda a, b: a << (b & 63))
        h[Op.SRL] = self._make_alu_rr(
            lambda a, b: to_unsigned64(a) >> (b & 63))
        h[Op.SRA] = self._make_alu_rr(lambda a, b: a >> (b & 63))
        h[Op.SLT] = self._make_alu_rr(lambda a, b: int(a < b))
        h[Op.SLTU] = self._make_alu_rr(
            lambda a, b: int(to_unsigned64(a) < to_unsigned64(b)))
        h[Op.MUL] = self._make_alu_rr(lambda a, b: a * b)
        # scalar ALU immediate
        h[Op.ADDI] = self._make_alu_ri(lambda a, i: a + i)
        h[Op.ANDI] = self._make_alu_ri(lambda a, i: a & i)
        h[Op.ORI] = self._make_alu_ri(lambda a, i: a | i)
        h[Op.XORI] = self._make_alu_ri(lambda a, i: a ^ i)
        h[Op.SLLI] = self._make_alu_ri(lambda a, i: a << i)
        h[Op.SRLI] = self._make_alu_ri(lambda a, i: to_unsigned64(a) >> i)
        h[Op.SRAI] = self._make_alu_ri(lambda a, i: a >> i)
        h[Op.SLTI] = self._make_alu_ri(lambda a, i: int(a < i))
        h[Op.SLTIU] = self._make_alu_ri(
            lambda a, i: int(to_unsigned64(a) < to_unsigned64(i)))
        # scalar memory
        for op in SCALAR_LOAD_OPS:
            h[op] = self._make_load(np.dtype(OPCODES[op].access))
        for op in SCALAR_STORE_OPS:
            h[op] = self._make_store(np.dtype(OPCODES[op].access))
        for op in self._BRANCH_FNS:
            h[op] = self._branch
        # the rest: element-wise rows, and one method per other opcode,
        # named after it (``_vfmacc_vf`` runs ``Op.VFMACC_VF``)
        for op, spec in OPCODES.items():
            if op not in h:
                h[op] = self._make_elementwise(spec) if spec.fn \
                    else getattr(self, f"_{op.name.lower()}")
        return h

    # ==================================================================
    # scalar handlers
    # ==================================================================
    def _make_alu_rr(self, fn):
        def handler(instr: Instr):
            xv = self.xrf.values
            self.xrf.write(instr.rd, fn(xv[instr.rs1], xv[instr.rs2]))
            return None
        return handler

    def _make_alu_ri(self, fn):
        def handler(instr: Instr):
            self.xrf.write(instr.rd, fn(self.xrf.values[instr.rs1],
                                        instr.imm))
            return None
        return handler

    def _lui(self, instr: Instr):
        value = instr.imm << 12
        if value & 0x80000000:  # RV64: LUI sign-extends bit 31
            value -= 1 << 32
        self.xrf.write(instr.rd, value)
        return None

    _auipc = _lui  # pc-relative not used in trace mode

    def _make_load(self, access: np.dtype):
        """A scalar load of ``access``: an integer sign- or zero-extends
        into ``x[rd]``, a float goes to ``f[rd]``."""
        width = 8 * access.itemsize
        if access.kind == "f":
            load = getattr(self.mem, f"load_f{width}")

            def handler(instr: Instr):
                self.frf.write(instr.rd,
                               load(self.xrf.values[instr.rs1] + instr.imm))
                return None
            return handler
        load = getattr(self.mem, f"load_u{width}")
        sign = 1 << (width - 1) if access.kind == "i" and width < 64 else 0

        def handler(instr: Instr):
            value = load(self.xrf.values[instr.rs1] + instr.imm)
            if value & sign:
                value -= sign << 1
            self.xrf.write(instr.rd, value)
            return None
        return handler

    def _make_store(self, access: np.dtype):
        """A scalar store of ``access`` from ``x[rs2]`` or ``f[rs2]``."""
        width = 8 * access.itemsize
        if access.kind == "f":
            store, source = getattr(self.mem, f"store_f{width}"), self.frf
        else:
            store, source = getattr(self.mem, f"store_u{width}"), self.xrf
        values = source.values

        def handler(instr: Instr):
            store(self.xrf.values[instr.rs1] + instr.imm, values[instr.rs2])
            return None
        return handler

    _BRANCH_FNS = {
        Op.BEQ: lambda a, b: a == b,
        Op.BNE: lambda a, b: a != b,
        Op.BLT: lambda a, b: a < b,
        Op.BGE: lambda a, b: a >= b,
        Op.BLTU: lambda a, b: to_unsigned64(a) < to_unsigned64(b),
        Op.BGEU: lambda a, b: to_unsigned64(a) >= to_unsigned64(b),
    }

    def _branch(self, instr: Instr):
        xv = self.xrf.values
        taken = self._BRANCH_FNS[instr.op](xv[instr.rs1], xv[instr.rs2])
        return instr.imm if taken else None

    def _jal(self, instr: Instr):
        # rd receives pc+4; the ISS patches the true value afterwards.
        return ("jump", instr.imm)

    def _jalr(self, instr: Instr):
        target = (self.xrf.values[instr.rs1] + instr.imm) & ~1
        return ("jump_abs", target)

    # ==================================================================
    # vector handlers
    #
    # Each handler works on the row views ``vr``/``vi``/``vf``: register
    # ``r`` seen as uint32/int32/float32, sliced to the active ``vl``.
    # ==================================================================
    @property
    def vl(self) -> int:
        """The active vector length."""
        return self._vl

    @vl.setter
    def vl(self, value: int) -> None:
        if value == self._vl:
            return
        self._vl = value
        vrf = self.vrf
        self.vr = [row[:value] for row in vrf.raw]
        self.vi = [row[:value] for row in vrf.i32]
        self.vf = [row[:value] for row in vrf.f32]

    def _vsetvli(self, instr: Instr):
        avl = self.xrf.values[instr.rs1]
        vlmax = self.config.vector.vlmax
        new_vl = vlmax if avl >= vlmax or avl < 0 else avl
        if new_vl <= 0:
            raise SimulationError("vsetvli selected a zero vector length")
        self.vl = new_vl
        self.xrf.write(instr.rd, new_vl)
        return None

    def _vle32(self, instr: Instr):
        self.vr[instr.vd][...] = self.mem.load_vec_u32(
            self.xrf.values[instr.rs1], self._vl)
        return None

    def _vse32(self, instr: Instr):
        self.mem.store_vec_u32(self.xrf.values[instr.rs1], self.vr[instr.vd])
        return None

    #: Row views of the element-wise types, and the conversion of a
    #: scalar operand to each.
    _VIEWS = {"i32": "vi", "u32": "vr", "f32": "vf"}
    _SCALARS = {"i32": _i32, "u32": lambda value: np.uint32(value & 0xFFFFFFFF),
                "f32": np.float32}

    def _make_elementwise(self, spec):
        """``vd[i] = fn(vs2[i], b)`` for an element-wise row, with ``b``
        from ``vs1``, the immediate, or the scalar operand ``xs1``/``fs1``
        (see :class:`~repro.isa.instructions.OpSpec`)."""
        view, fn = spec.fn
        rows = operator.attrgetter(self._VIEWS[view])
        second = spec.operands[-1]
        if second == "vs1":
            def handler(instr: Instr):
                v = rows(self)
                v[instr.vd][...] = fn(v[instr.vs2], v[instr.vs1])
                return None
        elif second == "imm":
            def handler(instr: Instr):
                v = rows(self)
                v[instr.vd][...] = fn(v[instr.vs2], np.int32(instr.imm))
                return None
        else:
            scalar = self._SCALARS[view]
            regs = (self.frf if second == "fs1" else self.xrf).values

            def handler(instr: Instr):
                v = rows(self)
                v[instr.vd][...] = fn(v[instr.vs2], scalar(regs[instr.rs1]))
                return None
        return handler

    def _vfmacc_vf(self, instr: Instr):
        vf = self.vf
        vf[instr.vd] += np.float32(self.frf.values[instr.rs1]) * vf[instr.vs2]
        return None

    def _vfmacc_vv(self, instr: Instr):
        vf = self.vf
        vf[instr.vd] += vf[instr.vs1] * vf[instr.vs2]
        return None

    def _vmacc_vv(self, instr: Instr):
        vi = self.vi
        vi[instr.vd] += vi[instr.vs1] * vi[instr.vs2]
        return None

    def _vmacc_vx(self, instr: Instr):
        vi = self.vi
        vi[instr.vd] += _i32(self.xrf.values[instr.rs1]) * vi[instr.vs2]
        return None

    def _vredsum_vs(self, instr: Instr):
        vi = self.vi
        total = int(vi[instr.vs1][0]) + int(vi[instr.vs2].sum(
            dtype=np.int64))
        vi[instr.vd][0] = _i32(total)
        return None

    def _vfredusum_vs(self, instr: Instr):
        vf = self.vf
        vf[instr.vd][0] = np.float32(
            vf[instr.vs1][0] + vf[instr.vs2].sum(dtype=np.float32))
        return None

    def _vslide1down_vx(self, instr: Instr):
        dst = self.vr[instr.vd]
        dst[:-1] = self.vr[instr.vs2][1:]
        dst[-1] = self.xrf.values[instr.rs1] & 0xFFFFFFFF
        return None

    def _vslidedown(self, instr: Instr, amount: int):
        """``vd[i] = vs2[i + amount]``, zero past ``vl``; ``amount`` is
        an unsigned XLEN value."""
        amount = to_unsigned64(amount)
        dst = self.vr[instr.vd]
        if amount >= self._vl:
            dst[...] = 0
        else:
            keep = self._vl - amount
            dst[:keep] = self.vr[instr.vs2][amount:]
            dst[keep:] = 0

    def _vslidedown_vx(self, instr: Instr):
        self._vslidedown(instr, self.xrf.values[instr.rs1])
        return None

    def _vslidedown_vi(self, instr: Instr):
        self._vslidedown(instr, instr.imm)
        return None

    def _vslideup(self, instr: Instr, amount: int):
        """``vd[i + amount] = vs2[i]``; elements below ``amount`` keep
        ``vd``; ``amount`` is an unsigned XLEN value."""
        amount = to_unsigned64(amount)
        if amount < self._vl:
            self.vr[instr.vd][amount:] = self.vr[instr.vs2][:self._vl - amount]

    def _vslideup_vx(self, instr: Instr):
        self._vslideup(instr, self.xrf.values[instr.rs1])
        return None

    def _vslideup_vi(self, instr: Instr):
        self._vslideup(instr, instr.imm)
        return None

    def _vslide1up_vx(self, instr: Instr):
        dst = self.vr[instr.vd]
        dst[1:] = self.vr[instr.vs2][:-1]
        dst[0] = self.xrf.values[instr.rs1] & 0xFFFFFFFF
        return None

    def _vmv_v_i(self, instr: Instr):
        self.vi[instr.vd][...] = np.int32(instr.imm)
        return None

    def _vmv_v_x(self, instr: Instr):
        self.vi[instr.vd][...] = _i32(self.xrf.values[instr.rs1])
        return None

    def _vmv_v_v(self, instr: Instr):
        self.vr[instr.vd][...] = self.vr[instr.vs1]
        return None

    def _vmv_s_x(self, instr: Instr):
        self.vr[instr.vd][0] = self.xrf.values[instr.rs1] & 0xFFFFFFFF
        return None

    def _vmv_x_s(self, instr: Instr):
        if instr.rd:  # an int32 needs no 64-bit wrap
            self.xrf.values[instr.rd] = int(self.vi[instr.vs2][0])
        return None

    def _vfmv_f_s(self, instr: Instr):
        self.frf.values[instr.rd] = float(self.vf[instr.vs2][0])
        return None

    def _vfmv_s_f(self, instr: Instr):
        self.vf[instr.vd][0] = np.float32(self.frf.values[instr.rs1])
        return None

    def _vid_v(self, instr: Instr):
        self.vi[instr.vd][...] = np.arange(self._vl, dtype=np.int32)
        return None

    def _vindexmac_vx(self, instr: Instr):
        """``vd[i] += vs2[0] * vrf[rs1[4:0]][i]`` (paper Section III-A)."""
        vf = self.vf
        vf[instr.vd] += vf[instr.vs2][0] * vf[self.xrf.values[instr.rs1]
                                              & 0x1F]
        return None
