"""Bit-exact functional semantics of the RV64IM + RVV subset.

This module is the single source of truth for *what every instruction
does* to architectural state — scalar/FP/vector registers and memory —
with no notion of time.  :class:`repro.arch.processor.DecoupledProcessor`
composes a :class:`FunctionalCore` with the timing model, and the
``compressed-replay`` timing backend drives the core directly to execute
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

import numpy as np

from repro.arch.config import ProcessorConfig
from repro.arch.memory import FlatMemory
from repro.arch.regfile import FpRegisterFile, IntRegisterFile, to_unsigned64
from repro.arch.vrf import VectorRegisterFile
from repro.errors import SimulationError
from repro.isa.instructions import Instr, Op


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
        h[Op.LUI] = self._lui
        h[Op.AUIPC] = self._lui  # pc-relative not used in trace mode
        # scalar memory
        for op in (Op.LB, Op.LBU, Op.LH, Op.LHU, Op.LW, Op.LWU, Op.LD):
            h[op] = self._scalar_load
        h[Op.FLW] = self._scalar_load_fp
        for op in (Op.SB, Op.SH, Op.SW, Op.SD):
            h[op] = self._scalar_store
        h[Op.FSW] = self._scalar_store_fp
        # control flow
        for op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU):
            h[op] = self._branch
        h[Op.JAL] = self._jal
        h[Op.JALR] = self._jalr
        # vector
        h[Op.VSETVLI] = self._vsetvli
        h[Op.VLE32] = self._vle32
        h[Op.VSE32] = self._vse32
        h[Op.VADD_VX] = self._make_vx_i32(lambda a, s: a + s)
        h[Op.VADD_VI] = self._make_vi_i32(lambda a, s: a + s)
        h[Op.VADD_VV] = self._make_vv_i32(lambda a, b: a + b)
        h[Op.VMUL_VX] = self._make_vx_i32(lambda a, s: a * s)
        h[Op.VFMACC_VF] = self._vfmacc_vf
        h[Op.VFMACC_VV] = self._vfmacc_vv
        h[Op.VFMUL_VF] = self._make_vf_f32(lambda a, s: a * s)
        h[Op.VSLIDE1DOWN_VX] = self._vslide1down_vx
        h[Op.VSLIDEDOWN_VX] = self._vslidedown_vx
        h[Op.VSLIDEDOWN_VI] = self._vslidedown_vi
        h[Op.VMV_V_I] = self._vmv_v_i
        h[Op.VMV_V_X] = self._vmv_v_x
        h[Op.VMV_V_V] = self._vmv_v_v
        h[Op.VMV_X_S] = self._vmv_x_s
        h[Op.VFMV_F_S] = self._vfmv_f_s
        h[Op.VFMV_S_F] = self._vfmv_s_f
        h[Op.VINDEXMAC_VX] = self._vindexmac_vx
        # wider RVV subset (elementwise, generated handlers)
        h[Op.VSUB_VV] = self._make_vv_i32(lambda a, b: a - b)
        h[Op.VSUB_VX] = self._make_vx_i32(lambda a, s: a - s)
        h[Op.VRSUB_VX] = self._make_vx_i32(lambda a, s: s - a)
        h[Op.VRSUB_VI] = self._make_vi_i32(lambda a, s: s - a)
        h[Op.VAND_VV] = self._make_vv_i32(lambda a, b: a & b)
        h[Op.VAND_VX] = self._make_vx_i32(lambda a, s: a & s)
        h[Op.VOR_VV] = self._make_vv_i32(lambda a, b: a | b)
        h[Op.VOR_VX] = self._make_vx_i32(lambda a, s: a | s)
        h[Op.VXOR_VV] = self._make_vv_i32(lambda a, b: a ^ b)
        h[Op.VXOR_VX] = self._make_vx_i32(lambda a, s: a ^ s)
        h[Op.VMIN_VV] = self._make_vv_i32(np.minimum)
        h[Op.VMIN_VX] = self._make_vx_i32(np.minimum)
        h[Op.VMAX_VV] = self._make_vv_i32(np.maximum)
        h[Op.VMAX_VX] = self._make_vx_i32(np.maximum)
        h[Op.VMINU_VV] = self._make_vv_u32(np.minimum)
        h[Op.VMINU_VX] = self._make_vx_u32(np.minimum)
        h[Op.VMAXU_VV] = self._make_vv_u32(np.maximum)
        h[Op.VMAXU_VX] = self._make_vx_u32(np.maximum)
        h[Op.VMUL_VV] = self._make_vv_i32(lambda a, b: a * b)
        h[Op.VMACC_VV] = self._vmacc_vv
        h[Op.VMACC_VX] = self._vmacc_vx
        h[Op.VREDSUM_VS] = self._vredsum_vs
        h[Op.VFADD_VV] = self._make_vv_f32(lambda a, b: a + b)
        h[Op.VFADD_VF] = self._make_vf_f32(lambda a, s: a + s)
        h[Op.VFSUB_VV] = self._make_vv_f32(lambda a, b: a - b)
        h[Op.VFSUB_VF] = self._make_vf_f32(lambda a, s: a - s)
        h[Op.VFMUL_VV] = self._make_vv_f32(lambda a, b: a * b)
        h[Op.VFREDUSUM_VS] = self._vfredusum_vs
        h[Op.VSLIDEUP_VX] = self._vslideup_vx
        h[Op.VSLIDEUP_VI] = self._vslideup_vi
        h[Op.VSLIDE1UP_VX] = self._vslide1up_vx
        h[Op.VMV_S_X] = self._vmv_s_x
        h[Op.VID_V] = self._vid_v
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

    _LOAD_SIZES = {
        Op.LB: (1, True), Op.LBU: (1, False), Op.LH: (2, True),
        Op.LHU: (2, False), Op.LW: (4, True), Op.LWU: (4, False),
        Op.LD: (8, True),
    }

    def _scalar_load(self, instr: Instr):
        addr = self.xrf.values[instr.rs1] + instr.imm
        size, signed = self._LOAD_SIZES[instr.op]
        mem = self.mem
        if size == 1:
            value = mem.load_u8(addr)
        elif size == 2:
            value = mem.load_u16(addr)
        elif size == 4:
            value = mem.load_u32(addr)
        else:
            value = mem.load_u64(addr)
        if signed and size < 8 and value & (1 << (8 * size - 1)):
            value -= 1 << (8 * size)
        self.xrf.write(instr.rd, value)
        return None

    def _scalar_load_fp(self, instr: Instr):
        addr = self.xrf.values[instr.rs1] + instr.imm
        self.frf.write(instr.rd, self.mem.load_f32(addr))
        return None

    _STORE_SIZES = {Op.SB: 1, Op.SH: 2, Op.SW: 4, Op.SD: 8}

    def _scalar_store(self, instr: Instr):
        addr = self.xrf.values[instr.rs1] + instr.imm
        size = self._STORE_SIZES[instr.op]
        value = self.xrf.values[instr.rs2]
        mem = self.mem
        if size == 1:
            mem.store_u8(addr, value)
        elif size == 2:
            mem.store_u16(addr, value)
        elif size == 4:
            mem.store_u32(addr, value)
        else:
            mem.store_u64(addr, value)
        return None

    def _scalar_store_fp(self, instr: Instr):
        addr = self.xrf.values[instr.rs1] + instr.imm
        self.mem.store_f32(addr, self.frf.values[instr.rs2])
        return None

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

    def _make_vv_i32(self, fn):
        def handler(instr: Instr):
            vi = self.vi
            vi[instr.vd][...] = fn(vi[instr.vs2], vi[instr.vs1])
            return None
        return handler

    def _make_vv_u32(self, fn):
        def handler(instr: Instr):
            vr = self.vr
            vr[instr.vd][...] = fn(vr[instr.vs2], vr[instr.vs1])
            return None
        return handler

    def _make_vx_i32(self, fn):
        def handler(instr: Instr):
            vi = self.vi
            vi[instr.vd][...] = fn(vi[instr.vs2],
                                   _i32(self.xrf.values[instr.rs1]))
            return None
        return handler

    def _make_vx_u32(self, fn):
        def handler(instr: Instr):
            vr = self.vr
            value = np.uint32(self.xrf.values[instr.rs1] & 0xFFFFFFFF)
            vr[instr.vd][...] = fn(vr[instr.vs2], value)
            return None
        return handler

    def _make_vi_i32(self, fn):
        def handler(instr: Instr):
            vi = self.vi
            vi[instr.vd][...] = fn(vi[instr.vs2], np.int32(instr.imm))
            return None
        return handler

    def _make_vv_f32(self, fn):
        def handler(instr: Instr):
            vf = self.vf
            vf[instr.vd][...] = fn(vf[instr.vs2], vf[instr.vs1])
            return None
        return handler

    def _make_vf_f32(self, fn):
        def handler(instr: Instr):
            vf = self.vf
            scalar = np.float32(self.frf.values[instr.rs1])
            vf[instr.vd][...] = fn(vf[instr.vs2], scalar)
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


#: Bytes moved per scalar memory op, FP included — the shared vocabulary
#: of the replaying backends and the loop-summary pass (trace/analytic).
SCALAR_LOAD_BYTES = {op: size
                     for op, (size, _) in FunctionalCore._LOAD_SIZES.items()}
SCALAR_LOAD_BYTES[Op.FLW] = 4
SCALAR_STORE_BYTES = dict(FunctionalCore._STORE_SIZES)
SCALAR_STORE_BYTES[Op.FSW] = 4
