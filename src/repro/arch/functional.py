"""Bit-exact functional semantics of the RV64IM + RVV subset.

This module is the single source of truth for *what every instruction
does* to architectural state — scalar/FP/vector registers and memory —
with no notion of time.  Element-wise vector ops apply the element
function of their :data:`~repro.isa.instructions.OPCODES` row and
scalar memory ops its access type.  The hot ops — the scalar ALU,
the moves, slides, loads, stores and MACs of the sparse kernels' inner
bodies and the ``vadd.vx`` and ``vmv.v.i`` of their row-group set-up —
are written as source text (:data:`INLINE`): each one's handler is
compiled from its text, and the processor's compiled trace blocks,
timed or replayed, run the same text inline (see
:mod:`repro.arch.processor`).  The data
moves (``vle32.v``, ``vse32.v``, ``vslide1down.vx``, ``vmv.x.s``,
``vfmv.f.s``) copy and index through memoryviews of the registers and
of memory, which cost a fraction of a NumPy call; arithmetic runs on
NumPy row views (see :data:`BINDINGS`).  The two MACs have one more
text each, for a *run* of them (:data:`RUNS`): the k members of an
unroll group as one multiply and one add over k x vl views, which the
compiled blocks run where ``vl`` is a multiple of :data:`RUN_VL`; a
lone MAC, and every handler, runs its :data:`INLINE` text, which stays
the reference the run texts are tested against.  The branches have
their own lambdas, and every other opcode runs the method named after
it (``_vfmacc_vv``).  :class:`repro.arch.processor.DecoupledProcessor`
composes a :class:`FunctionalCore` with the timing model, and the
``batch-replay`` timing backend replays the iterations it does not
time through the same semantics, so kernel results stay bit-exact no
matter which backend produced the cycle numbers.

Handlers take the core as their first argument (``handler(core,
instr)``), so one table serves every core and no core refers to
itself.  Control flow mirrors the processor's trace-mode contract:
handlers return ``None`` for straight-line instructions, a byte offset
for a taken branch, ``("jump", imm)`` for ``jal`` and ``("jump_abs",
target)`` for ``jalr`` (link registers are patched by the ISS, which
knows the program counter).
"""

from __future__ import annotations

import hashlib
import operator
import re

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


# ======================================================================
# the inlined ops, as source
#
# ``{rd}``, ``{rs1}`` ... stand for a register field and ``{imm}`` for
# the immediate: ``instr.rd`` in a handler, the register number itself
# in a compiled block.  The names the text reads are bound from the
# core as in :data:`BINDINGS`, the helpers from :data:`GLOBALS`.
# ======================================================================
#: The scalar ALU: each op's value from ``{a}`` (``x[rs1]``) and ``{b}``
#: (``x[rs2]`` or the immediate).  :data:`INLINE` wraps it to 64 bits
#: and writes it to ``x[rd]`` (``x0`` is hardwired).
_ALU = {
    Op.ADD: "{a} + {b}",
    Op.SUB: "{a} - {b}",
    Op.AND: "{a} & {b}",
    Op.OR: "{a} | {b}",
    Op.XOR: "{a} ^ {b}",
    Op.SLL: "{a} << ({b} & 63)",
    Op.SRL: "({a} & MASK64) >> ({b} & 63)",
    Op.SRA: "{a} >> ({b} & 63)",
    Op.SLT: "int({a} < {b})",
    Op.SLTU: "int(({a} & MASK64) < ({b} & MASK64))",
    Op.MUL: "{a} * {b}",
    Op.ADDI: "{a} + {b}",
    Op.ANDI: "{a} & {b}",
    Op.ORI: "{a} | {b}",
    Op.XORI: "{a} ^ {b}",
    Op.SLLI: "{a} << {b}",
    Op.SRLI: "({a} & MASK64) >> {b}",
    Op.SRAI: "{a} >> {b}",
    Op.SLTI: "int({a} < {b})",
    Op.SLTIU: "int(({a} & MASK64) < ({b} & MASK64))",
    # RV64: LUI sign-extends bit 31; AUIPC is LUI in trace mode (no pc)
    Op.LUI: "(({b} << 12) ^ 0x80000000) - 0x80000000",
    Op.AUIPC: "(({b} << 12) ^ 0x80000000) - 0x80000000",
}

_WRITE_X = """\
value = {expr}
if {{rd}}:
    if not LOW64 <= value < HIGH64:
        value = ((value + HIGH64) & MASK64) - HIGH64
    xv[{{rd}}] = value"""


def _alu_text(op) -> str:
    operands = OPCODES[op].operands
    b = "xv[{rs2}]" if "xs2" in operands else "{imm}"
    expr = _ALU[op].format(a="xv[{rs1}]", b=b)
    return _WRITE_X.format(expr=expr)


#: Each inlined op's semantics as source text.
INLINE = {op: _alu_text(op) for op in _ALU}
#: A unit-stride vector access of ``4 * vl`` bytes at ``x[rs1]``, bounds
#: checked, then ``{copy}``.
_VECTOR_ACCESS = """\
addr = xv[{{rs1}}]
nbytes = 4 * vl
if addr < 0 or addr + nbytes > mem_size:
    mem._check(addr, nbytes)
{copy}"""

INLINE.update({
    Op.VLE32: _VECTOR_ACCESS.format(
        copy="mvb[{vd}][:nbytes] = mem_view[addr:addr + nbytes]"),
    Op.VSE32: _VECTOR_ACCESS.format(
        copy="mem_view[addr:addr + nbytes] = mvb[{vd}][:nbytes]"),
    Op.VFMACC_VF: "vf[{vd}] += float32(fv[{rs1}]) * vf[{vs2}]",
    # vd[i] += vs2[0] * vrf[rs1[4:0]][i] (paper Section III-A)
    Op.VINDEXMAC_VX: "vf[{vd}] += vf[{vs2}][0] * vf[xv[{rs1}] & 0x1F]",
    # one view-to-view copy (a memmove when vd is vs2), then the tail
    Op.VSLIDE1DOWN_VX: """\
mvu_head[{vd}][:] = mvu_tail[{vs2}]
mvu[{vd}][vl - 1] = xv[{rs1}] & 0xFFFFFFFF""",
    # int32 lanes wrap; the scalar wraps to int32 first, as for every
    # element-wise op with an x operand, here in Python ints
    Op.VADD_VX: "add(vi[{vs2}], ((xv[{rs1}] + 0x80000000) & 0xFFFFFFFF)"
                " - 0x80000000, out=vi[{vd}])",
    Op.VMV_V_I: "vi[{vd}][...] = {imm}",
    # an int32 needs no 64-bit wrap; a float32 widens exactly
    Op.VMV_X_S: "if {rd}:\n    xv[{rd}] = mvi[{vs2}][0]",
    Op.VFMV_F_S: "fv[{rd}] = mvf[{vs2}][0]",
})

#: How each name the inline texts read is bound from a core: the scalar
#: register values and ``vl``; each vector register as a NumPy row view
#: (``vr``, ``vi``, ``vf``: uint32, int32 and float32, sliced to ``vl``),
#: as a memoryview (``mvb``, ``mvu``, ``mvi``, ``mvf``: its raw bytes
#: and its uint32, int32 and float32 elements, full length) and as the
#: uint32 memoryviews of its first and its last ``vl - 1`` elements
#: (``mvu_head``, ``mvu_tail``: a slide by one copies one to the
#: other); the whole file as one float32 view sliced to ``vl``
#: (``vf2d``), from which the MAC runs' views are sliced (see
#: :data:`RUNS`); the core's run buffer, a float32 array of one row per
#: register (``run_rows``), and its rows as float32 memoryviews
#: (``mv_run``); the memory, its buffer as a memoryview and its size.
#: Data moves copy and index through the memoryviews, which cost a
#: fraction of a NumPy call; arithmetic runs on the row views.
BINDINGS = {
    "xv": "core.xrf.values",
    "fv": "core.frf.values",
    "vl": "core._vl",
    "vr": "core.vr",
    "vi": "core.vi",
    "vf": "core.vf",
    "mvb": "core.mvb",
    "mvu": "core.mvu",
    "mvi": "core.mvi",
    "mvf": "core.mvf",
    "mvu_head": "core.mvu_head",
    "mvu_tail": "core.mvu_tail",
    "vf2d": "core.vf2d",
    "run_rows": "core.run_rows",
    "mv_run": "core.mv_run",
    "mem": "core.mem",
    "mem_view": "core.mem.view",
    "mem_size": "core.mem.size",
}
#: The bindings that ``vsetvli`` changes.
VL_BINDINGS = ("vl", "vr", "vi", "vf", "mvu_head", "mvu_tail", "vf2d")

#: A MAC run's data ops run as one 2-D operation only when ``vl`` is a
#: multiple of this; otherwise its members run their :data:`INLINE`
#: texts.  Both forms round alike, but where operands hold NaNs,
#: NumPy's SIMD loops over the run's 2-D operands can propagate another
#: operand's NaN payload and sign than its loops over the members' 1-D
#: rows.  On random register bits with NaN payloads (an AVX-512 host,
#: NumPy 2.4, 400 trials per case) the two forms disagreed in 10-72 % of
#: trials at ``vl`` 1, 8, 12 and 15 (VLMAX 16) and 24 (VLMAX 32), and
#: in none at every multiple of 16 tried, VLMAX 16 to 64.  16 float32
#: are one AVX-512 vector, the widest NumPy's loops use, so at those
#: lengths no row ends in a partial vector, where the remainder code of
#: the two forms differs.
RUN_VL = 16

#: Helpers the inline texts call.
GLOBALS = {"float32": np.float32, "add": np.add,
           "MASK64": (1 << 64) - 1, "LOW64": -(1 << 63), "HIGH64": 1 << 63,
           "RUN_VL": RUN_VL}

#: The MAC runs' data ops, as source text.  A *run* is k >= 2
#: consecutive MACs of one opcode whose ``vd`` and ``vs2`` each step by
#: one, the k ``vd`` disjoint from the k ``vs2``: every N:M kernel's
#: unroll group is one.  Its data ops run once, as one multiply and one
#: add over k x vl views of the register file: ``rows_<r>_<k>`` is
#: ``v<r>`` .. ``v<r+k-1>``, ``heads_<r>_<k>`` their element 0 as a
#: k x 1 column, ``gathered_<k>`` the first k rows of the core's run
#: buffer and ``scalars_<k>`` their element 0 (see :func:`run_source`).
#: ``vfmacc.vf`` stores each member's ``f[rs1]`` to the buffer, an
#: element store casting as ``float32()`` does; ``vindexmac.vx`` copies
#: each member's indexed row to it, unless an index falls in the run's
#: ``vd`` range, where a member would read an earlier member's result.
#: The run form needs ``whole_vl`` (see :data:`RUN_VL`); otherwise, and
#: on that hazard, the members run their :data:`INLINE` texts
#: (``{singles}``).  Each op's text goes with the lines each member
#: ``{j}`` adds to it, by field: ``{rs1}`` is that member's register,
#: ``{vd}`` and ``{vs2}`` the first member's and ``{end}`` is
#: ``vd + k``.
RUNS = {
    Op.VFMACC_VF: ("""\
if whole_vl:
{scalars}
    add(rows_{vd}_{k}, scalars_{k} * rows_{vs2}_{k}, out=rows_{vd}_{k})
else:
{singles}""", {"scalars": ("    mv_run[{j}][0] = fv[{rs1}]", "\n")}),
    Op.VINDEXMAC_VX: ("""\
{index}
if whole_vl and not ({hazard}):
{gather}
    add(rows_{vd}_{k}, heads_{vs2}_{k} * gathered_{k}, out=rows_{vd}_{k})
else:
{singles}""", {"index": ("g{j} = xv[{rs1}] & 0x1F", "\n"),
                "hazard": ("{vd} <= g{j} < {end}", " or "),
                "gather": ("    mv_run[{j}][:vl] = mvf[g{j}][:vl]", "\n")}),
}


def run_source(op, members: list) -> tuple[str, dict]:
    """The text of a run of ``op`` whose members have the register
    fields ``members`` (each a dict of field to register text), and
    the views it reads, as ``name: expression`` bindings."""
    text, each = RUNS[op]
    vd, vs2, k = int(members[0]["vd"]), int(members[0]["vs2"]), len(members)
    pieces = {name: sep.join(line.format(j=j, rs1=fields["rs1"], vd=vd,
                                          end=vd + k)
                              for j, fields in enumerate(members))
              for name, (line, sep) in each.items()}
    singles = "\n".join(INLINE[op].format(**fields) for fields in members)
    text = text.format(vd=vd, vs2=vs2, k=k, end=vd + k, **pieces,
                       singles="\n".join(f"    {line}" for line
                                         in singles.splitlines()))
    views = {
        f"rows_{vd}_{k}": f"vf2d[{vd}:{vd + k}]",
        f"rows_{vs2}_{k}": f"vf2d[{vs2}:{vs2 + k}]",
        f"heads_{vs2}_{k}": f"vf2d[{vs2}:{vs2 + k}, :1]",
        f"gathered_{k}": f"run_rows[:{k}, :vl]",
        f"scalars_{k}": f"run_rows[:{k}, :1]",
        "whole_vl": "vl % RUN_VL == 0",
    }
    used = names(text)
    return text, {name: expr for name, expr in views.items() if name in used}


_NAME = re.compile(r"[A-Za-z_]\w*")


def names(text: str) -> set:
    """Every identifier ``text`` mentions."""
    return set(_NAME.findall(text))


def bind(used, source: dict, indent: str = "    ") -> str:
    """Lines binding the names of ``source`` that ``used`` holds, in
    ``source`` order."""
    return "".join(f"{indent}{name} = {source[name]}\n"
                   for name in source if name in used)


def _compiled_handler(op):
    """``op``'s handler, compiled from its :data:`INLINE` text."""
    text = INLINE[op].format(**{field: f"instr.{field}" for field in (
        "rd", "rs1", "rs2", "vd", "vs1", "vs2", "imm")})
    body = "".join(f"    {line}\n" for line in text.splitlines())
    source = (f"def handler(core, instr):\n"
              f"{bind(names(text), BINDINGS)}{body}    return None\n")
    namespace = dict(GLOBALS)
    exec(compile(source, f"<{op.name.lower()} semantics>", "exec"),
         namespace)
    return namespace["handler"]


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
        #: register ``r`` as a memoryview of its raw bytes, and of its
        #: uint32, int32 and float32 elements, full length
        self.mvb = [memoryview(row).cast("B") for row in self.vrf.raw]
        self.mvu = [row.cast("I") for row in self.mvb]
        self.mvi = [row.cast("i") for row in self.mvb]
        self.mvf = [row.cast("f") for row in self.mvb]
        #: the MAC runs' buffer (see :data:`RUNS`), and its rows as
        #: float32 memoryviews
        self.run_rows = np.zeros_like(self.vrf.f32)
        self.mv_run = [memoryview(row) for row in self.run_rows]
        self._vl = None
        self.vl = vcfg.vlmax

    # ==================================================================
    # public API
    # ==================================================================
    def execute(self, instr: Instr):
        """Execute one instruction; returns control-flow info."""
        return self.handlers[instr.op](self, instr)

    def run(self, stream) -> None:
        """Execute a dynamic stream functionally (trace mode)."""
        handlers = self.handlers
        for instr in stream:
            handlers[instr.op](self, instr)

    def state_fingerprint(self) -> str:
        """Digest over all architectural state (registers + memory).

        Two cores that ran the same program under different timing
        backends must produce identical fingerprints; the per-opcode
        replay differential tests gate on this.
        """
        digest = hashlib.sha256()
        digest.update(np.array(self.xrf.values, dtype=np.int64).tobytes())
        digest.update(np.array(self.frf.values, dtype=np.float64).tobytes())
        digest.update(self.vrf.raw.tobytes())
        digest.update(np.int64(self.vl).tobytes())
        digest.update(self.mem._buf.tobytes())
        return digest.hexdigest()

    # ==================================================================
    # scalar handlers
    # ==================================================================
    @staticmethod
    def _make_load(access: np.dtype):
        """A scalar load of ``access``: an integer sign- or zero-extends
        into ``x[rd]``, a float goes to ``f[rd]``."""
        width = 8 * access.itemsize
        if access.kind == "f":
            load = getattr(FlatMemory, f"load_f{width}")

            def handler(core, instr: Instr):
                core.frf.write(instr.rd, load(
                    core.mem, core.xrf.values[instr.rs1] + instr.imm))
                return None
            return handler
        load = getattr(FlatMemory, f"load_u{width}")
        sign = 1 << (width - 1) if access.kind == "i" and width < 64 else 0

        def handler(core, instr: Instr):
            value = load(core.mem, core.xrf.values[instr.rs1] + instr.imm)
            if value & sign:
                value -= sign << 1
            core.xrf.write(instr.rd, value)
            return None
        return handler

    @staticmethod
    def _make_store(access: np.dtype):
        """A scalar store of ``access`` from ``x[rs2]`` or ``f[rs2]``."""
        width = 8 * access.itemsize
        if access.kind == "f":
            store = getattr(FlatMemory, f"store_f{width}")
            source = operator.attrgetter("frf.values")
        else:
            store = getattr(FlatMemory, f"store_u{width}")
            source = operator.attrgetter("xrf.values")

        def handler(core, instr: Instr):
            store(core.mem, core.xrf.values[instr.rs1] + instr.imm,
                  source(core)[instr.rs2])
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
        vrf = self.vrf
        if not 1 <= value <= vrf.vlmax:
            raise SimulationError(f"vector length {value!r} is outside "
                                  f"1..{vrf.vlmax}")
        self._vl = value
        self.vr = [row[:value] for row in vrf.raw]
        self.vi = [row[:value] for row in vrf.i32]
        self.vf = [row[:value] for row in vrf.f32]
        self.mvu_head = [row[:value - 1] for row in self.mvu]
        self.mvu_tail = [row[1:value] for row in self.mvu]
        self.vf2d = vrf.f32[:, :value]

    def _vsetvli(self, instr: Instr):
        avl = self.xrf.values[instr.rs1]
        vlmax = self.config.vector.vlmax
        new_vl = vlmax if avl >= vlmax or avl < 0 else avl
        if new_vl <= 0:
            raise SimulationError("vsetvli selected a zero vector length")
        self.vl = new_vl
        self.xrf.write(instr.rd, new_vl)
        return None

    #: Row views of the element-wise types, and the conversion of a
    #: scalar operand to each.
    _VIEWS = {"i32": "vi", "u32": "vr", "f32": "vf"}
    _SCALARS = {"i32": _i32, "u32": lambda value: np.uint32(value & 0xFFFFFFFF),
                "f32": np.float32}

    @classmethod
    def _make_elementwise(cls, spec):
        """``vd[i] = fn(vs2[i], b)`` for an element-wise row, with ``b``
        from ``vs1``, the immediate, or the scalar operand ``xs1``/``fs1``
        (see :class:`~repro.isa.instructions.OpSpec`)."""
        view, fn = spec.fn
        rows = operator.attrgetter(cls._VIEWS[view])
        second = spec.operands[-1]
        if second == "vs1":
            def handler(core, instr: Instr):
                v = rows(core)
                v[instr.vd][...] = fn(v[instr.vs2], v[instr.vs1])
                return None
        elif second == "imm":
            def handler(core, instr: Instr):
                v = rows(core)
                v[instr.vd][...] = fn(v[instr.vs2], np.int32(instr.imm))
                return None
        else:
            scalar = cls._SCALARS[view]
            regs = operator.attrgetter(
                "frf.values" if second == "fs1" else "xrf.values")

            def handler(core, instr: Instr):
                v = rows(core)
                v[instr.vd][...] = fn(v[instr.vs2],
                                      scalar(regs(core)[instr.rs1]))
                return None
        return handler

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

    def _vmv_v_x(self, instr: Instr):
        self.vi[instr.vd][...] = _i32(self.xrf.values[instr.rs1])
        return None

    def _vmv_v_v(self, instr: Instr):
        self.vr[instr.vd][...] = self.vr[instr.vs1]
        return None

    def _vmv_s_x(self, instr: Instr):
        self.vr[instr.vd][0] = self.xrf.values[instr.rs1] & 0xFFFFFFFF
        return None

    def _vfmv_s_f(self, instr: Instr):
        self.vf[instr.vd][0] = np.float32(self.frf.values[instr.rs1])
        return None

    def _vid_v(self, instr: Instr):
        self.vi[instr.vd][...] = np.arange(self._vl, dtype=np.int32)
        return None


def _build_handlers() -> dict:
    """``op -> handler(core, instr)`` for every opcode: the inlined ops
    compiled from their text, the scalar memory ops from their access
    type, element-wise rows from their function, and one method per
    other opcode, named after it (``_vfmacc_vv`` runs
    ``Op.VFMACC_VV``)."""
    h = {op: _compiled_handler(op) for op in INLINE}
    for op in SCALAR_LOAD_OPS:
        h[op] = FunctionalCore._make_load(np.dtype(OPCODES[op].access))
    for op in SCALAR_STORE_OPS:
        h[op] = FunctionalCore._make_store(np.dtype(OPCODES[op].access))
    for op in FunctionalCore._BRANCH_FNS:
        h[op] = FunctionalCore._branch
    for op, spec in OPCODES.items():
        if op not in h:
            h[op] = FunctionalCore._make_elementwise(spec) if spec.fn \
                else getattr(FunctionalCore, f"_{op.name.lower()}")
    return h


#: ``op -> handler(core, instr)``, shared by every core.
FunctionalCore.handlers = _build_handlers()
