"""Regenerate ``golden_opcode_timing.json`` — a per-opcode timing pin.

Run from a revision whose timing model is known-good::

    PYTHONPATH=src python tests/data/capture_opcode_timing.py

``golden_stats.json`` pins the processor's timing only for the opcodes
the kernels emit.  This file pins every opcode the processor handles:
for each one, :func:`program` builds a seeded 64-instruction stream
that mixes the opcode with producers of its source registers and
consumers of its result, and :func:`opcode_timing` runs it at
``vl = VLMAX`` and ``VLMAX / 2`` and records ``cycles``, every
:class:`~repro.arch.stats.ExecutionStats` counter and the ``x_ready``,
``f_ready`` and ``v_ready`` files.  ``tests/test_opcode_timing.py``
replays every entry and compares the numbers exactly.

Slide amounts are kept non-negative, so the pin does not depend on how
a negative amount is read.
"""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.arch.stats import ExecutionStats
from repro.isa.instructions import (
    BRANCH_OPS,
    SCALAR_LOAD_OPS,
    SCALAR_STORE_OPS,
    VECTOR_DEST_OPS,
    VECTOR_MEM_OPS,
    Instr,
    Op,
)
from repro.isa.trace import instruction_roles

HERE = Path(__file__).parent
OUT = HERE / "golden_opcode_timing.json"

LENGTH = 64

# Register pools: values, FP values, vector registers, memory bases,
# slide amounts and the vsetvli AVL.  Bases, amounts and the AVL are
# written only by their own producers, so addresses stay in the buffer
# and slide amounts stay small and non-negative.
X_POOL = (5, 6, 7, 28)
F_POOL = (1, 2, 3)
V_POOL = (1, 2, 3, 4, 5)
BASES = (8, 9)
AMOUNTS = (12, 13)
AVL = 14
BUFFER = 32 * 1024

_SLIDE_AMOUNT_OPS = frozenset({Op.VSLIDEDOWN_VX, Op.VSLIDEUP_VX})
_SLIDE_VI_OPS = frozenset({Op.VSLIDEDOWN_VI, Op.VSLIDEUP_VI})
_SHIFT_IMM_OPS = frozenset({Op.SLLI, Op.SRLI, Op.SRAI})
_VEC_IMM_OPS = frozenset({Op.VADD_VI, Op.VRSUB_VI, Op.VMV_V_I})


def _kinds(op):
    """``(rs1, rs2, rd)`` register kinds of ``op``."""
    if op in SCALAR_LOAD_OPS or op in SCALAR_STORE_OPS \
            or op in VECTOR_MEM_OPS:
        rs1 = "base"
    elif op is Op.VSETVLI:
        rs1 = "avl"
    elif op in _SLIDE_AMOUNT_OPS:
        rs1 = "amount"
    elif op in (Op.VFMACC_VF, Op.VFMUL_VF, Op.VFMV_S_F, Op.VFADD_VF,
                Op.VFSUB_VF):
        rs1 = "f"
    else:
        rs1 = "x"
    rs2 = "f" if op is Op.FSW else "x"
    rd = "f" if op in (Op.FLW, Op.VFMV_F_S) else "x"
    return rs1, rs2, rd


def _imm(op, rng, vl):
    if op in SCALAR_LOAD_OPS or op in SCALAR_STORE_OPS:
        return 8 * int(rng.integers(0, 64))
    if op in _SHIFT_IMM_OPS:
        return int(rng.integers(0, 64))
    if op in (Op.LUI, Op.AUIPC):
        return int(rng.integers(0, 1 << 20))
    if op in _SLIDE_VI_OPS:
        return int(rng.integers(0, vl + 2))
    if op in _VEC_IMM_OPS:
        return int(rng.integers(-16, 16))
    return int(rng.integers(-2048, 2048))


def _pick(rng, kind):
    pool = {"x": X_POOL, "f": F_POOL, "base": BASES, "amount": AMOUNTS,
            "avl": (AVL,)}[kind]
    return int(pool[rng.integers(len(pool))])


def _v(rng):
    return int(V_POOL[rng.integers(len(V_POOL))])


def _under_test(op, rng, vl):
    rs1, rs2, rd = _kinds(op)
    return Instr(op, rd=_pick(rng, rd), rs1=_pick(rng, rs1),
                 rs2=_pick(rng, rs2), imm=_imm(op, rng, vl),
                 vd=_v(rng), vs1=_v(rng), vs2=_v(rng))


def _producer(kind, reg, rng, vl):
    """One instruction that writes ``reg`` of ``kind``."""
    base = _pick(rng, "base")
    if kind == "base":
        return Instr(Op.ADDI, rd=reg, rs1=reg, imm=64)
    if kind == "amount":
        return Instr(Op.ADDI, rd=reg, imm=int(rng.integers(0, vl + 2)))
    if kind == "avl":
        return Instr(Op.ADDI, rd=reg, imm=vl)
    choice = int(rng.integers(4))
    if kind == "x":
        return (Instr(Op.ADDI, rd=reg, rs1=_pick(rng, "x"),
                      imm=int(rng.integers(-64, 64))),
                Instr(Op.MUL, rd=reg, rs1=_pick(rng, "x"),
                      rs2=_pick(rng, "x")),
                Instr(Op.LW, rd=reg, rs1=base, imm=_imm(Op.LW, rng, vl)),
                Instr(Op.VMV_X_S, rd=reg, vs2=_v(rng)))[choice]
    if kind == "f":
        return (Instr(Op.FLW, rd=reg, rs1=base, imm=_imm(Op.FLW, rng, vl))
                if choice < 2 else Instr(Op.VFMV_F_S, rd=reg, vs2=_v(rng)))
    return (Instr(Op.VLE32, vd=reg, rs1=base),
            Instr(Op.VFMACC_VF, vd=reg, rs1=_pick(rng, "f"), vs2=_v(rng)),
            Instr(Op.VADD_VV, vd=reg, vs1=_v(rng), vs2=_v(rng)),
            Instr(Op.VSLIDE1DOWN_VX, vd=reg, rs1=_pick(rng, "x"),
                  vs2=_v(rng)))[choice]


def _consumer(instr, rng, vl):
    """One instruction that reads the result of ``instr``."""
    op = instr.op
    choice = int(rng.integers(4))
    if op in SCALAR_STORE_OPS:
        return Instr(Op.LW, rd=_pick(rng, "x"), rs1=instr.rs1,
                     imm=instr.imm)
    if op is Op.VSE32:
        return Instr(Op.VLE32, vd=_v(rng), rs1=instr.rs1)
    if op in VECTOR_DEST_OPS:
        reg = instr.vd
        return (Instr(Op.VADD_VV, vd=_v(rng), vs1=reg, vs2=_v(rng)),
                Instr(Op.VSE32, vd=reg, rs1=_pick(rng, "base")),
                Instr(Op.VMV_X_S, rd=_pick(rng, "x"), vs2=reg),
                Instr(Op.VFMACC_VV, vd=_v(rng), vs1=reg,
                      vs2=_v(rng)))[choice]
    _, _, rd = _kinds(op)
    if rd == "f":
        return (Instr(Op.VFMACC_VF, vd=_v(rng), rs1=instr.rd, vs2=_v(rng))
                if choice < 2 else
                Instr(Op.FSW, rs1=_pick(rng, "base"), rs2=instr.rd,
                      imm=_imm(Op.FSW, rng, vl)))
    reg = instr.rd
    return (Instr(Op.ADD, rd=_pick(rng, "x"), rs1=reg, rs2=_pick(rng, "x")),
            Instr(Op.SW, rs1=_pick(rng, "base"), rs2=reg,
                  imm=_imm(Op.SW, rng, vl)),
            Instr(Op.VMV_V_X, vd=_v(rng), rs1=reg),
            Instr(Op.BNE, rs1=reg, rs2=_pick(rng, "x")))[choice]


def _sources(instr):
    """``(kind, reg)`` of every register ``instr`` reads."""
    rs1, rs2, _ = _kinds(instr.op)
    x_reads, _, f_reads, _, v_reads, _ = instruction_roles(instr)
    sources = [("v", reg) for reg in v_reads]
    for reg in x_reads:
        if reg == instr.rs1:
            sources.append((rs1, reg))
        elif reg:
            sources.append((rs2, reg))
    sources.extend((rs1 if reg == instr.rs1 else rs2, reg)
                   for reg in f_reads)
    return sources


def program(op, vl):
    """The seeded 64-instruction stream exercising ``op`` at ``vl``."""
    rng = np.random.default_rng([int(op), vl])
    instrs = []
    last = _under_test(op, rng, vl)
    while len(instrs) < LENGTH:
        roll = rng.random()
        if roll < 0.4:
            last = _under_test(op, rng, vl)
            instrs.append(last)
            continue
        sources = _sources(last)
        produces = op not in BRANCH_OPS or op is Op.JAL or op is Op.JALR
        if roll < 0.7 and sources or not produces:
            if sources:
                kind, reg = sources[rng.integers(len(sources))]
                instrs.append(_producer(kind, reg, rng, vl))
            else:
                instrs.append(_producer("x", _pick(rng, "x"), rng, vl))
        else:
            instrs.append(_consumer(last, rng, vl))
    return instrs


def _seed_state(proc, op, vl):
    """Initial registers, memory and ``vl`` (set functionally, untimed)."""
    rng = np.random.default_rng([int(op), vl, 1])
    buf = proc.mem.allocate(BUFFER)
    proc.mem.store_vec_u32(buf, rng.standard_normal(BUFFER // 4)
                           .astype(np.float32).view(np.uint32))
    xv = proc.xrf.values
    for reg in X_POOL:
        xv[reg] = int(rng.integers(-1000, 1000))
    for i, reg in enumerate(BASES):
        xv[reg] = buf + 1024 + i * 8192
    for reg in AMOUNTS:
        xv[reg] = int(rng.integers(0, vl + 2))
    xv[AVL] = vl
    for reg in F_POOL:
        proc.frf.values[reg] = float(np.float32(rng.standard_normal()))
    vrf = proc.vrf
    vrf.f32[:] = rng.standard_normal(vrf.f32.shape).astype(np.float32)
    proc.vl = vl


def opcode_timing(op, vl):
    """Cycles, counters and readiness files after :func:`program`."""
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    _seed_state(proc, op, vl)
    with np.errstate(all="ignore"):
        proc.run(program(op, vl))
    stats = proc.stats()
    return {
        "stats": {f.name: getattr(stats, f.name)
                  for f in fields(ExecutionStats) if f.name != "extra"},
        "x_ready": list(proc.x_ready),
        "f_ready": list(proc.f_ready),
        "v_ready": list(proc.v_ready),
    }


def vls():
    vlmax = ProcessorConfig.paper_default().vector.vlmax
    return (vlmax, vlmax // 2)


def capture():
    ops = sorted(DecoupledProcessor(ProcessorConfig.paper_default())
                 ._handlers, key=int)
    return {op.name: {str(vl): opcode_timing(op, vl) for vl in vls()}
            for op in ops}


if __name__ == "__main__":
    lines = [f"{json.dumps(name)}: {json.dumps(entry, sort_keys=True)}"
             for name, entry in capture().items()]
    OUT.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {OUT}")
