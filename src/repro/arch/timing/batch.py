"""Batch-replay: NumPy-vectorised replay of steady-loop middles.

``compressed-replay`` (the base class) already times only a bracket of
each steady loop, but still *executes* every skipped iteration one
instruction at a time through the Python functional core.  For large
matmul workloads that interpreter walk dominates wall-clock.

This backend replaces the per-instruction replay of a loop chunk with
three vectorised phases, and proves per chunk that the outcome is
identical to the sequential replay (falling back when it cannot):

1. **Probe.**  One iteration is replayed exactly (per-instruction).
   The integer-register deltas it produces are the candidate strides
   of the loop's induction variables.
2. **Batched execution.**  The remaining ``n`` iterations run as one
   NumPy program over an ``n``-wide batch axis: integer registers are
   ``(32, n)`` int64 rows seeded with the affine guess
   ``x1 + i * delta``, FP/vector registers broadcast their entry
   values, and every supported instruction updates all ``n`` lanes at
   once.  Loads gather from live memory; stores are staged.  Nothing
   architectural is modified yet.
3. **Verify + commit.**  The batch commits only if (a) every live-in
   integer register actually evolved affinely (exit == entry + delta
   in every lane), (b) every live-in FP/vector register was
   iteration-invariant (bitwise), and (c) no staged store overlaps any
   other store or any load's bytes.  Then stores scatter to memory,
   final-iteration register lanes commit, and the memory hierarchy
   replays the whole access stream through
   :meth:`~repro.arch.hierarchy.MemoryHierarchy.bulk_replay` — tags,
   LRU order, dirty bits and every hit/miss/row-buffer counter advance
   exactly as the sequential walk would have advanced them.

Because the conditions are *verified* per chunk rather than assumed, a
failed check merely falls back to the bit-exact sequential replay:
results, memory images and access counts are identical to
``compressed-replay`` by construction, and cycles follow the same
bracket arithmetic (identical when run with the same knobs).
"""

from __future__ import annotations

import operator

import numpy as np

from repro.arch.timing.compressed import CompressedReplayBackend
from repro.isa.instructions import (
    BRANCH_OPS,
    OPCODES,
    SCALAR_LOAD_OPS,
    SCALAR_STORE_OPS,
    Op,
)
from repro.isa.trace import Loop, summarize_nodes


class _BatchFallback(Exception):
    """The chunk cannot be replayed batched; use the sequential path."""


class _Program:
    """A compiled loop body: its summary plus per-instruction handlers."""

    __slots__ = ("summary", "ops", "failures")

    def __init__(self, summary, ops):
        self.summary = summary
        self.ops = ops
        self.failures = 0


# ======================================================================
# batched instruction handlers
#
# Each handler mutates a _BatchRun in place.  Semantics mirror
# repro.arch.functional.FunctionalCore exactly, with the batch (loop
# iteration) axis added: int64 rows wrap like to_signed64, int32/uint32
# casts wrap like _i32, and all FP arithmetic stays element-wise
# float32 so results are bitwise identical lane by lane.
# ======================================================================
_DISPATCH = {}


def _register(op):
    def deco(fn):
        _DISPATCH[op] = fn
        return fn
    return deco


def _nop(run, instr):
    return None


for _op in BRANCH_OPS:
    _DISPATCH[_op] = _nop


_INT_RR = {
    Op.ADD: lambda a, b: a + b,
    Op.SUB: lambda a, b: a - b,
    Op.AND: lambda a, b: a & b,
    Op.OR: lambda a, b: a | b,
    Op.XOR: lambda a, b: a ^ b,
    Op.MUL: lambda a, b: a * b,
    Op.SLL: lambda a, b: a << (b & 63),
    Op.SRA: lambda a, b: a >> (b & 63),
    Op.SRL: lambda a, b: (a.view(np.uint64)
                          >> (b & 63).view(np.uint64)).view(np.int64),
    Op.SLT: lambda a, b: a < b,
    Op.SLTU: lambda a, b: a.view(np.uint64) < b.view(np.uint64),
}


def _make_int_rr(fn):
    def handler(run, instr):
        result = fn(run.xb[instr.rs1], run.xb[instr.rs2])
        if instr.rd:
            run.xb[instr.rd] = result
    return handler


for _op, _fn in _INT_RR.items():
    _DISPATCH[_op] = _make_int_rr(_fn)

_MASK64 = (1 << 64) - 1

_INT_RI = {
    Op.ADDI: lambda a, i: a + i,
    Op.ANDI: lambda a, i: a & i,
    Op.ORI: lambda a, i: a | i,
    Op.XORI: lambda a, i: a ^ i,
    Op.SLLI: lambda a, i: a << i,
    Op.SRAI: lambda a, i: a >> i,
    Op.SRLI: lambda a, i: (a.view(np.uint64)
                           >> np.uint64(i)).view(np.int64),
    Op.SLTI: lambda a, i: a < i,
    Op.SLTIU: lambda a, i: a.view(np.uint64) < np.uint64(i & _MASK64),
}

_SHIFT_IMM_OPS = frozenset({Op.SLLI, Op.SRLI, Op.SRAI})


def _make_int_ri(fn):
    def handler(run, instr):
        result = fn(run.xb[instr.rs1], instr.imm)
        if instr.rd:
            run.xb[instr.rd] = result
    return handler


for _op, _fn in _INT_RI.items():
    _DISPATCH[_op] = _make_int_ri(_fn)


@_register(Op.LUI)
@_register(Op.AUIPC)  # pc-relative not used in trace mode (see functional)
def _lui(run, instr):
    value = instr.imm << 12
    if value & 0x80000000:
        value -= 1 << 32
    if instr.rd:
        run.xb[instr.rd] = value


def _make_scalar_load(access):
    """A load of ``access`` (a NumPy type) into ``x[rd]`` or ``f[rd]``."""
    size = access.itemsize
    if access.kind == "f":
        def handler(run, instr):
            addrs = run.xb[instr.rs1] + instr.imm
            raw = run.gather(addrs, size, vector=False)
            run.fb[instr.rd] = raw.view(access).ravel()
        return handler

    def handler(run, instr):
        addrs = run.xb[instr.rs1] + instr.imm
        raw = run.gather(addrs, size, vector=False)
        if instr.rd:
            run.xb[instr.rd] = raw.view(access).ravel().astype(np.int64)
    return handler


def _make_scalar_store(access):
    """A store of ``x[rs2]`` or ``f[rs2]`` as ``access``."""
    size = access.itemsize
    source = operator.attrgetter("fb" if access.kind == "f" else "xb")

    def handler(run, instr):
        addrs = run.xb[instr.rs1] + instr.imm
        data = source(run)[instr.rs2].astype(access).view(np.uint8)
        run.stage_store(addrs, size, data.reshape(run.n, size), vector=False)
    return handler


for _op in SCALAR_LOAD_OPS:
    _DISPATCH[_op] = _make_scalar_load(np.dtype(OPCODES[_op].access))
for _op in SCALAR_STORE_OPS:
    _DISPATCH[_op] = _make_scalar_store(np.dtype(OPCODES[_op].access))


@_register(Op.VLE32)
def _vle32(run, instr):
    # copy: xb rows are written in place, and the recorded slot /
    # alias-check ranges must keep the address at access time
    addrs = run.xb[instr.rs1].copy()
    raw = run.gather(addrs, 4 * run.vl, vector=True)
    run.vb[instr.vd, :, :run.vl] = raw.view(np.uint32)
    run.v_defined.add(instr.vd)


@_register(Op.VSE32)
def _vse32(run, instr):
    addrs = run.xb[instr.rs1].copy()  # see _vle32
    data = np.ascontiguousarray(run.vb[instr.vd, :, :run.vl]).copy()
    run.stage_store(addrs, 4 * run.vl, data.view(np.uint8), vector=True)


#: Batch view and scalar-operand type of each element-wise type.
_VIEWS = {"i32": ("vb_i32", np.int32), "u32": ("vb", np.uint32),
          "f32": ("vb_f32", np.float32)}


def _make_elementwise(spec):
    """``vd = fn(vs2, b)`` in every lane for an element-wise row, with
    ``b`` from ``vs1``, the immediate, or the scalar operand (see
    :class:`~repro.isa.instructions.OpSpec`)."""
    view, fn = spec.fn
    name, scalar_type = _VIEWS[view]
    rows = operator.attrgetter(name)
    second = spec.operands[-1]

    def handler(run, instr):
        vl = run.vl
        v = rows(run)
        if second == "vs1":
            b = v[instr.vs1, :, :vl]
        elif second == "imm":
            b = np.int32(instr.imm)
        elif second == "fs1":
            b = run.fb[instr.rs1][:, None]
        else:
            b = run.xb[instr.rs1].astype(scalar_type)[:, None]
        v[instr.vd, :, :vl] = fn(v[instr.vs2, :, :vl], b)
        run.v_defined.add(instr.vd)
    return handler


for _op, _spec in OPCODES.items():
    if _spec.fn is not None:
        _DISPATCH[_op] = _make_elementwise(_spec)


@_register(Op.VFMACC_VF)
def _vfmacc_vf(run, instr):
    vl = run.vl
    f32 = run.vb_f32
    f32[instr.vd, :, :vl] += (run.fb[instr.rs1][:, None]
                              * f32[instr.vs2, :, :vl])
    run.v_defined.add(instr.vd)


@_register(Op.VFMACC_VV)
def _vfmacc_vv(run, instr):
    vl = run.vl
    f32 = run.vb_f32
    f32[instr.vd, :, :vl] += (f32[instr.vs1, :, :vl]
                              * f32[instr.vs2, :, :vl])
    run.v_defined.add(instr.vd)


@_register(Op.VMACC_VV)
def _vmacc_vv(run, instr):
    vl = run.vl
    i32 = run.vb_i32
    i32[instr.vd, :, :vl] += (i32[instr.vs1, :, :vl]
                              * i32[instr.vs2, :, :vl])
    run.v_defined.add(instr.vd)


@_register(Op.VMACC_VX)
def _vmacc_vx(run, instr):
    vl = run.vl
    scalar = run.xb[instr.rs1].astype(np.int32)[:, None]
    i32 = run.vb_i32
    i32[instr.vd, :, :vl] += scalar * i32[instr.vs2, :, :vl]
    run.v_defined.add(instr.vd)


@_register(Op.VINDEXMAC_VX)
def _vindexmac_vx(run, instr):
    vl = run.vl
    indices = (run.xb[instr.rs1] & 0x1F).astype(np.intp)
    # dynamically addressed sources must also satisfy the entry-state
    # assumption; any not yet (re)defined in-batch joins the
    # iteration-invariance check
    for reg in np.unique(indices).tolist():
        if reg not in run.v_defined:
            run.v_live_extra.add(reg)
    f32 = run.vb_f32
    source = f32[indices, run.iota, :vl]
    f32[instr.vd, :, :vl] += f32[instr.vs2, :, 0][:, None] * source
    run.v_defined.add(instr.vd)


@_register(Op.VSLIDE1DOWN_VX)
def _vslide1down_vx(run, instr):
    vl = run.vl
    raw = run.vb
    src = raw[instr.vs2, :, 1:vl].copy()
    raw[instr.vd, :, :vl - 1] = src
    raw[instr.vd, :, vl - 1] = run.xb[instr.rs1].astype(np.uint32)
    run.v_defined.add(instr.vd)


@_register(Op.VSLIDE1UP_VX)
def _vslide1up_vx(run, instr):
    vl = run.vl
    raw = run.vb
    src = raw[instr.vs2, :, :vl - 1].copy()
    raw[instr.vd, :, 1:vl] = src
    raw[instr.vd, :, 0] = run.xb[instr.rs1].astype(np.uint32)
    run.v_defined.add(instr.vd)


def _slidedown(run, instr, amount):
    vl = run.vl
    raw = run.vb
    if amount >= vl:
        raw[instr.vd, :, :vl] = 0
    else:
        src = raw[instr.vs2, :, amount:vl].copy()
        raw[instr.vd, :, :vl - amount] = src
        raw[instr.vd, :, vl - amount:vl] = 0
    run.v_defined.add(instr.vd)


@_register(Op.VSLIDEDOWN_VX)
def _vslidedown_vx(run, instr):
    _slidedown(run, instr, run.const_scalar(instr.rs1))


@_register(Op.VSLIDEDOWN_VI)
def _vslidedown_vi(run, instr):
    if instr.imm < 0:
        raise _BatchFallback("negative slide amount")
    _slidedown(run, instr, instr.imm)


def _slideup(run, instr, amount):
    vl = run.vl
    raw = run.vb
    if amount < vl:
        src = raw[instr.vs2, :, :vl - amount].copy()
        raw[instr.vd, :, amount:vl] = src
    # tail-preserving: vd keeps its lanes below `amount`, so this write
    # never counts as defining (see trace._V_PARTIAL_WRITE)


@_register(Op.VSLIDEUP_VX)
def _vslideup_vx(run, instr):
    _slideup(run, instr, run.const_scalar(instr.rs1))


@_register(Op.VSLIDEUP_VI)
def _vslideup_vi(run, instr):
    if instr.imm < 0:
        raise _BatchFallback("negative slide amount")
    _slideup(run, instr, instr.imm)


@_register(Op.VMV_V_I)
def _vmv_v_i(run, instr):
    run.vb_i32[instr.vd, :, :run.vl] = np.int32(instr.imm)
    run.v_defined.add(instr.vd)


@_register(Op.VMV_V_X)
def _vmv_v_x(run, instr):
    run.vb_i32[instr.vd, :, :run.vl] = \
        run.xb[instr.rs1].astype(np.int32)[:, None]
    run.v_defined.add(instr.vd)


@_register(Op.VMV_V_V)
def _vmv_v_v(run, instr):
    run.vb[instr.vd, :, :run.vl] = run.vb[instr.vs1, :, :run.vl]
    run.v_defined.add(instr.vd)


@_register(Op.VMV_S_X)
def _vmv_s_x(run, instr):
    run.vb[instr.vd, :, 0] = run.xb[instr.rs1].astype(np.uint32)


@_register(Op.VMV_X_S)
def _vmv_x_s(run, instr):
    if instr.rd:
        run.xb[instr.rd] = run.vb_i32[instr.vs2, :, 0].astype(np.int64)


@_register(Op.VFMV_F_S)
def _vfmv_f_s(run, instr):
    run.fb[instr.rd] = run.vb_f32[instr.vs2, :, 0]


@_register(Op.VFMV_S_F)
def _vfmv_s_f(run, instr):
    run.vb_f32[instr.vd, :, 0] = run.fb[instr.rs1]


@_register(Op.VREDSUM_VS)
def _vredsum_vs(run, instr):
    vl = run.vl
    i32 = run.vb_i32
    total = (i32[instr.vs1, :, 0].astype(np.int64)
             + i32[instr.vs2, :, :vl].sum(axis=1, dtype=np.int64))
    i32[instr.vd, :, 0] = total.astype(np.int32)


@_register(Op.VID_V)
def _vid_v(run, instr):
    run.vb_i32[instr.vd, :, :run.vl] = np.arange(run.vl, dtype=np.int32)
    run.v_defined.add(instr.vd)


# Deliberately unsupported (always sequential): VSETVLI changes vl
# mid-body; VFREDUSUM_VS reduction order across a 2-D axis is not
# guaranteed bitwise-identical to the sequential 1-D sum.


# ======================================================================
# the batch run
# ======================================================================
class _BatchRun:
    """One verified batched replay of ``n`` loop iterations."""

    def __init__(self, proc, program, n):
        core = proc.core
        self.proc = proc
        self.program = program
        self.n = n
        self.vl = core.vl
        self.mem = core.mem
        self.buf = core.mem._buf
        self.mem_size = core.mem.size
        self.iota = np.arange(n, dtype=np.intp)
        self._offsets: dict[int, np.ndarray] = {}
        # entry state (just after the sequentially replayed probe
        # iteration); integer registers get the affine stride guess
        self.x_entry1 = np.array(core.xrf.values, dtype=np.int64)
        self.f_entry = np.array(core.frf.values, dtype=np.float32)
        self.v_entry = core.vrf.raw.copy()
        self.x_delta = None  # set by seed()
        self.xb = None
        self.fb = np.repeat(self.f_entry[:, None], n, axis=1)
        self.vb = np.ascontiguousarray(
            np.repeat(core.vrf.raw[:, None, :], n, axis=1))
        self.vb_i32 = self.vb.view(np.int32)
        self.vb_f32 = self.vb.view(np.float32)
        self.v_defined: set[int] = set()
        self.v_live_extra: set[int] = set()
        self.slots: list = []          # (is_vector, is_write, size, addrs)
        self.load_ranges: list = []    # (addrs, size)
        self.store_ranges: list = []   # (addrs, size)
        self.staged: list = []         # (addrs, size, bytes (n, size))

    def seed(self, x_before) -> None:
        """Seed integer rows with ``x1 + i * delta`` (int64 wrap)."""
        delta = self.x_entry1 - np.array(x_before, dtype=np.int64)
        iters = np.arange(self.n, dtype=np.int64)
        self.x_delta = delta
        self.xb = self.x_entry1[:, None] + delta[:, None] * iters
        self.xb[0] = 0  # x0 is hardwired

    # ------------------------------------------------------------------
    def _offs(self, size: int) -> np.ndarray:
        offs = self._offsets.get(size)
        if offs is None:
            offs = np.arange(size, dtype=np.int64)
            self._offsets[size] = offs
        return offs

    def gather(self, addrs, size: int, vector: bool) -> np.ndarray:
        """Load ``size`` bytes per lane; records the hierarchy slot."""
        if int(addrs.min()) < 0 or int(addrs.max()) + size > self.mem_size:
            raise _BatchFallback("load out of range")
        order = len(self.slots)  # program-order rank of this access
        self.slots.append((vector, False, size, addrs))
        self.load_ranges.append((addrs, size, order))
        return self.buf[addrs[:, None] + self._offs(size)]

    def stage_store(self, addrs, size: int, data, vector: bool) -> None:
        """Queue ``size`` bytes per lane; committed after verification."""
        if int(addrs.min()) < 0 or int(addrs.max()) + size > self.mem_size:
            raise _BatchFallback("store out of range")
        order = len(self.slots)
        self.slots.append((vector, True, size, addrs))
        self.store_ranges.append((addrs, size, order))
        self.staged.append((addrs, size, data))

    def const_scalar(self, reg: int) -> int:
        """The value of ``x[reg]`` if identical in every lane."""
        row = self.xb[reg]
        value = int(row[0])
        if not (row == value).all():
            raise _BatchFallback("iteration-varying scalar operand")
        if value < 0:
            raise _BatchFallback("negative slide amount")
        return value

    # ------------------------------------------------------------------
    def execute(self) -> None:
        """Run the program, verify the entry-state assumptions, commit."""
        for fn, instr in self.program.ops:
            fn(self, instr)
        self._verify_registers()
        self._verify_memory()
        self._commit()

    def _verify_registers(self) -> None:
        summary = self.program.summary
        for reg in summary.x_live_in:
            if reg in summary.x_written:
                expected = (self.x_entry1[reg]
                            + self.x_delta[reg] * (self.iota + 1))
                if not np.array_equal(self.xb[reg], expected):
                    raise _BatchFallback("non-affine integer register")
        f_bits = self.fb.view(np.uint32)
        f_entry_bits = self.f_entry.view(np.uint32)
        for reg in summary.f_live_in:
            if reg in summary.f_written and \
                    not (f_bits[reg] == f_entry_bits[reg]).all():
                raise _BatchFallback("iteration-varying FP register")
        for reg in summary.v_live_in | self.v_live_extra:
            if reg in summary.v_written and \
                    not (self.vb[reg] == self.v_entry[reg][None, :]).all():
                raise _BatchFallback("iteration-varying vector register")

    def _verify_memory(self) -> None:
        """Staged stores must commute with the batch's loads and stores.

        Sequential truth is lane-major: lane ``i`` runs to completion
        before lane ``i + 1``.  Loads gathered from pre-batch memory
        are valid unless a *sequentially earlier* store staged the same
        bytes — a load overlapping only the same lane's *later* store
        is the benign tile-accumulate pattern (load, update, store) and
        allowed.  Two stores may overlap only where the slot-major
        commit scatter produces the same final bytes as the lane-major
        order: within one slot numpy's last-index-wins matches the lane
        order, and across slots only an *earlier* slot's *later* lane
        overwriting a later slot's earlier lane disagrees.
        """
        stores = self.store_ranges
        if not stores:
            return
        iota = self.iota
        later = iota[:, None] > iota[None, :]
        for si, (sa, ss, ks) in enumerate(stores):
            s_lo, s_hi = int(sa.min()), int(sa.max()) + ss
            for sa2, ss2, _ks2 in stores[si + 1:]:
                if s_lo >= int(sa2.max()) + ss2 or int(sa2.min()) >= s_hi:
                    continue
                overlap = (sa[:, None] < sa2[None, :] + ss2) \
                    & (sa2[None, :] < sa[:, None] + ss)
                if (overlap & later).any():
                    raise _BatchFallback("conflicting store order")
            for la, ls, kl in self.load_ranges:
                if s_lo >= int(la.max()) + ls or int(la.min()) >= s_hi:
                    continue
                overlap = (sa[:, None] < la[None, :] + ls) \
                    & (la[None, :] < sa[:, None] + ss)
                bad = ~later if ks < kl else later.T
                if (overlap & bad).any():
                    raise _BatchFallback("load reads a staged store")

    def _commit(self) -> None:
        self.proc.hierarchy.bulk_replay(self.slots, self.n)
        for addrs, size, data in self.staged:
            self.buf[addrs[:, None] + self._offs(size)] = data
        core = self.proc.core
        summary = self.program.summary
        xv = core.xrf.values
        for reg in summary.x_written:
            xv[reg] = int(self.xb[reg, -1])
        fv = core.frf.values
        for reg in summary.f_written:
            fv[reg] = float(self.fb[reg, -1])
        raw = core.vrf.raw
        for reg in summary.v_written:
            raw[reg] = self.vb[reg, -1]


def _compile(nodes, limit: int):
    """Expand one iteration of ``nodes`` and bind batched handlers.

    Returns ``None`` when the body is too large (nested loops will be
    batched individually instead) or contains an unsupported op.
    """
    summary = summarize_nodes(nodes, limit)
    if summary is None or summary.has_vsetvli:
        return None
    ops = []
    for instr in summary.instrs:
        fn = _DISPATCH.get(instr.op)
        if fn is None:
            return None
        if instr.op in _SHIFT_IMM_OPS and not 0 <= instr.imm < 64:
            return None
        ops.append((fn, instr))
    return _Program(summary, ops)


def _shape(nodes) -> tuple:
    """``nodes`` as their blocks and the trip counts of nested loops."""
    return tuple((node.repeat, _shape(node.body)) if type(node) is Loop
                 else node for node in nodes)


class BatchReplayBackend(CompressedReplayBackend):
    """Compressed-replay with NumPy-batched middles (module docstring).

    Inherits the bracket timing arithmetic unchanged — with identical
    ``lead``/``trail``/``chunk``/``chunk_cap`` knobs, cycles,
    statistics and results are bit-identical to ``compressed-replay``.
    The initial ``chunk`` stays at the compressed default (the cache-
    warming transient needs densely-spaced probes either way) but the
    growth cap is much higher: once a loop settles, a replayed middle
    is nearly free here, so the probes — not the replay — dominate,
    and sparse probing is where the wall-clock win comes from.
    ``min_batch`` is the replay length below which batching is not
    attempted and ``expand_limit`` caps the unrolled body size (larger
    bodies fall back to sequential replay of the outer level, inside
    which nested loops are batched individually).
    """

    name = "batch-replay"

    #: chunks that failed verification this often stay sequential
    _MAX_FAILURES = 3

    def __init__(self, lead: int = 3, trail: int = 3, chunk: int = 8,
                 min_body: int = 32, min_repeat: int = 16,
                 chunk_cap: int = 4096, chunk_growth: float = 2.0,
                 min_batch: int = 8, expand_limit: int = 4096):
        super().__init__(lead=lead, trail=trail, chunk=chunk,
                         min_body=min_body, min_repeat=min_repeat,
                         chunk_cap=chunk_cap, chunk_growth=chunk_growth)
        self.chunk_carry = True
        self.min_batch = min_batch
        self.expand_limit = expand_limit
        self._programs: dict[tuple, _Program | None] = {}

    def _program_for(self, nodes):
        """The compiled program of a body, once per body shape: a tile
        loop binds fresh loops every tile around the same blocks, so
        the shape (blocks plus nested trip counts) is what repeats, and
        its failure count carries across tiles.  The key holds its
        blocks, so their ids cannot be reused while it is cached."""
        key = _shape(nodes)
        try:
            return self._programs[key]
        except KeyError:
            program = self._programs[key] = _compile(nodes,
                                                     self.expand_limit)
            return program

    def _replay_nodes(self, proc, nodes, repeat: int,
                      at: float | None = None) -> None:
        if repeat < self.min_batch:
            super()._replay_nodes(proc, nodes, repeat, at)
            return
        program = self._program_for(nodes)
        if program is None or program.failures >= self._MAX_FAILURES:
            super()._replay_nodes(proc, nodes, repeat, at)
            return
        # probe: one exact sequential iteration measures the strides
        x_before = list(proc.core.xrf.values)
        super()._replay_nodes(proc, nodes, 1, at)
        run = _BatchRun(proc, program, repeat - 1)
        run.seed(x_before)
        try:
            run.execute()
        except _BatchFallback:
            program.failures += 1
            super()._replay_nodes(proc, nodes, repeat - 1, at)
