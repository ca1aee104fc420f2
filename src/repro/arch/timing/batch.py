"""Batch-replay: time a bracket of each steady loop, replay the rest.

Kernels for tiled GEMMs spend almost all their dynamic instructions in
steady-state loops whose iterations execute the *identical* instruction
sequence (pointers advance in registers).  Simulating every iteration in
detail is redundant — the insight behind trace-based models like TBM and
the stream-semantic steady-state argument of Scheffler et al.

Every steady loop long enough to be worth compressing is handled with a
**bracket**:

1. ``LEAD`` leading iterations are timed in full detail.  They really
   are slower (cold caches, pipeline and queue fill), and their true
   cost is kept verbatim.
2. The middle iterations are **replayed** through the functional core
   plus the memory hierarchy: registers, memory, cache tags and
   hit/miss/DRAM statistics advance exactly (the access order is the
   true program order), while the per-access clocks are saved and
   restored so the bandwidth model is not polluted by the frozen-time
   walk.
3. The replay proceeds in geometrically growing chunks (``CHUNK`` up
   to ``CHUNK_CAP``, factor ``CHUNK_GROWTH``), each followed by a
   short timed probe, and ends with ``TRAIL`` detailed trailing
   iterations.  Probes and trail pool into one warm per-iteration
   rate sample: cycles, L2 misses, and DRAM row misses per iteration.
   A loop re-entered under an outer loop resumes at the chunk size
   its last entry settled at.
4. Each chunk is then priced ``base x n + per_miss x excess_misses``
   plus a *signed* DRAM row-miss correction.  ``base`` is the pooled
   warm per-iteration cost; excess L2 misses were counted *exactly*
   during the replay and are charged at the marginal miss cost taken
   from the contrast between the post-first lead iterations and the
   pool (the first lead iteration is excluded: its surcharge is
   pipeline fill, not misses).  The row correction charges each
   chunk's row-miss surplus or deficit relative to the pooled rate at
   the cycles-per-row-miss slope regressed from the probe samples —
   per-iteration cost oscillates with DRAM row crossings even at
   dead-constant miss counts, and the replay counts row misses
   exactly, so large chunks stay honest without extra timed
   iterations.  Instruction-class counters grow by the exact
   per-iteration mix measured over the trail.

Nested steady loops compress recursively — a timed outer iteration may
itself contain a bracketed inner loop.  A tile loop is timed one tile
iteration at a time, each bound to its own fresh nodes, exactly as the
unrolled nest would be.  Tight loop bodies (fewer than ``MIN_BODY``
instructions, e.g. the per-non-zero inner loops) and loops of fewer
than ``MIN_REPEAT`` trips stay fully detailed: their per-iteration
completion-time deltas are dominated by cross-iteration pipelining and
do not extrapolate reliably.

A replayed chunk runs as three vectorised phases, and is proved per
chunk to match the per-instruction replay:

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
failed check merely falls back to the sequential replay, which executes
every instruction through the functional core: results, memory images,
access counts and therefore the bracket's cycles are identical on
either path.

Accuracy contract: functional results are bit-exact; instruction-class
counts (including the Fig. 6 vector-memory-access metric) and cache/
DRAM access counts are exact; cycles are approximate (see
:data:`repro.analytic.validation.BACKEND_CYCLE_TOLERANCES`).  The
relative cycle error of a bracket shrinks as loops grow (the transient
fraction falls), so accuracy *improves* exactly where replay pays off.
"""

from __future__ import annotations

import operator

import numpy as np

from repro.arch.timing.base import BackendResult, TimingBackend
from repro.isa.instructions import (
    BRANCH_OPS,
    OPCODES,
    SCALAR_LOAD_OPS,
    SCALAR_STORE_OPS,
    VECTOR_MEM_OPS,
    Op,
)
from repro.isa.trace import Block, Loop, summarize_nodes

#: Detailed iterations before (``LEAD``; at least 3, so the marginal
#: miss cost has two contrast samples) and after (``TRAIL``) each
#: bracketed loop's replayed middle.
LEAD = 3
TRAIL = 3
#: Loop-body size and trip count below which loops stay fully detailed
#: (``MIN_REPEAT`` must exceed ``LEAD + TRAIL``).
MIN_BODY = 32
MIN_REPEAT = 16
#: The first replayed chunk and its geometric growth.  The first chunk
#: stays small — the cache-warming transient right after the lead needs
#: densely-spaced probes or its excess misses get priced at the wrong
#: marginal cost — but once the loop settles a replayed middle is
#: nearly free, so the probes dominate and may be sparse.
CHUNK = 8
CHUNK_GROWTH = 2.0
CHUNK_CAP = 4096
#: Replays shorter than this run per instruction.
MIN_BATCH = 8
#: Largest unrolled body batched as one program; a larger body replays
#: its outer level per instruction, batching its nested loops one by one.
EXPAND_LIMIT = 4096

#: ``op -> (vector, write, scalar bytes)`` of every memory op.
_ACCESSES = {op: (op in VECTOR_MEM_OPS, spec.timing in ("store", "vstore"),
                  spec.size)
             for op, spec in OPCODES.items()
             if spec.timing in ("load", "store", "vload", "vstore")}


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


class BatchReplayBackend(TimingBackend):
    """Steady-loop bracket timing with batched replay (module docstring)."""

    name = "batch-replay"

    #: chunks that failed verification this often stay sequential
    _MAX_FAILURES = 3

    def __init__(self):
        #: Per-loop-node carry of the settled chunk size across entries
        #: (``{id(loop): (loop, chunk)}``).  A loop nested under an
        #: outer loop is re-entered once per timed outer iteration with
        #: its steady-state behaviour unchanged, so restarting the
        #: growth schedule from ``CHUNK`` every entry would re-pay the
        #: dense early probes for nothing.
        self._chunk_start: dict[int, tuple] = {}
        self._programs: dict[tuple, _Program | None] = {}

    def run(self, proc, trace) -> BackendResult:
        timed = self._time_nodes(proc, trace.nodes)
        stats = proc.stats()
        return self.record(stats, timed, trace.dynamic_length)

    # ------------------------------------------------------------------
    def _time_nodes(self, proc, nodes) -> int:
        """Time a node sequence in detail (compressing steady loops);
        returns how many instructions received detailed timing."""
        timed = 0
        handlers = proc._handlers
        for node in nodes:
            kind = type(node)
            if kind is Block:
                for instr in node.instrs:
                    handlers[instr.op](instr)
                timed += len(node.instrs)
            elif kind is Loop:
                timed += self._time_loop(proc, node)
            else:
                for body in node.iterations():
                    timed += self._time_nodes(proc, body)
        return timed

    def _time_loop(self, proc, loop) -> int:
        body = loop.body
        timed = 0
        if (not loop.steady or loop.repeat < MIN_REPEAT
                or loop.body_length < MIN_BODY):
            for _ in range(loop.repeat):
                timed += self._time_nodes(proc, body)
            return timed

        # ---- lead: the true (cold) start-up cost, kept verbatim; the
        # post-first iterations double as the high-miss contrast sample
        late_cycles = 0.0
        late_misses = 0.0
        for index in range(LEAD):
            c0, m0 = proc.cycles, proc.hierarchy.l2.misses
            timed += self._time_nodes(proc, body)
            if index > 0:
                late_cycles += proc.cycles - c0
                late_misses += proc.hierarchy.l2.misses - m0
        late_cycles /= LEAD - 1
        late_misses /= LEAD - 1

        # ---- middle: replay chunks, each followed by a short timed
        # probe.  The chunks grow geometrically: cache behaviour drifts
        # fastest right after the cold start, so probes are dense early
        # and sparse once the loop settles.  Pricing is deferred — every
        # probe contributes to one pooled per-iteration rate, because a
        # single short probe aliases the loop's periodic noise (streams
        # crossing DRAM rows) and would mis-price a large chunk by
        # whatever phase it happened to land on.  Per-chunk drift is
        # still captured exactly, through each chunk's own counted
        # misses and row misses (see the pricing pass below).
        replayed_total = 0
        remaining = loop.repeat - LEAD
        chunk = float(CHUNK)
        entry = self._chunk_start.get(id(loop))
        if entry is not None and entry[0] is loop:
            chunk = entry[1]
        l2 = proc.hierarchy.l2
        dram = proc.hierarchy.dram
        row_penalty = (dram.config.row_miss_latency
                       - dram.config.row_hit_latency)
        chunks = []            # (n, chunk_misses, chunk_rowmiss)
        samples = []           # per timed iteration: (cycles, rowmiss)
        probe_misses = 0.0
        while remaining > TRAIL + 1:
            n = min(int(chunk), remaining - TRAIL - 1)
            chunk = min(chunk * CHUNK_GROWTH, float(CHUNK_CAP))
            clocks = proc.hierarchy.clock_state()
            m0, r0 = l2.misses, dram.row_misses
            self._replay_nodes(proc, body, n, proc.cycles)
            chunks.append((n, l2.misses - m0, dram.row_misses - r0))
            proc.hierarchy.restore_clock_state(clocks)
            # probe: a couple of timed iterations, sampled individually
            probe_len = min(2, remaining - n - TRAIL)
            for _ in range(probe_len):
                c0, m0, r0 = proc.cycles, l2.misses, dram.row_misses
                timed += self._time_nodes(proc, body)
                samples.append((proc.cycles - c0, dram.row_misses - r0))
                probe_misses += l2.misses - m0
            remaining -= n + probe_len
            replayed_total += n
        if replayed_total:
            self._chunk_start[id(loop)] = (loop, chunk)

        # ---- trail: detailed to the end; its window also yields the
        # exact per-iteration instruction mix, and its iterations join
        # the probe pool (they are steady-state samples like any probe)
        before = proc.counter_snapshot()
        trail_done = 0
        while remaining > 0:
            c0, m0, r0 = proc.cycles, l2.misses, dram.row_misses
            timed += self._time_nodes(proc, body)
            samples.append((proc.cycles - c0, dram.row_misses - r0))
            probe_misses += l2.misses - m0
            remaining -= 1
            trail_done += 1
        after = proc.counter_snapshot()
        counts = {key: (after[key] - before[key]) // trail_done
                  for key in proc.counter_keys()}

        # ---- price the replayed chunks from the pooled probe rates.
        # Base: pooled warm per-iteration cost.  Excess L2 misses are
        # charged at the marginal miss cost from the lead contrast.
        # Each chunk's row-miss surplus (or deficit — the correction is
        # signed) is charged at the *empirical* cycles-per-row-miss
        # slope regressed from the probe samples: per-iteration cost
        # oscillates with DRAM row crossings even when misses per
        # iteration are dead constant (write-backs and row re-opens
        # travel together), the replay counts row misses exactly, and
        # the fitted slope also absorbs the correlated write-back
        # traffic that a fixed row-reopen penalty would miss.  This
        # keeps arbitrarily large chunks honest without extra timed
        # iterations.
        pending_shift = 0.0
        if replayed_total:
            probe_iters = len(samples)
            probe_cycles = sum(c for c, _ in samples)
            probe_rowmiss = sum(r for _, r in samples)
            base = probe_cycles / probe_iters
            miss_rate = probe_misses / probe_iters
            rowmiss_rate = probe_rowmiss / probe_iters
            if late_misses > miss_rate and late_cycles > base:
                per_miss = (late_cycles - base) / (late_misses - miss_rate)
            else:
                per_miss = 0.0
            var = sum((r - rowmiss_rate) ** 2 for _, r in samples)
            if probe_iters >= 3 and var > 0.0:
                cov = sum((c - base) * (r - rowmiss_rate)
                          for c, r in samples)
                slope = min(max(cov / var, 0.0), 4.0 * row_penalty)
            else:
                slope = row_penalty
            for n, chunk_misses, chunk_rowmiss in chunks:
                excess = max(0.0, chunk_misses - miss_rate * n)
                estimate = base * n + per_miss * excess
                row_fix = slope * (chunk_rowmiss - rowmiss_rate * n)
                pending_shift += max(0.0, estimate + row_fix)
        proc.charge(counts, replayed_total, pending_shift)
        return timed

    # ------------------------------------------------------------------
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
            program = self._programs[key] = _compile(nodes, EXPAND_LIMIT)
            return program

    def _replay_nodes(self, proc, nodes, repeat: int,
                      at: float | None = None) -> None:
        """Execute ``repeat`` iterations of ``nodes`` without timing,
        as one verified batch where the body allows it (see the module
        docstring) and through :meth:`_replay_sequential` otherwise."""
        program = self._program_for(nodes) if repeat >= MIN_BATCH else None
        if program is None or program.failures >= self._MAX_FAILURES:
            self._replay_sequential(proc, nodes, repeat, at)
            return
        # probe: one exact sequential iteration measures the strides
        x_before = list(proc.core.xrf.values)
        self._replay_sequential(proc, nodes, 1, at)
        run = _BatchRun(proc, program, repeat - 1)
        run.seed(x_before)
        try:
            run.execute()
        except _BatchFallback:
            program.failures += 1
            self._replay_sequential(proc, nodes, repeat - 1, at)

    def _replay_sequential(self, proc, nodes, repeat: int,
                           at: float | None = None) -> None:
        """Execute ``repeat`` iterations of ``nodes`` one instruction at
        a time; nested loops go back through :meth:`_replay_nodes`.

        Every instruction runs through the functional core; memory
        instructions additionally probe the hierarchy at a frozen
        timestamp so cache contents and access statistics stay exact.
        ``at`` is that frozen timestamp; each replay entry point takes
        it explicitly (defaulting to the clock at entry) and passes it
        down through nested loops, so sibling nodes after a recursion
        never probe at a timestamp staler than their caller's.
        """
        core = proc.core
        execute = core.execute
        hierarchy = proc.hierarchy
        vector_access = hierarchy.vector_access
        scalar_access = hierarchy.scalar_access
        xv = core.xrf.values
        if at is None:
            at = proc.cycles
        for _ in range(repeat):
            for node in nodes:
                if type(node) is Block:
                    for instr in node.instrs:
                        access = _ACCESSES.get(instr.op)
                        if access is not None:
                            vector, write, size = access
                            if vector:
                                vector_access(xv[instr.rs1], 4 * core.vl,
                                              at, write)
                            else:
                                scalar_access(xv[instr.rs1] + instr.imm,
                                              size, at, write)
                        execute(instr)
                else:
                    self._replay_nodes(proc, node.body, node.repeat, at)
