"""Emission pass: lower a planned kernel into the loop-annotated Trace IR.

One emitter replaces the four historical hand-written trace generators.
The loop *nest* is selected by the schedule's dataflow (B-/C-/A-
stationary for N:M kernels, plus the fixed dense and CSR nests) and the
per-non-zero *inner body* by the spec's compute style (memory-gathered
``vfmacc`` vs. VRF-indexed ``vindexmac`` vs. scalar CSR gather), so a
new kernel variant is a new (spec, schedule) pair — not a new emitter.

Register-driven loops (unrolled row groups, k-tile walks, per-non-zero
loops) are emitted through :meth:`TraceBuilder.loop` and marked steady,
so batch-replay timing keeps compressing.  The tile levels of each
nest (column tiles, k-tiles, and the row groups of the nests that
re-materialise their pointers per group) are emitted once, as
:meth:`TraceBuilder.tile_loop` templates whose pointers are affine in
the tile indices, so a trace costs O(template) to build however many
tiles it covers.  A tile whose body differs is peeled into its own
range: the first k-tile when ``init_c_zero`` zero-fills C there, and
any k-tiles where an ``li`` changes its instruction count.  The
expansions are instruction-for-instruction identical to the historical
streams (pinned by ``tests/test_compiler_golden.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import KernelError
from repro.isa.encoding import vtype_e32m1
from repro.isa.instructions import I
from repro.isa.trace import Trace, TraceBuilder, li_length
from repro.kernels.builder import loop_control
from repro.kernels.compiler.regalloc import RegisterPlan
from repro.kernels.compiler.spec import KernelSpec, Schedule
from repro.kernels.compiler.tiling import TilePlan
from repro.kernels.dataflow import Dataflow

__all__ = ["EmitContext", "emit_trace"]


@dataclass(frozen=True)
class EmitContext:
    """Everything the emitter needs: the output of the earlier passes."""

    spec: KernelSpec
    schedule: Schedule  #: normalized (concrete b_residency)
    staged: object
    tiles: TilePlan
    regs: RegisterPlan


def emit_trace(ctx: EmitContext) -> Trace:
    """Emit the full kernel trace for one lowered (spec, schedule)."""
    tb = TraceBuilder()
    tb.li(ctx.regs.avl, ctx.tiles.vlmax)
    tb.emit(I.vsetvli(0, ctx.regs.avl, vtype_e32m1()))
    if ctx.tiles.row_count == 0:
        # an empty shard (more cores than rows): nothing past the
        # prologue, so the idle core contributes ~0 to the makespan
        return tb.build()
    operand = ctx.spec.operand
    if operand == "dense":
        _nest_dense(tb, ctx)
    elif operand == "csr":
        _nest_csr(tb, ctx)
    elif ctx.schedule.dataflow is Dataflow.B_STATIONARY:
        _nest_b_stationary(tb, ctx)
    elif ctx.schedule.dataflow is Dataflow.C_STATIONARY:
        _nest_c_stationary(tb, ctx)
    elif ctx.schedule.dataflow is Dataflow.A_STATIONARY:
        _nest_a_stationary(tb, ctx)
    else:  # pragma: no cover - normalize_schedule rejects these
        raise KernelError(f"unschedulable dataflow "
                          f"{ctx.schedule.dataflow!r} for {ctx.spec.name}")
    return tb.build()


# ----------------------------------------------------------------------
# shared fragments
# ----------------------------------------------------------------------
def _idx_base(ctx: EmitContext) -> int:
    """Base address of A's column indices per the spec's encoding."""
    if ctx.spec.index_source == "scaled":
        return ctx.staged.col_idx_scaled_addr
    return ctx.staged.col_idx_raw_addr


def _init_acc(tb: TraceBuilder, ctx: EmitContext, size: int,
              first_k: bool) -> None:
    """Zero-fill or load the C accumulators of one unroll group."""
    rg = ctx.regs
    for r in range(size):
        if first_k:
            tb.emit(I.vmv_v_i(rg.v_acc[r], 0))
        else:
            tb.emit(I.vle32(rg.v_acc[r], rg.c_ptr[r]))


def _inner_loop(tb: TraceBuilder, ctx: EmitContext, size: int,
                val_regs=None, idx_regs=None) -> None:
    """The per-stored-non-zero steady loop, per the compute style.

    ``mac-mem`` is the paper's Algorithm 2 lines 7-12 (six instructions
    per lane, one vector load of a B row); ``indexmac-vrf`` is
    Algorithm 3 lines 10-13 (four instructions, zero memory accesses).
    """
    rg = ctx.regs
    val_regs = rg.v_values if val_regs is None else val_regs
    idx_regs = rg.v_colidx if idx_regs is None else idx_regs
    with tb.loop(ctx.tiles.slots_tile, label="nnz-slots"):
        for r in range(size):
            tb.emit(I.vmv_x_s(rg.t[r], idx_regs[r]))
        if ctx.spec.compute == "indexmac-vrf":
            for r in range(size):
                tb.emit(I.vindexmac_vx(rg.v_acc[r], val_regs[r], rg.t[r]))
        else:
            for r in range(size):
                tb.emit(I.vle32(rg.v_brow[r], rg.t[r]))
            for r in range(size):
                tb.emit(I.vfmv_f_s(rg.fa[r], val_regs[r]))
            for r in range(size):
                tb.emit(I.vfmacc_vf(rg.v_acc[r], rg.fa[r], rg.v_brow[r]))
        for r in range(size):
            tb.emit(I.vslide1down_vx(val_regs[r], val_regs[r], 0))
        for r in range(size):
            tb.emit(I.vslide1down_vx(idx_regs[r], idx_regs[r], 0))


def _load_a_slices(tb: TraceBuilder, ctx: EmitContext, size: int) -> None:
    """Load values + col_idx vectors and apply the index transform."""
    rg = ctx.regs
    for r in range(size):
        tb.emit(I.vle32(rg.v_values[r], rg.val_ptr[r]))
    for r in range(size):
        tb.emit(I.vle32(rg.v_colidx[r], rg.idx_ptr[r]))
    for r in range(size):
        tb.emit(I.vadd_vx(rg.v_colidx[r], rg.v_colidx[r], rg.xform))


def _group_body(tb: TraceBuilder, ctx: EmitContext, size: int,
                first_k: bool) -> None:
    """One unroll group: load A and C, run the inner loop, store C."""
    rg = ctx.regs
    _load_a_slices(tb, ctx, size)
    _init_acc(tb, ctx, size, first_k)
    _inner_loop(tb, ctx, size)
    for r in range(size):
        tb.emit(I.vse32(rg.v_acc[r], rg.c_ptr[r]))


def _group_pointers(tb: TraceBuilder, ctx: EmitContext, size: int,
                    start, a_off, col_off) -> None:
    """Materialise the A/col_idx/C pointers of one unroll group."""
    st, rg = ctx.staged, ctx.regs
    idx_base = _idx_base(ctx)
    for r in range(size):
        tb.li_addr(rg.val_ptr[r],
                   st.values_addr + (start + r) * st.a_row_stride + a_off)
        tb.li_addr(rg.idx_ptr[r],
                   idx_base + (start + r) * st.a_row_stride + a_off)
        tb.li_addr(rg.c_ptr[r],
                   st.c_addr + (start + r) * st.c_row_stride + col_off)


def _b_tile_setup(tb: TraceBuilder, ctx: EmitContext, kt,
                  col_off) -> None:
    """Per-(jt, kt) B-tile preparation, per the B residency.

    ``memory``: line 5 of Algorithm 2 — one base address so the scaled
    col_idx becomes load addresses with a single ``vadd.vx``.
    ``vrf``: pre-load the L-row tile into ``v(32-L)..v31`` (not a
    steady loop: each row targets a different vector register), then
    the index transform turning a global k into a register number.
    """
    st, rg, tile = ctx.staged, ctx.regs, ctx.tiles.tile_rows
    if ctx.schedule.b_residency == "memory":
        tb.li_addr(rg.xform, st.b_addr + col_off)
        return
    tb.li_addr(rg.b_ptr, st.b_addr + kt * (tile * st.b_row_stride)
               + col_off)
    tb.li(rg.b_stride, st.b_row_stride)
    for row in range(tile):
        tb.emit(I.vle32(rg.vreg_base + row, rg.b_ptr),
                I.add(rg.b_ptr, rg.b_ptr, rg.b_stride))
    tb.li(rg.xform, rg.vreg_base - kt * tile)


# ----------------------------------------------------------------------
# tile ranges
# ----------------------------------------------------------------------
def _k_runs(ctx: EmitContext, li_of=None):
    """The k-tile ranges ``(start, stop, first_k)`` that share one body.

    The first k-tile is peeled off when ``init_c_zero`` zero-fills C
    there instead of loading it; ``li_of(kt)``, when given, is a value
    the body materialises with :func:`li`, and the range is split
    wherever that ``li`` changes its instruction count.
    """
    k_tiles = ctx.tiles.k_tiles
    runs = []
    start = 0
    if ctx.schedule.init_c_zero and k_tiles:
        runs.append((0, 1, True))
        start = 1
    while start < k_tiles:
        stop = start + 1
        if li_of is None:
            stop = k_tiles
        else:
            form = li_length(li_of(start))
            while stop < k_tiles and li_length(li_of(stop)) == form:
                stop += 1
        runs.append((start, stop, False))
        start = stop
    return runs


def _each_group(tb: TraceBuilder, ctx: EmitContext, body) -> None:
    """``body(start, size)`` per unroll group: the main groups as one
    tile loop (their first row is affine in the group index), then the
    remainder groups straight-line."""
    t = ctx.tiles
    if t.main:
        with tb.tile_loop(0, len(t.main), label="row-groups") as group:
            body(t.main[0][0] + group * t.unroll, t.unroll)
    for start, size in t.rest:
        body(start, size)


# ----------------------------------------------------------------------
# B-stationary: jt -> kt -> i  (shared by Algorithms 2 and 3)
# ----------------------------------------------------------------------
def _nest_b_stationary(tb: TraceBuilder, ctx: EmitContext) -> None:
    st, rg, t = ctx.staged, ctx.regs, ctx.tiles
    li_of = None
    if ctx.schedule.b_residency == "vrf":
        def li_of(kt):
            return rg.vreg_base - kt * t.tile_rows
    with tb.tile_loop(0, t.col_tiles, label="col-tiles") as jt:
        col_off = jt * (4 * t.vlmax)
        for k_start, k_stop, first_k in _k_runs(ctx, li_of):
            with tb.tile_loop(k_start, k_stop, label="k-tiles") as kt:
                _b_tile_setup(tb, ctx, kt, col_off)
                a_off = kt * (t.slots_tile * 4)
                if t.main:
                    size = t.unroll
                    _group_pointers(tb, ctx, size, t.main[0][0], a_off,
                                    col_off)
                    tb.li(rg.a_bump, size * st.a_row_stride)
                    tb.li(rg.c_bump, size * st.c_row_stride)
                    tb.li(rg.row_ctr, len(t.main))
                    with tb.loop(len(t.main), label="row-groups"):
                        _group_body(tb, ctx, size, first_k)
                        for r in range(size):
                            tb.emit(I.add(rg.val_ptr[r], rg.val_ptr[r],
                                          rg.a_bump),
                                    I.add(rg.idx_ptr[r], rg.idx_ptr[r],
                                          rg.a_bump),
                                    I.add(rg.c_ptr[r], rg.c_ptr[r],
                                          rg.c_bump))
                        tb.emit(loop_control(rg.row_ctr))
                for start, size in t.rest:
                    _group_pointers(tb, ctx, size, start, a_off, col_off)
                    _group_body(tb, ctx, size, first_k)


# ----------------------------------------------------------------------
# C-stationary: i -> jt -> kt  (C never reloaded; B locality sacrificed)
# ----------------------------------------------------------------------
def _nest_c_stationary(tb: TraceBuilder, ctx: EmitContext) -> None:
    st, rg, t = ctx.staged, ctx.regs, ctx.tiles
    idx_base = _idx_base(ctx)
    bump = t.slots_tile * 4

    def group(start, size):
        with tb.tile_loop(0, t.col_tiles, label="col-tiles") as jt:
            col_off = jt * (4 * t.vlmax)
            tb.li_addr(rg.xform, st.b_addr + col_off)
            for r in range(size):
                tb.li_addr(rg.val_ptr[r],
                           st.values_addr + (start + r) * st.a_row_stride)
                tb.li_addr(rg.idx_ptr[r],
                           idx_base + (start + r) * st.a_row_stride)
                tb.li_addr(rg.c_ptr[r],
                           st.c_addr + (start + r) * st.c_row_stride
                           + col_off)
                tb.emit(I.vmv_v_i(rg.v_acc[r], 0))  # C-stationary: once
            tb.li(rg.kt_ctr, t.k_tiles)
            with tb.loop(t.k_tiles, label="k-tiles"):
                _load_a_slices(tb, ctx, size)
                _inner_loop(tb, ctx, size)
                for r in range(size):
                    tb.emit(I.addi(rg.val_ptr[r], rg.val_ptr[r], bump),
                            I.addi(rg.idx_ptr[r], rg.idx_ptr[r], bump))
                tb.emit(loop_control(rg.kt_ctr))
            for r in range(size):
                tb.emit(I.vse32(rg.v_acc[r], rg.c_ptr[r]))

    _each_group(tb, ctx, group)


# ----------------------------------------------------------------------
# A-stationary: kt -> i -> jt  (A slice loaded once, copied per jt)
# ----------------------------------------------------------------------
def _nest_a_stationary(tb: TraceBuilder, ctx: EmitContext) -> None:
    st, rg, t = ctx.staged, ctx.regs, ctx.tiles
    idx_base = _idx_base(ctx)
    for k_start, k_stop, first_k in _k_runs(ctx):
        with tb.tile_loop(k_start, k_stop, label="k-tiles") as kt:
            a_off = kt * (t.slots_tile * 4)

            def group(start, size):
                # load the A slice once per (kt, row group)
                for r in range(size):
                    tb.li_addr(rg.val_ptr[r],
                               st.values_addr
                               + (start + r) * st.a_row_stride + a_off)
                    tb.li_addr(rg.idx_ptr[r],
                               idx_base + (start + r) * st.a_row_stride
                               + a_off)
                    tb.emit(I.vle32(rg.v_values[r], rg.val_ptr[r]),
                            I.vle32(rg.v_colidx[r], rg.idx_ptr[r]))
                for r in range(size):
                    tb.li_addr(rg.c_ptr[r],
                               st.c_addr + (start + r) * st.c_row_stride)
                with tb.tile_loop(0, t.col_tiles, label="col-tiles") as jt:
                    tb.li_addr(rg.xform, st.b_addr + jt * (4 * t.vlmax))
                    # working copies (the inner loop destroys them)
                    for r in range(size):
                        tb.emit(I.vmv_v_v(rg.v_scratch_val[r],
                                          rg.v_values[r]))
                    for r in range(size):
                        tb.emit(I.vmv_v_v(rg.v_scratch_idx[r],
                                          rg.v_colidx[r]))
                    for r in range(size):
                        tb.emit(I.vadd_vx(rg.v_scratch_idx[r],
                                          rg.v_scratch_idx[r], rg.xform))
                    _init_acc(tb, ctx, size, first_k)
                    _inner_loop(tb, ctx, size, rg.v_scratch_val,
                                rg.v_scratch_idx)
                    for r in range(size):
                        tb.emit(I.vse32(rg.v_acc[r], rg.c_ptr[r]))
                    for r in range(size):
                        tb.emit(I.addi(rg.c_ptr[r], rg.c_ptr[r],
                                       4 * t.vlmax))

            _each_group(tb, ctx, group)


# ----------------------------------------------------------------------
# dense row-wise (Algorithm 1): one shared B row per unroll group
# ----------------------------------------------------------------------
def _nest_dense(tb: TraceBuilder, ctx: EmitContext) -> None:
    st, rg, t = ctx.staged, ctx.regs, ctx.tiles
    with tb.tile_loop(0, t.col_tiles, label="col-tiles") as jt:
        col_off = jt * (4 * t.vlmax)
        for k_start, k_stop, first_k in _k_runs(ctx):
            with tb.tile_loop(k_start, k_stop, label="k-tiles") as kt:
                a_off = kt * (4 * t.vlmax)

                def group(start, size):
                    for r in range(size):
                        tb.li_addr(rg.val_ptr[r],
                                   st.a_addr + (start + r) * st.a_row_stride
                                   + a_off)
                        tb.emit(I.vle32(rg.v_values[r], rg.val_ptr[r]))
                    for r in range(size):
                        tb.li_addr(rg.c_ptr[r],
                                   st.c_addr + (start + r) * st.c_row_stride
                                   + col_off)
                        if first_k:
                            tb.emit(I.vmv_v_i(rg.v_acc[r], 0))
                        else:
                            tb.emit(I.vle32(rg.v_acc[r], rg.c_ptr[r]))
                    tb.li_addr(rg.b_ptr,
                               st.b_addr + kt * (t.vlmax * st.b_row_stride)
                               + col_off)
                    tb.li(rg.b_stride, st.b_row_stride)
                    with tb.loop(t.vlmax, label="b-rows"):
                        tb.emit(I.vle32(rg.v_brow[0], rg.b_ptr),
                                I.add(rg.b_ptr, rg.b_ptr, rg.b_stride))
                        for r in range(size):
                            tb.emit(I.vfmv_f_s(rg.fa[r], rg.v_values[r]))
                        for r in range(size):
                            tb.emit(I.vfmacc_vf(rg.v_acc[r], rg.fa[r],
                                                rg.v_brow[0]))
                        for r in range(size):
                            tb.emit(I.vslide1down_vx(rg.v_values[r],
                                                     rg.v_values[r], 0))
                    for r in range(size):
                        tb.emit(I.vse32(rg.v_acc[r], rg.c_ptr[r]))

                _each_group(tb, ctx, group)


# ----------------------------------------------------------------------
# unstructured CSR: C-stationary over column tiles, scalar metadata
# ----------------------------------------------------------------------
def _nest_csr(tb: TraceBuilder, ctx: EmitContext) -> None:
    st, rg, t = ctx.staged, ctx.regs, ctx.tiles
    for i in range(t.row_start, t.row_start + t.row_count):
        lo, hi = st.indptr[i], st.indptr[i + 1]
        nnz = hi - lo
        for jt in range(t.col_tiles):
            col_off = jt * 4 * t.vlmax
            # b_base for this column tile and the B row stride
            tb.li_addr(rg.xform, st.b_addr + col_off)
            tb.li(rg.b_stride, st.b_row_stride)
            tb.li_addr(rg.val_ptr[0], st.data_addr + 4 * lo)
            tb.li_addr(rg.idx_ptr[0], st.indices_addr + 4 * lo)
            tb.emit(I.vmv_v_i(rg.v_acc[0], 0))
            with tb.loop(nnz, label="nnz"):
                tb.emit(I.flw(rg.fa[0], rg.val_ptr[0], 0),
                        I.lw(rg.t[0], rg.idx_ptr[0], 0),
                        I.mul(rg.t[0], rg.t[0], rg.b_stride),
                        I.add(rg.t[0], rg.t[0], rg.xform),
                        I.vle32(rg.v_brow[0], rg.t[0]),
                        I.vfmacc_vf(rg.v_acc[0], rg.fa[0], rg.v_brow[0]),
                        I.addi(rg.val_ptr[0], rg.val_ptr[0], 4),
                        I.addi(rg.idx_ptr[0], rg.idx_ptr[0], 4))
            tb.li_addr(rg.c_ptr[0], st.c_addr + i * st.c_row_stride + col_off)
            tb.emit(I.vse32(rg.v_acc[0], rg.c_ptr[0]))
