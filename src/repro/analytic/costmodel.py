"""Closed-form instruction and memory-access counts for the kernels.

The formulas mirror the kernel builders exactly for *vector*
instructions (validated instruction-for-instruction against generated
streams in ``tests/test_analytic.py``), which makes them usable at the
paper's full, unscaled layer sizes where the instruction-level
simulator would be infeasible.  Fig. 6 (memory accesses) is a pure
counting result, so the analytic model reproduces it exactly.

Scalar bookkeeping instructions (pointer setup and loop control) are
also counted exactly, mirroring the emission logic including the
1-vs-2-instruction ``li`` expansion.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import KernelError
from repro.kernels.builder import KernelOptions
from repro.kernels.dataflow import Dataflow

_VL = 16


@dataclass(frozen=True)
class KernelCost:
    """Static cost of one kernel execution."""

    vector_loads: int
    vector_stores: int
    vector_arith: int       #: all non-memory vector-engine instructions
    scalar_instructions: int
    v2s_moves: int          #: vector->scalar moves (subset of vector_arith)
    macs: int               #: vfmacc + vindexmac count

    @property
    def vector_mem_instrs(self) -> int:
        """The Fig. 6 metric: vector memory instructions."""
        return self.vector_loads + self.vector_stores

    @property
    def vector_instructions(self) -> int:
        return self.vector_loads + self.vector_stores + self.vector_arith

    @property
    def total_instructions(self) -> int:
        return self.vector_instructions + self.scalar_instructions


@dataclass(frozen=True)
class SpmmGeometry:
    """Shared tiling arithmetic for an SpMM of (rows x k) x (k x n)."""

    rows: int
    k: int
    n_cols: int
    nm_n: int
    nm_m: int
    options: KernelOptions

    def __post_init__(self):
        if self.k % self.options.tile_rows:
            raise KernelError(
                f"K={self.k} not a multiple of L={self.options.tile_rows}")
        if self.n_cols % _VL:
            raise KernelError(f"N={self.n_cols} not a multiple of VL={_VL}")
        if self.k % self.nm_m:
            raise KernelError(
                f"K={self.k} not a multiple of M={self.nm_m}")

    @property
    def k_tiles(self) -> int:
        return self.k // self.options.tile_rows

    @property
    def col_tiles(self) -> int:
        return self.n_cols // _VL

    @property
    def slots_tile(self) -> int:
        return self.options.tile_rows // self.nm_m * self.nm_n

    @property
    def slots_row(self) -> int:
        return self.k // self.nm_m * self.nm_n

    @property
    def groups(self) -> list[tuple[int, int]]:
        from repro.kernels.builder import row_groups

        return list(row_groups(self.rows, self.options.unroll))

    @property
    def main_groups(self) -> int:
        return self.rows // self.options.unroll

    @property
    def rest_groups(self) -> list[int]:
        return [s for _, s in self.groups[self.main_groups:]]


def _li_len(value: int) -> int:
    """Length in instructions of the builder's li() expansion."""
    return 1 if -2048 <= value < 2048 else 2


def _li_len_addr() -> int:
    """Pointer materializations always take the 2-instruction form in
    practice (simulated-memory addresses exceed 2047)."""
    return 2


def indexmac_spmm_cost(geom: SpmmGeometry) -> KernelCost:
    """Cost of Algorithm 3 (B-stationary, the proposed kernel)."""
    opt = geom.options
    tiles = geom.k_tiles * geom.col_tiles
    rows, slots = geom.rows, geom.slots_tile

    # vector memory
    preload = opt.tile_rows * tiles
    a_loads = 2 * rows * tiles
    c_loads = rows * (geom.k_tiles - 1) * geom.col_tiles \
        if opt.init_c_zero else rows * tiles
    vloads = preload + a_loads + c_loads
    vstores = rows * tiles

    # vector arithmetic
    v2s = rows * slots * tiles          # one vmv.x.s per stored non-zero
    indexmac = rows * slots * tiles
    slides = 2 * rows * slots * tiles
    vadd = rows * tiles                  # index transform
    vmv_init = rows * geom.col_tiles if opt.init_c_zero else 0
    vsetvli = 1
    varith = v2s + indexmac + slides + vadd + vmv_init + vsetvli

    scalar = _indexmac_scalar(geom)
    return KernelCost(vector_loads=vloads, vector_stores=vstores,
                      vector_arith=varith, scalar_instructions=scalar,
                      v2s_moves=v2s, macs=indexmac)


def _indexmac_scalar(geom: SpmmGeometry) -> int:
    opt = geom.options
    tiles = geom.k_tiles * geom.col_tiles
    li_a = _li_len_addr()
    vreg_base = 32 - opt.tile_rows
    per_tile = li_a + _li_len(geom.n_cols * 4)  # B pointer + stride
    per_tile += opt.tile_rows                    # preload pointer bumps
    if geom.main_groups:
        size = opt.unroll
        per_tile += 3 * size * li_a              # val/idx/C pointers
        per_tile += _li_len(size * geom.slots_row * 4)   # A bump
        per_tile += _li_len(size * geom.n_cols * 4)      # C bump
        per_tile += _li_len(geom.main_groups)            # row counter
        per_tile += geom.main_groups * (3 * size + 2)    # bumps + loop ctl
    for size in geom.rest_groups:
        per_tile += 3 * size * li_a
    scalar = per_tile * tiles
    # XFORM constant (vreg_base - kt*L) — small early, 2 instrs for deep K
    xform = sum(_li_len(vreg_base - kt * opt.tile_rows)
                for kt in range(geom.k_tiles))
    scalar += xform * geom.col_tiles
    scalar += _li_len(_VL)  # set_vl: li AVL (vsetvli is counted as vector)
    return scalar


def rowwise_spmm_cost(geom: SpmmGeometry) -> KernelCost:
    """Cost of Algorithm 2 ('Row-Wise-SpMM') for any dataflow."""
    df = geom.options.dataflow
    if df is Dataflow.B_STATIONARY:
        return _rowwise_b_stationary_cost(geom)
    if df is Dataflow.C_STATIONARY:
        return _rowwise_c_stationary_cost(geom)
    if df is Dataflow.A_STATIONARY:
        return _rowwise_a_stationary_cost(geom)
    raise KernelError(f"unknown dataflow {df!r}")  # pragma: no cover


def _inner_ops(iters: int):
    """(v2s, b_loads, macs, slides) of the baseline inner loop."""
    return 2 * iters, iters, iters, 2 * iters


def _rowwise_b_stationary_cost(geom: SpmmGeometry) -> KernelCost:
    opt = geom.options
    tiles = geom.k_tiles * geom.col_tiles
    rows, slots = geom.rows, geom.slots_tile
    iters = rows * slots * tiles
    v2s, b_loads, macs, slides = _inner_ops(iters)

    a_loads = 2 * rows * tiles
    c_loads = rows * (geom.k_tiles - 1) * geom.col_tiles \
        if opt.init_c_zero else rows * tiles
    vloads = b_loads + a_loads + c_loads
    vstores = rows * tiles
    vadd = rows * tiles
    vmv_init = rows * geom.col_tiles if opt.init_c_zero else 0
    varith = v2s + macs + slides + vadd + vmv_init + 1

    # scalar: same shape as the proposed kernel minus the preload block
    li_a = _li_len_addr()
    per_tile = li_a  # XFORM holds an address here (always lui+addi)
    if geom.main_groups:
        size = opt.unroll
        per_tile += 3 * size * li_a
        per_tile += _li_len(size * geom.slots_row * 4)
        per_tile += _li_len(size * geom.n_cols * 4)
        per_tile += _li_len(geom.main_groups)
        per_tile += geom.main_groups * (3 * size + 2)
    for size in geom.rest_groups:
        per_tile += 3 * size * li_a
    scalar = per_tile * tiles + _li_len(_VL)
    return KernelCost(vector_loads=vloads, vector_stores=vstores,
                      vector_arith=varith, scalar_instructions=scalar,
                      v2s_moves=v2s, macs=macs)


def _rowwise_c_stationary_cost(geom: SpmmGeometry) -> KernelCost:
    rows, slots = geom.rows, geom.slots_tile
    iters = rows * slots * geom.k_tiles * geom.col_tiles
    v2s, b_loads, macs, slides = _inner_ops(iters)

    a_loads = 2 * rows * geom.k_tiles * geom.col_tiles
    vloads = b_loads + a_loads           # C never loaded
    vstores = rows * geom.col_tiles      # C stored once per (row, jt)
    vadd = rows * geom.k_tiles * geom.col_tiles
    vmv_init = rows * geom.col_tiles
    varith = v2s + macs + slides + vadd + vmv_init + 1

    li_a = _li_len_addr()
    scalar = 0
    for _, size in geom.groups:
        per_jt = li_a                        # XFORM
        per_jt += 3 * size * li_a            # pointers
        per_jt += _li_len(geom.k_tiles)      # kt counter
        per_jt += geom.k_tiles * (2 * size + 2)  # bumps + loop ctl
        scalar += per_jt * geom.col_tiles
    scalar += _li_len(_VL)
    return KernelCost(vector_loads=vloads, vector_stores=vstores,
                      vector_arith=varith, scalar_instructions=scalar,
                      v2s_moves=v2s, macs=macs)


def _rowwise_a_stationary_cost(geom: SpmmGeometry) -> KernelCost:
    opt = geom.options
    rows, slots = geom.rows, geom.slots_tile
    iters = rows * slots * geom.k_tiles * geom.col_tiles
    v2s, b_loads, macs, slides = _inner_ops(iters)

    a_loads = 2 * rows * geom.k_tiles    # loaded once per (kt, row)
    c_loads = rows * (geom.k_tiles - 1) * geom.col_tiles \
        if opt.init_c_zero else rows * geom.k_tiles * geom.col_tiles
    vloads = b_loads + a_loads + c_loads
    vstores = rows * geom.k_tiles * geom.col_tiles
    copies = 2 * rows * geom.k_tiles * geom.col_tiles  # vmv.v.v scratch
    vadd = rows * geom.k_tiles * geom.col_tiles
    vmv_init = rows * geom.col_tiles if opt.init_c_zero else 0
    varith = v2s + macs + slides + copies + vadd + vmv_init + 1

    li_a = _li_len_addr()
    scalar = 0
    for _, size in geom.groups:
        per_group = 2 * size * li_a + size * li_a   # A ptrs + C ptrs
        per_group += geom.col_tiles * (li_a + size)  # XFORM + C bumps
        scalar += per_group * geom.k_tiles
    scalar += _li_len(_VL)
    return KernelCost(vector_loads=vloads, vector_stores=vstores,
                      vector_arith=varith, scalar_instructions=scalar,
                      v2s_moves=v2s, macs=macs)


def spmm_cost(kernel: str, rows: int, k: int, n_cols: int,
              nm_n: int, nm_m: int,
              options: KernelOptions | None = None) -> KernelCost:
    """Cost of an N:M kernel (by ``SPECS`` name) on a given SpMM geometry."""
    geom = SpmmGeometry(rows=rows, k=k, n_cols=n_cols, nm_n=nm_n,
                        nm_m=nm_m, options=options or KernelOptions())
    if kernel == "indexmac-spmm":
        return indexmac_spmm_cost(geom)
    if kernel == "rowwise-spmm":
        return rowwise_spmm_cost(geom)
    raise KernelError(f"unknown kernel {kernel!r}")


def memory_access_reduction(rows: int, k: int, n_cols: int,
                            nm_n: int, nm_m: int,
                            options: KernelOptions | None = None) -> float:
    """Fractional reduction in vector memory instructions (Fig. 6)."""
    base = spmm_cost("rowwise-spmm", rows, k, n_cols, nm_n, nm_m, options)
    prop = spmm_cost("indexmac-spmm", rows, k, n_cols, nm_n, nm_m, options)
    return 1.0 - prop.vector_mem_instrs / base.vector_mem_instrs
