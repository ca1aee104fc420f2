"""Memory staging of GEMM operands for the kernels.

One staging function per operand format of :data:`~repro.kernels.
compiler.SPECS`: :func:`stage_spmm` (N:M structured-sparse A),
:func:`stage_csr` (unstructured CSR A) and :func:`stage_dense` (dense
A, Algorithm 1).  Every staged kind records C's address and shape the
same way, so :func:`read_result` reads C back from any of them.

``stage_spmm`` writes the operands of ``C = A x B`` into simulated
memory in the layout the N:M kernels expect:

* ``values``      — float32, shape (rows, slots_per_row), the padded
  non-zero values of the N:M matrix A, row-major;
* ``col_idx_scaled`` — int32, same shape, holding **byte offsets**
  ``k * b_row_stride`` (k = global column index).  Algorithm 2 adds the
  tile base address with a single ``vadd.vx`` (line 5 of the paper's
  Algorithm 2) and uses the result directly as load addresses;
* ``col_idx_raw`` — int32, same shape, holding the plain global column
  index ``k``.  Algorithm 3 turns it into a vector-register number with
  a single ``vadd.vx`` of ``(vreg_base - k_tile_base)``;
* ``B``           — float32, row-major (k_padded, n_padded);
* ``C``           — float32, row-major (rows, n_padded), zero-filled.

All row strides are multiples of the 64-byte line size where it
matters (B and C, because ``n_padded`` is a multiple of VLMAX=16).
Every buffer gets one extra vector register's worth of tail padding so
that full-VL vector loads of partial tiles never fault.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.memory import FlatMemory
from repro.errors import KernelError, SimulationError
from repro.sparse.blocksparse import NMSparseMatrix
from repro.sparse.csr import CSRMatrix


@dataclass(frozen=True)
class StagedSpMM:
    """Addresses and geometry of one staged sparse-dense GEMM."""

    rows: int            #: rows of A (= rows of C)
    k: int               #: columns of A = rows of B (padded)
    n_cols: int          #: columns of B and C (padded, multiple of VL)
    nm_n: int            #: N of the N:M pattern
    nm_m: int            #: M of the N:M pattern
    slots_per_row: int   #: stored (value,index) slots per row of A
    values_addr: int
    col_idx_scaled_addr: int
    col_idx_raw_addr: int
    b_addr: int
    c_addr: int
    b_row_stride: int    #: bytes between consecutive rows of B
    c_row_stride: int    #: bytes between consecutive rows of C
    a_row_stride: int    #: bytes between rows of values/col_idx

    def slots_per_tile(self, tile_rows: int) -> int:
        """Stored slots of one row of A that fall in one k-tile."""
        return tile_rows // self.nm_m * self.nm_n

    def num_k_tiles(self, tile_rows: int) -> int:
        if self.k % tile_rows:
            raise KernelError(
                f"K={self.k} is not a multiple of the tile rows "
                f"L={tile_rows}; pad the operands first")
        return self.k // tile_rows

    def num_col_tiles(self, vlmax: int) -> int:
        if self.n_cols % vlmax:
            raise KernelError(
                f"N={self.n_cols} is not a multiple of VL={vlmax}")
        return self.n_cols // vlmax


def stage_spmm(mem: FlatMemory, a: NMSparseMatrix,
               b: np.ndarray) -> StagedSpMM:
    """Write A (structured-sparse) and B (dense) into simulated memory."""
    b = np.ascontiguousarray(b, dtype=np.float32)
    if b.ndim != 2:
        raise KernelError("B must be 2-D")
    if b.shape[0] != a.cols:
        raise KernelError(
            f"inner dimensions disagree: A is {a.shape}, B is {b.shape}")
    rows, k = a.shape
    n_cols = b.shape[1]
    if n_cols % 16:
        raise KernelError(
            f"N={n_cols} must be a multiple of VL=16; pad B and C first")

    slots = a.slots_per_row
    b_row_stride = 4 * n_cols
    pad = 64  # one full vector load of slack at the end of each buffer

    values_addr = mem.allocate(4 * rows * slots + pad)
    mem.write_array(values_addr, a.values)

    scaled = (a.col_idx.astype(np.int64) * b_row_stride)
    if scaled.size and scaled.max() >= 2**31:
        raise KernelError("B is too large for int32 byte offsets")
    col_idx_scaled_addr = mem.allocate(4 * rows * slots + pad)
    mem.write_array(col_idx_scaled_addr, scaled.astype(np.int32))

    col_idx_raw_addr = mem.allocate(4 * rows * slots + pad)
    mem.write_array(col_idx_raw_addr, a.col_idx)

    b_addr = mem.allocate(4 * k * n_cols + pad)
    mem.write_array(b_addr, b)

    c_addr = mem.allocate(4 * rows * n_cols + pad)
    mem.write_array(c_addr, np.zeros((rows, n_cols), dtype=np.float32))

    return StagedSpMM(
        rows=rows, k=k, n_cols=n_cols, nm_n=a.n, nm_m=a.m,
        slots_per_row=slots,
        values_addr=values_addr,
        col_idx_scaled_addr=col_idx_scaled_addr,
        col_idx_raw_addr=col_idx_raw_addr,
        b_addr=b_addr, c_addr=c_addr,
        b_row_stride=b_row_stride,
        c_row_stride=4 * n_cols,
        a_row_stride=4 * slots,
    )


def read_result(mem: FlatMemory, staged) -> np.ndarray:
    """Fetch the C matrix back out of simulated memory (any staged
    kind: all of them carry ``c_addr``, ``rows`` and ``n_cols``)."""
    return mem.read_array(staged.c_addr, np.float32,
                          (staged.rows, staged.n_cols))


def plan_spmm(rows: int, k: int, n_cols: int, n: int, m: int,
              memory_bytes: int) -> StagedSpMM:
    """The :class:`StagedSpMM` that :func:`stage_spmm` would produce,
    without materialising any operand arrays.

    Staging is deterministic: a fresh :class:`FlatMemory` allocates
    sequentially from address 64 with 64-byte alignment, so every
    address is a pure function of the (padded) GEMM geometry.  This
    replays the exact allocation sequence — same sizes, same order,
    same out-of-memory error at the same point — against a bump
    pointer instead of a buffer, so the engine's bulk analytic path
    can compile traces from geometry alone.

    ``k``/``n_cols`` are the *padded* dimensions (see
    :func:`repro.nn.workload.padded_gemm`).  The int32 byte-offset
    guard uses the worst-case column index ``k - 1`` where
    :func:`stage_spmm` inspects the actual indices; a geometry that
    fails here conservatively falls back to the materialising path,
    which decides exactly.
    """
    if n_cols % 16:
        raise KernelError(
            f"N={n_cols} must be a multiple of VL=16; pad B and C first")
    slots = k // m * n
    b_row_stride = 4 * n_cols
    pad = 64

    ptr = 64  # FlatMemory keeps address 0 unmapped

    def allocate(size: int) -> int:
        nonlocal ptr
        base = (ptr + 63) & ~63
        if base + size > memory_bytes:
            raise SimulationError(
                f"out of simulated memory: need {size} bytes at "
                f"{base:#x}, have {memory_bytes:#x} total")
        ptr = base + size
        return base

    values_addr = allocate(4 * rows * slots + pad)
    if slots and (k - 1) * b_row_stride >= 2**31:
        raise KernelError("B is too large for int32 byte offsets")
    col_idx_scaled_addr = allocate(4 * rows * slots + pad)
    col_idx_raw_addr = allocate(4 * rows * slots + pad)
    b_addr = allocate(4 * k * n_cols + pad)
    c_addr = allocate(4 * rows * n_cols + pad)

    return StagedSpMM(
        rows=rows, k=k, n_cols=n_cols, nm_n=n, nm_m=m,
        slots_per_row=slots,
        values_addr=values_addr,
        col_idx_scaled_addr=col_idx_scaled_addr,
        col_idx_raw_addr=col_idx_raw_addr,
        b_addr=b_addr, c_addr=c_addr,
        b_row_stride=b_row_stride,
        c_row_stride=4 * n_cols,
        a_row_stride=4 * slots,
    )


@dataclass(frozen=True)
class StagedDense:
    """Staged operands of a dense row-wise GEMM (Algorithm 1)."""

    rows: int
    k: int
    n_cols: int
    a_addr: int
    b_addr: int
    c_addr: int
    a_row_stride: int
    b_row_stride: int
    c_row_stride: int


def stage_dense(mem: FlatMemory, a: np.ndarray, b: np.ndarray) -> StagedDense:
    """Write dense A and B into simulated memory (for Algorithm 1)."""
    a = np.ascontiguousarray(a, dtype=np.float32)
    b = np.ascontiguousarray(b, dtype=np.float32)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise KernelError(
            f"bad dense GEMM shapes: A {a.shape}, B {b.shape}")
    rows, k = a.shape
    n_cols = b.shape[1]
    if n_cols % 16 or k % 16:
        raise KernelError("dense kernel requires K and N multiples of VL=16")
    pad = 64
    a_addr = mem.allocate(4 * rows * k + pad)
    mem.write_array(a_addr, a)
    b_addr = mem.allocate(4 * k * n_cols + pad)
    mem.write_array(b_addr, b)
    c_addr = mem.allocate(4 * rows * n_cols + pad)
    mem.write_array(c_addr, np.zeros((rows, n_cols), dtype=np.float32))
    return StagedDense(
        rows=rows, k=k, n_cols=n_cols,
        a_addr=a_addr, b_addr=b_addr, c_addr=c_addr,
        a_row_stride=4 * k, b_row_stride=4 * n_cols,
        c_row_stride=4 * n_cols,
    )



@dataclass(frozen=True)
class StagedCSR:
    """Staged operands of an unstructured CSR x dense GEMM."""

    rows: int
    k: int
    n_cols: int
    data_addr: int
    indices_addr: int
    b_addr: int
    c_addr: int
    b_row_stride: int
    c_row_stride: int
    indptr: tuple[int, ...]


def stage_csr(mem: FlatMemory, a: CSRMatrix, b: np.ndarray) -> StagedCSR:
    """Write a CSR matrix and dense B into simulated memory."""
    b = np.ascontiguousarray(b, dtype=np.float32)
    if b.shape[0] != a.cols:
        raise KernelError(
            f"inner dimensions disagree: A is {a.shape}, B is {b.shape}")
    n_cols = b.shape[1]
    if n_cols % 16:
        raise KernelError("N must be a multiple of VL=16")
    pad = 64
    data_addr = mem.allocate(4 * max(a.nnz, 1) + pad)
    mem.write_array(data_addr, a.data)
    indices_addr = mem.allocate(4 * max(a.nnz, 1) + pad)
    mem.write_array(indices_addr, a.indices)
    b_addr = mem.allocate(4 * a.cols * n_cols + pad)
    mem.write_array(b_addr, b)
    c_addr = mem.allocate(4 * a.rows * n_cols + pad)
    mem.write_array(c_addr, np.zeros((a.rows, n_cols), dtype=np.float32))
    return StagedCSR(
        rows=a.rows, k=a.cols, n_cols=n_cols,
        data_addr=data_addr, indices_addr=indices_addr,
        b_addr=b_addr, c_addr=c_addr,
        b_row_stride=4 * n_cols, c_row_stride=4 * n_cols,
        indptr=tuple(int(x) for x in a.indptr),
    )
