"""Compressed Sparse Row format — the unstructured baseline of Fig. 1(a).

Unstructured sparsity needs a full (row pointer, column index) pair per
non-zero and gives no bound on where a column index may point, which is
exactly why pre-loading rows of ``B`` into the vector register file is
futile for it (Section III of the paper).  The library carries CSR both
as a comparison format and as the operand of the unstructured row-wise
kernel ablation (the ``csr-spmm`` kernel, staged by
:func:`repro.kernels.layout.stage_csr`).
"""

from __future__ import annotations

import numpy as np

from repro.errors import SparseFormatError


class CSRMatrix:
    """Minimal CSR container (float32 values, int32 indices)."""

    __slots__ = ("shape", "data", "indices", "indptr")

    def __init__(self, shape: tuple[int, int], data: np.ndarray,
                 indices: np.ndarray, indptr: np.ndarray):
        rows, cols = shape
        data = np.ascontiguousarray(data, dtype=np.float32)
        indices = np.ascontiguousarray(indices, dtype=np.int32)
        indptr = np.ascontiguousarray(indptr, dtype=np.int64)
        if indptr.shape != (rows + 1,):
            raise SparseFormatError(
                f"indptr must have {rows + 1} entries, got {indptr.shape}")
        if indptr[0] != 0 or indptr[-1] != len(data):
            raise SparseFormatError("indptr endpoints are inconsistent")
        if np.any(np.diff(indptr) < 0):
            raise SparseFormatError("indptr must be non-decreasing")
        if len(indices) != len(data):
            raise SparseFormatError("indices and data lengths differ")
        if len(indices) and (indices.min() < 0 or indices.max() >= cols):
            raise SparseFormatError("a column index is out of range")
        self.shape = (rows, cols)
        self.data = data
        self.indices = indices
        self.indptr = indptr

    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        return self.shape[0]

    @property
    def cols(self) -> int:
        return self.shape[1]

    @property
    def nnz(self) -> int:
        return len(self.data)

    @property
    def density(self) -> float:
        total = self.rows * self.cols
        return self.nnz / total if total else 0.0

    def row_nnz(self) -> np.ndarray:
        """Non-zeros per row."""
        return np.diff(self.indptr)

    # ------------------------------------------------------------------
    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        dense = np.asarray(dense, dtype=np.float32)
        if dense.ndim != 2:
            raise SparseFormatError("expected a 2-D matrix")
        rows, cols = dense.shape
        row_ids, col_ids = np.nonzero(dense)
        data = dense[row_ids, col_ids]
        indptr = np.zeros(rows + 1, dtype=np.int64)
        np.add.at(indptr, row_ids + 1, 1)
        indptr = np.cumsum(indptr)
        return cls((rows, cols), data, col_ids.astype(np.int32), indptr)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float32)
        for r in range(self.rows):
            lo, hi = self.indptr[r], self.indptr[r + 1]
            dense[r, self.indices[lo:hi]] = self.data[lo:hi]
        return dense

    def row(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """(values, column indices) of row ``r``."""
        lo, hi = self.indptr[r], self.indptr[r + 1]
        return self.data[lo:hi], self.indices[lo:hi]

    def __repr__(self) -> str:
        return f"CSRMatrix(shape={self.shape}, nnz={self.nnz})"
