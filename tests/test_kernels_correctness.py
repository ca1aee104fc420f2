"""End-to-end correctness: every kernel must reproduce numpy's A @ B."""

import numpy as np
import pytest

from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.kernels import (
    Dataflow,
    Schedule,
    compile_trace,
    read_result,
    stage_csr,
    stage_dense,
    stage_spmm,
)
from repro.sparse import CSRMatrix, random_nm_matrix


def run_spmm(kernel, a, b, schedule=Schedule()):
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    staged = stage_spmm(proc.mem, a, b)
    proc.run(compile_trace(kernel, staged, schedule))
    return read_result(proc.mem, staged), proc.stats()


def check(c, a_dense, b):
    ref = a_dense.astype(np.float64) @ b.astype(np.float64)
    np.testing.assert_allclose(c, ref, rtol=1e-3, atol=1e-4)


@pytest.mark.parametrize("nm", [(1, 4), (2, 4), (1, 2)])
@pytest.mark.parametrize("kernel", ["indexmac-spmm", "rowwise-spmm"],
                         ids=["indexmac", "rowwise"])
def test_spmm_matches_numpy(nm, kernel):
    rng = np.random.default_rng(42)
    a = random_nm_matrix(13, 64, *nm, rng)
    b = rng.standard_normal((64, 48)).astype(np.float32)
    c, _ = run_spmm(kernel, a, b)
    check(c, a.to_dense(), b)


@pytest.mark.parametrize("dataflow", list(Dataflow), ids=lambda d: d.value)
def test_rowwise_all_dataflows(dataflow):
    rng = np.random.default_rng(7)
    a = random_nm_matrix(11, 96, 2, 4, rng)
    b = rng.standard_normal((96, 32)).astype(np.float32)
    c, _ = run_spmm("rowwise-spmm", a, b,
                    Schedule(dataflow=dataflow))
    check(c, a.to_dense(), b)


@pytest.mark.parametrize("unroll", [1, 2, 4])
@pytest.mark.parametrize("kernel", ["indexmac-spmm", "rowwise-spmm"],
                         ids=["indexmac", "rowwise"])
def test_unroll_factors(unroll, kernel):
    rng = np.random.default_rng(3)
    a = random_nm_matrix(10, 32, 1, 4, rng)  # 10 rows: exercises remainders
    b = rng.standard_normal((32, 16)).astype(np.float32)
    c, _ = run_spmm(kernel, a, b, Schedule(unroll=unroll))
    check(c, a.to_dense(), b)


@pytest.mark.parametrize("rows", [1, 2, 3, 5, 17])
def test_odd_row_counts(rows):
    rng = np.random.default_rng(rows)
    a = random_nm_matrix(rows, 32, 2, 4, rng)
    b = rng.standard_normal((32, 16)).astype(np.float32)
    for kernel in ("indexmac-spmm", "rowwise-spmm"):
        c, _ = run_spmm(kernel, a, b)
        check(c, a.to_dense(), b)


@pytest.mark.parametrize("tile_rows", [4, 8, 16])
def test_tile_rows_variants(tile_rows):
    rng = np.random.default_rng(5)
    a = random_nm_matrix(6, 64, 1, 4, rng)
    b = rng.standard_normal((64, 32)).astype(np.float32)
    c, _ = run_spmm("indexmac-spmm", a, b,
                    Schedule(tile_rows=tile_rows))
    check(c, a.to_dense(), b)


def test_init_c_zero_false_accumulates_from_memory():
    rng = np.random.default_rng(9)
    a = random_nm_matrix(4, 16, 1, 4, rng)
    b = rng.standard_normal((16, 16)).astype(np.float32)
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    staged = stage_spmm(proc.mem, a, b)
    # pre-seed C with ones; with init_c_zero=False the kernel accumulates
    seed = np.ones((4, 16), dtype=np.float32)
    proc.mem.write_array(staged.c_addr, seed)
    proc.run(compile_trace("indexmac-spmm", staged,
                           Schedule(init_c_zero=False)))
    c = read_result(proc.mem, staged)
    ref = seed + a.to_dense() @ b
    np.testing.assert_allclose(c, ref, rtol=1e-3, atol=1e-4)


def test_multiple_column_tiles_and_k_tiles():
    rng = np.random.default_rng(11)
    a = random_nm_matrix(9, 128, 2, 4, rng)  # 8 k-tiles at L=16
    b = rng.standard_normal((128, 80)).astype(np.float32)  # 5 column tiles
    for kernel in ("indexmac-spmm", "rowwise-spmm"):
        c, _ = run_spmm(kernel, a, b)
        check(c, a.to_dense(), b)


def test_dense_rowwise_matches_numpy():
    rng = np.random.default_rng(13)
    a = rng.standard_normal((7, 32)).astype(np.float32)
    b = rng.standard_normal((32, 48)).astype(np.float32)
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    staged = stage_dense(proc.mem, a, b)
    proc.run(compile_trace("dense-rowwise", staged, Schedule()))
    c = read_result(proc.mem, staged)
    check(c, a, b)


@pytest.mark.parametrize("unroll", [1, 2, 4])
def test_dense_rowwise_unroll(unroll):
    rng = np.random.default_rng(17)
    a = rng.standard_normal((5, 16)).astype(np.float32)
    b = rng.standard_normal((16, 16)).astype(np.float32)
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    staged = stage_dense(proc.mem, a, b)
    proc.run(compile_trace("dense-rowwise", staged,
                           Schedule(unroll=unroll)))
    check(read_result(proc.mem, staged), a, b)


def test_csr_kernel_matches_numpy():
    rng = np.random.default_rng(19)
    dense = rng.standard_normal((9, 40)).astype(np.float32)
    dense[rng.random(dense.shape) < 0.7] = 0.0
    a = CSRMatrix.from_dense(dense)
    b = rng.standard_normal((40, 32)).astype(np.float32)
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    staged = stage_csr(proc.mem, a, b)
    proc.run(compile_trace("csr-spmm", staged))
    check(read_result(proc.mem, staged), dense, b)


def test_csr_kernel_empty_rows():
    dense = np.zeros((4, 16), dtype=np.float32)
    dense[2, 5] = 3.0
    a = CSRMatrix.from_dense(dense)
    rng = np.random.default_rng(0)
    b = rng.standard_normal((16, 16)).astype(np.float32)
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    staged = stage_csr(proc.mem, a, b)
    proc.run(compile_trace("csr-spmm", staged))
    check(read_result(proc.mem, staged), dense, b)


def test_identity_spmm():
    """A = I (as 1:4 pattern) must copy B's rows."""
    dense = np.zeros((4, 16), dtype=np.float32)
    for i in range(4):
        dense[i, 4 * i] = 1.0  # one non-zero per block row, N:M-legal
    from repro.sparse import NMSparseMatrix

    a = NMSparseMatrix.from_dense(dense, 1, 4)
    rng = np.random.default_rng(23)
    b = rng.standard_normal((16, 16)).astype(np.float32)
    for kernel in ("indexmac-spmm", "rowwise-spmm"):
        c, _ = run_spmm(kernel, a, b)
        np.testing.assert_allclose(c[0], b[0], rtol=1e-5)
        np.testing.assert_allclose(c[3], b[12], rtol=1e-5)
