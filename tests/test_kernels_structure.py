"""Structural properties of the generated instruction streams."""

import numpy as np
import pytest

from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.errors import KernelError
from repro.isa import Op
from repro.isa.instructions import VECTOR_MEM_OPS
from repro.kernels import (
    Dataflow,
    Schedule,
    compile_trace,
    max_tile_rows,
    stage_spmm,
    validate_tile_rows,
)
from repro.kernels.builder import li, row_groups
from repro.sparse import random_nm_matrix


def staged_case(rows=8, k=64, n=32, nm=(1, 4), seed=0):
    rng = np.random.default_rng(seed)
    a = random_nm_matrix(rows, k, *nm, rng)
    b = rng.standard_normal((k, n)).astype(np.float32)
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    return proc, stage_spmm(proc.mem, a, b), a, b


def op_histogram(stream):
    hist = {}
    for instr in stream:
        hist[instr.op] = hist.get(instr.op, 0) + 1
    return hist


# ----------------------------------------------------------------------
# instruction-mix invariants (the paper's per-iteration claims)
# ----------------------------------------------------------------------
def test_indexmac_kernel_has_no_b_loads_in_inner_loop():
    """Proposed kernel vector loads = A slices + C rows + B tile preload
    only — one load per pre-loaded tile row, never per non-zero."""
    proc, staged, a, b = staged_case()
    hist = op_histogram(compile_trace("indexmac-spmm", staged,
                                      Schedule()))
    tile, vl = 16, 16
    k_tiles = staged.k // tile
    col_tiles = staged.n_cols // vl
    preload = tile * k_tiles * col_tiles
    # per (i, kt, jt): values + col_idx (+ C except first k-tile)
    a_loads = 2 * staged.rows * k_tiles * col_tiles
    c_loads = staged.rows * (k_tiles - 1) * col_tiles
    assert hist[Op.VLE32] == preload + a_loads + c_loads
    assert hist[Op.VINDEXMAC_VX] == \
        staged.rows * staged.slots_per_row * col_tiles
    assert Op.VFMACC_VF not in hist


def test_rowwise_kernel_loads_b_per_nonzero():
    proc, staged, a, b = staged_case()
    hist = op_histogram(compile_trace("rowwise-spmm", staged,
                                      Schedule()))
    tile, vl = 16, 16
    k_tiles = staged.k // tile
    col_tiles = staged.n_cols // vl
    b_loads = staged.rows * staged.slots_per_row * col_tiles
    a_loads = 2 * staged.rows * k_tiles * col_tiles
    c_loads = staged.rows * (k_tiles - 1) * col_tiles
    assert hist[Op.VLE32] == b_loads + a_loads + c_loads
    assert hist[Op.VFMACC_VF] == b_loads
    assert Op.VINDEXMAC_VX not in hist


def test_per_nonzero_v2s_moves_halved():
    """Algorithm 2 needs two vector->scalar moves per non-zero
    (address + value); Algorithm 3 needs one (index only)."""
    proc, staged, a, b = staged_case()
    col_tiles = staged.n_cols // 16
    nnz_iters = staged.rows * staged.slots_per_row * col_tiles
    hist2 = op_histogram(compile_trace("rowwise-spmm", staged,
                                       Schedule()))
    hist3 = op_histogram(compile_trace("indexmac-spmm", staged,
                                       Schedule()))
    assert hist2[Op.VMV_X_S] == nnz_iters
    assert hist2[Op.VFMV_F_S] == nnz_iters
    assert hist3[Op.VMV_X_S] == nnz_iters
    assert Op.VFMV_F_S not in hist3


def test_slide_counts_match_paper_listing():
    """Both algorithms slide values and col_idx once per non-zero."""
    proc, staged, a, b = staged_case()
    col_tiles = staged.n_cols // 16
    nnz_iters = staged.rows * staged.slots_per_row * col_tiles
    for kernel in ("rowwise-spmm", "indexmac-spmm"):
        hist = op_histogram(compile_trace(kernel, staged, Schedule()))
        assert hist[Op.VSLIDE1DOWN_VX] == 2 * nnz_iters


def test_proposed_fewer_instructions_overall():
    proc, staged, a, b = staged_case(rows=16, k=128, n=64)
    n2 = sum(op_histogram(
        compile_trace("rowwise-spmm", staged, Schedule())).values())
    n3 = sum(op_histogram(
        compile_trace("indexmac-spmm", staged, Schedule())).values())
    assert n3 < n2


def test_memory_access_reduction_close_to_paper():
    """Fig. 6 arithmetic: ~48% fewer vector memory instructions at 1:4,
    ~65% at 2:4 (for reasonably tall A)."""
    for nm, low, high in [((1, 4), 0.40, 0.55), ((2, 4), 0.60, 0.70)]:
        proc, staged, a, b = staged_case(rows=64, k=128, n=64, nm=nm)
        def vmem(stream):
            return sum(1 for i in stream if i.op in VECTOR_MEM_OPS)
        base = vmem(compile_trace("rowwise-spmm", staged, Schedule()))
        prop = vmem(compile_trace("indexmac-spmm", staged, Schedule()))
        reduction = 1 - prop / base
        assert low < reduction < high, (nm, reduction)


# ----------------------------------------------------------------------
# option validation
# ----------------------------------------------------------------------
def test_indexmac_requires_b_stationary():
    proc, staged, a, b = staged_case()
    with pytest.raises(KernelError):
        list(compile_trace(
            "indexmac-spmm", staged,
            Schedule(dataflow=Dataflow.C_STATIONARY)))


def test_tile_rows_upper_bound():
    assert max_tile_rows(1, 4, 16) == 64
    assert max_tile_rows(2, 4, 16) == 32
    assert max_tile_rows(4, 4, 16) == 16
    with pytest.raises(KernelError):
        validate_tile_rows(6, 1, 4, 16, 32)  # not a multiple of M
    with pytest.raises(KernelError):
        validate_tile_rows(64, 2, 4, 16, 32)  # exceeds M*VL/N
    with pytest.raises(KernelError):
        validate_tile_rows(24, 1, 4, 16, 32)  # does not leave 16 vregs
    validate_tile_rows(16, 2, 4, 16, 32)  # the paper's configuration
    validate_tile_rows(64, 1, 4, 16)  # no register budget in memory


#: ``rowwise-spmm`` tile heights that hold no whole N:M block or pass
#: M*VL/N: (shape, N:M, L).  Each once compiled and dropped non-zeros.
BAD_TILES = [((8, 64, 16), (1, 32), 16), ((8, 64, 16), (1, 8), 12),
             ((8, 64, 16), (2, 8), 4), ((8, 64, 16), (2, 4), 64),
             ((8, 256, 16), (1, 4), 128)]


@pytest.mark.parametrize("shape,nm,tile_rows", BAD_TILES)
def test_memory_resident_kernel_refuses_a_tile_it_cannot_run(
        tmp_path, shape, nm, tile_rows):
    from repro.eval.engine import ExperimentEngine, SimJob, execute_job
    from repro.kernels.compiler import get_spec, schedule_incompatibility

    schedule = Schedule(tile_rows=tile_rows)
    reason = schedule_incompatibility(get_spec("rowwise-spmm"), schedule,
                                      nm)
    assert reason is not None and f"L={tile_rows}" in reason
    for verify in (True, False):
        job = SimJob.for_shape(*shape, nm, "rowwise-spmm",
                               schedule=schedule, backend="detailed",
                               verify=verify)
        with pytest.raises(KernelError, match=f"L={tile_rows}"):
            execute_job(job)
    job = SimJob.for_shape(*shape, nm, "rowwise-spmm", schedule=schedule,
                           backend="analytic-sampled")
    with pytest.raises(KernelError, match=f"L={tile_rows}"):
        ExperimentEngine(jobs=1, cache_dir=tmp_path).run([job])
    assert not any(tmp_path.rglob("*.jsonl"))


def test_bad_unroll_rejected():
    with pytest.raises(KernelError):
        Schedule(unroll=3)
    with pytest.raises(KernelError):
        Schedule(tile_rows=0)


def test_k_not_multiple_of_tile_rejected():
    rng = np.random.default_rng(0)
    a = random_nm_matrix(4, 24, 1, 4, rng)  # K=24 not a multiple of 16
    b = rng.standard_normal((24, 16)).astype(np.float32)
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    staged = stage_spmm(proc.mem, a, b)
    with pytest.raises(KernelError):
        list(compile_trace("rowwise-spmm", staged, Schedule()))


def test_stage_rejects_bad_shapes():
    rng = np.random.default_rng(0)
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    a = random_nm_matrix(4, 16, 1, 4, rng)
    with pytest.raises(KernelError):
        stage_spmm(proc.mem, a, rng.standard_normal((8, 16)))  # K mismatch
    with pytest.raises(KernelError):
        stage_spmm(proc.mem, a, rng.standard_normal((16, 15)))  # N % 16
    with pytest.raises(KernelError):
        stage_spmm(proc.mem, a, rng.standard_normal((16,)))  # 1-D


# ----------------------------------------------------------------------
# builder helpers
# ----------------------------------------------------------------------
def test_li_small_and_large():
    small = list(li(10, 100))
    assert len(small) == 1
    large = list(li(10, 0x12345678))
    assert len(large) == 2
    neg = list(li(10, -5))
    assert len(neg) == 1
    with pytest.raises(KernelError):
        list(li(10, 1 << 40))


def test_li_functional_value():
    """The lui/addi pair must reconstruct the exact constant."""
    from repro.arch import DecoupledProcessor

    for value in (0x12345678, 0x7FFFF7FF, 2048, 4095, -123456):
        proc = DecoupledProcessor()
        proc.run(li(10, value))
        assert proc.xrf.values[10] == value, hex(value)
    with pytest.raises(KernelError):
        list(li(10, 0x7FFFF800))  # lui would sign-extend


def test_row_groups_remainders():
    assert list(row_groups(10, 4)) == [(0, 4), (4, 4), (8, 2)]
    assert list(row_groups(7, 4)) == [(0, 4), (4, 2), (6, 1)]
    assert list(row_groups(3, 4)) == [(0, 2), (2, 1)]
    assert list(row_groups(8, 2)) == [(0, 2), (2, 2), (4, 2), (6, 2)]
    assert list(row_groups(5, 1)) == [(i, 1) for i in range(5)]
