"""The analytic cost model must match the generated streams exactly."""

import numpy as np
import pytest

from repro.analytic import (
    SpmmGeometry,
    count_kernel,
    memory_access_reduction,
    spmm_cost,
)
from repro.analytic.calibration import profile_trace
from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.errors import KernelError
from repro.kernels import (
    Dataflow,
    KernelOptions,
    Schedule,
    get_trace_kernel,
    stage_spmm,
)
from repro.kernels.layout import plan_spmm
from repro.nn.models import get_model, list_models, unique_gemm_layers
from repro.nn.workload import FULL, padded_gemm
from repro.sparse import random_nm_matrix


def staged(rows, k, n, nm, seed=0):
    rng = np.random.default_rng(seed)
    a = random_nm_matrix(rows, k, *nm, rng)
    b = rng.standard_normal((k, n)).astype(np.float32)
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    return stage_spmm(proc.mem, a, b)


CASES = [
    (8, 64, 32, (1, 4), KernelOptions()),
    (8, 64, 32, (2, 4), KernelOptions()),
    (10, 128, 48, (1, 4), KernelOptions()),       # remainder rows
    (7, 64, 32, (1, 2), KernelOptions(unroll=2)),
    (5, 32, 16, (2, 4), KernelOptions(unroll=1)),
    (12, 64, 64, (1, 4), KernelOptions(tile_rows=8)),
    (9, 64, 32, (2, 4), KernelOptions(init_c_zero=False)),
]


@pytest.mark.parametrize("rows,k,n,nm,opt", CASES)
@pytest.mark.parametrize("kernel", ["indexmac-spmm", "rowwise-spmm"])
def test_exact_match_b_stationary(rows, k, n, nm, opt, kernel):
    st = staged(rows, k, n, nm)
    measured = count_kernel(kernel, st, opt)
    model = spmm_cost(kernel, rows, st.k, st.n_cols, *nm, opt)
    assert model.vector_loads == measured.vector_loads
    assert model.vector_stores == measured.vector_stores
    assert model.vector_arith == measured.vector_arith
    assert model.v2s_moves == measured.v2s_moves
    assert model.macs == measured.macs
    assert model.scalar_instructions == measured.scalar_instructions


@pytest.mark.parametrize("dataflow",
                         [Dataflow.A_STATIONARY, Dataflow.C_STATIONARY],
                         ids=["A", "C"])
@pytest.mark.parametrize("rows,nm", [(8, (1, 4)), (10, (2, 4)), (5, (1, 2))])
def test_exact_match_other_dataflows(dataflow, rows, nm):
    opt = KernelOptions(dataflow=dataflow)
    st = staged(rows, 64, 32, nm)
    measured = count_kernel("rowwise-spmm", st, opt)
    model = spmm_cost("rowwise-spmm", rows, st.k, st.n_cols, *nm, opt)
    assert model.vector_loads == measured.vector_loads
    assert model.vector_stores == measured.vector_stores
    assert model.vector_arith == measured.vector_arith
    assert model.scalar_instructions == measured.scalar_instructions


def test_memory_reduction_matches_paper_at_full_size():
    """Fig. 6 arithmetic at a representative full-size ResNet50 layer:
    ~48% at 1:4, ~65% at 2:4 (the paper's averages)."""
    # conv3_x 3x3 layer: 128 x 1152 x 784, padded to kernel requirements
    red14 = memory_access_reduction(128, 1152, 784, 1, 4)
    red24 = memory_access_reduction(128, 1152, 784, 2, 4)
    assert 0.44 < red14 < 0.52
    assert 0.62 < red24 < 0.68


def test_reduction_grows_with_density():
    r12 = memory_access_reduction(64, 256, 128, 1, 2)
    r14 = memory_access_reduction(64, 256, 128, 1, 4)
    assert r12 > r14  # denser A -> more B loads eliminated


def test_geometry_validation():
    with pytest.raises(KernelError):
        SpmmGeometry(4, 60, 32, 1, 4, KernelOptions())  # K % L != 0
    with pytest.raises(KernelError):
        SpmmGeometry(4, 64, 30, 1, 4, KernelOptions())  # N % VL != 0
    with pytest.raises(KernelError):
        spmm_cost("bogus", 4, 64, 32, 1, 4)


def test_cost_properties():
    cost = spmm_cost("indexmac-spmm", 8, 64, 32, 1, 4)
    assert cost.vector_mem_instrs == cost.vector_loads + cost.vector_stores
    assert cost.vector_instructions == \
        cost.vector_mem_instrs + cost.vector_arith
    assert cost.total_instructions == \
        cost.vector_instructions + cost.scalar_instructions


@pytest.mark.parametrize("model", list_models())
def test_profiles_match_closed_forms_at_full_size(model):
    """Every unique layer x kernel x {1:4, 2:4} at FULL scale: the
    static profile of the compiled trace (from geometry alone) counts
    the closed-form model's vector memory instructions."""
    config = ProcessorConfig.paper_default()
    for layer, _ in unique_gemm_layers(get_model(model)):
        for nm in ((1, 4), (2, 4)):
            gemm = padded_gemm(layer.gemm, *nm, policy=FULL)
            geometry = plan_spmm(gemm.rows, gemm.k, gemm.n, *nm,
                                 config.memory_bytes)
            for kernel in ("rowwise-spmm", "indexmac-spmm"):
                trace = get_trace_kernel(kernel)(geometry, Schedule())
                profile = profile_trace(trace, config)
                cost = spmm_cost(kernel, gemm.rows, gemm.k, gemm.n, *nm)
                assert (profile.vector_loads + profile.vector_stores
                        == cost.vector_mem_instrs), (layer.name, nm, kernel)


def test_full_size_layer_is_computable():
    """The analytic model handles the paper's biggest layer instantly."""
    # ResNet50 conv1 at full size: 64 x 160(padded) x 12544
    cost = spmm_cost("rowwise-spmm", 64, 160, 12544, 1, 4)
    assert cost.vector_mem_instrs > 1_000_000
