"""The static profile counts what the compiled kernels execute, at any
scale: exactly against a flat recount of small streams, and against the
full-size oracle ``tests/data/golden_fullsize_counts.json``."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.analytic import StreamCount, count_kernel
from repro.analytic.calibration import profile_trace
from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.kernels import (
    Dataflow,
    Schedule,
    get_trace_kernel,
    stage_spmm,
)
from repro.kernels.layout import plan_spmm
from repro.nn.models import list_models
from repro.sparse import random_nm_matrix

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location(
    "capture_fullsize_counts", DATA / "capture_fullsize_counts.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

FULLSIZE = json.loads((DATA / "golden_fullsize_counts.json").read_text())

CONFIG = ProcessorConfig.paper_default()


def staged(rows, k, n, nm, seed=0):
    rng = np.random.default_rng(seed)
    a = random_nm_matrix(rows, k, *nm, rng)
    b = rng.standard_normal((k, n)).astype(np.float32)
    proc = DecoupledProcessor(CONFIG)
    return stage_spmm(proc.mem, a, b)


def profile_counts(kernel, operands, schedule) -> StreamCount:
    """``count_kernel``'s counts, read off the static profile."""
    p = profile_trace(get_trace_kernel(kernel)(operands, schedule), CONFIG)
    memory = p.vector_loads + p.vector_stores
    return StreamCount(vector_loads=p.vector_loads,
                       vector_stores=p.vector_stores,
                       vector_arith=p.vector_instructions - memory,
                       scalar_instructions=p.scalar_instructions,
                       v2s_moves=p.vector_to_scalar_moves, macs=p.vector_mac)


CASES = [
    (8, 64, 32, (1, 4), Schedule()),
    (8, 64, 32, (2, 4), Schedule()),
    (10, 128, 48, (1, 4), Schedule()),       # remainder rows
    (7, 64, 32, (1, 2), Schedule(unroll=2)),
    (5, 32, 16, (2, 4), Schedule(unroll=1)),
    (12, 64, 64, (1, 4), Schedule(tile_rows=8)),
    (9, 64, 32, (2, 4), Schedule(init_c_zero=False)),
    (8, 64, 32, (2, 4), Schedule(vlmax=8)),
    (11, 64, 32, (1, 4), Schedule(cores=2, shard=1)),  # one core's rows
]


@pytest.mark.parametrize("rows,k,n,nm,opt", CASES)
@pytest.mark.parametrize("kernel", ["indexmac-spmm", "rowwise-spmm"])
def test_exact_match_b_stationary(rows, k, n, nm, opt, kernel):
    st = staged(rows, k, n, nm)
    assert profile_counts(kernel, st, opt) == count_kernel(kernel, st, opt)


@pytest.mark.parametrize("dataflow",
                         [Dataflow.A_STATIONARY, Dataflow.C_STATIONARY],
                         ids=["A", "C"])
@pytest.mark.parametrize("rows,nm", [(8, (1, 4)), (10, (2, 4)), (5, (1, 2))])
def test_exact_match_other_dataflows(dataflow, rows, nm):
    opt = Schedule(dataflow=dataflow)
    st = staged(rows, 64, 32, nm)
    assert profile_counts("rowwise-spmm", st, opt) == \
        count_kernel("rowwise-spmm", st, opt)


def full_size_counts(kernel, rows, k, n, nm) -> StreamCount:
    """Profile counts of ``kernel`` on a planned (operand-free) GEMM."""
    geometry = plan_spmm(rows, k, n, *nm, CONFIG.memory_bytes)
    return profile_counts(kernel, geometry, Schedule())


def memory_reduction(rows, k, n, nm) -> float:
    """Fig. 6's fractional cut in vector memory instructions."""
    base, prop = (full_size_counts(kernel, rows, k, n, nm)
                  for kernel in ("rowwise-spmm", "indexmac-spmm"))
    return 1.0 - prop.vector_mem_instrs / base.vector_mem_instrs


def test_memory_reduction_matches_paper_at_full_size():
    """Fig. 6 arithmetic at a representative full-size ResNet50 layer:
    ~48% at 1:4, ~65% at 2:4 (the paper's averages)."""
    # conv3_x 3x3 layer: 128 x 1152 x 784, padded to kernel requirements
    red14 = memory_reduction(128, 1152, 784, (1, 4))
    red24 = memory_reduction(128, 1152, 784, (2, 4))
    assert 0.44 < red14 < 0.52
    assert 0.62 < red24 < 0.68


def test_reduction_grows_with_density():
    r12 = memory_reduction(64, 256, 128, (1, 2))
    r14 = memory_reduction(64, 256, 128, (1, 4))
    assert r12 > r14  # denser A -> more B loads eliminated


def test_golden_covers_every_model():
    assert sorted({e["model"] for e in FULLSIZE}) == sorted(list_models())
    assert len(FULLSIZE) == 492


@pytest.mark.parametrize("model", list_models())
def test_profiles_match_closed_forms_at_full_size(model):
    """Every unique layer x kernel x {1:4, 2:4} at FULL scale: the
    static profile of the compiled trace (from geometry alone) gives
    the pinned vector loads, stores, other vector instructions, v2s
    moves and MACs, which the closed-form model also gave when the
    file was captured."""
    assert capture.entries([model]) == \
        [e for e in FULLSIZE if e["model"] == model]


def test_full_size_layer_is_computable():
    """The profile handles the paper's biggest layer instantly."""
    # ResNet50 conv1 at full size: 64 x 160(padded) x 12544
    counts = full_size_counts("rowwise-spmm", 64, 160, 12544, (1, 4))
    assert counts.vector_mem_instrs > 1_000_000
