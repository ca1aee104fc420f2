"""Tests for workload scaling and generation."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.nn import (
    FULL,
    MEDIUM,
    POLICIES,
    SMALL,
    TINY,
    GemmShape,
    conv,
    get_model,
    layer_seed,
    make_layer_workload,
    make_workload,
)


def test_policies_registry():
    assert set(POLICIES) == {"full", "tiny", "small", "medium"}
    assert POLICIES["small"] is SMALL


def test_full_policy_is_identity():
    g = GemmShape(64, 576, 3136)
    assert FULL.scale(g) == g


def test_small_policy_clamps():
    g = GemmShape(2048, 4608, 12544)
    s = SMALL.scale(g)
    assert s.rows == 64  # clamped
    assert s.k == 512
    assert s.n == 256
    tiny_layer = GemmShape(8, 32, 49)
    t = SMALL.scale(tiny_layer)
    assert t.rows >= 4 and t.k >= 32 and t.n >= 16


def test_scaling_monotonic_across_presets():
    g = GemmShape(256, 1152, 784)
    tiny, small, med = TINY.scale(g), SMALL.scale(g), MEDIUM.scale(g)
    assert tiny.macs <= small.macs <= med.macs <= g.macs


def test_make_workload_padding():
    rng = np.random.default_rng(0)
    a, b = make_workload(5, 50, 50, 2, 4, rng)
    assert a.cols % 16 == 0
    assert b.shape[0] == a.cols
    assert b.shape[1] % 16 == 0
    # padded region of B is zero
    assert not b[:, 50:].any()
    assert not b[50:, :].any()
    # A's padded blocks are all-zero slots
    dense = a.to_dense()
    assert not dense[:, 50 + 2:].any()  # beyond the original K (block-aligned)


def test_make_workload_saturated_pattern():
    rng = np.random.default_rng(1)
    a, _ = make_workload(8, 64, 32, 2, 4, rng)
    # unpadded region saturates: every block holds exactly 2 non-zeros
    occ = a.block_occupancy()
    assert (occ[:, :16] == 2).all()


def test_make_workload_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(WorkloadError):
        make_workload(0, 16, 16, 1, 4, rng)
    with pytest.raises(WorkloadError):
        make_workload(4, 16, 16, 5, 4, rng)


def test_layer_seed_deterministic_and_distinct():
    assert layer_seed("conv1", 1, 4) == layer_seed("conv1", 1, 4)
    assert layer_seed("conv1", 1, 4) != layer_seed("conv1", 2, 4)
    assert layer_seed("conv1", 1, 4) != layer_seed("conv2", 1, 4)


def test_make_layer_workload_roundtrip():
    layer = get_model("resnet50")[1]  # conv2_1_1x1a: 64x64x3136
    wl = make_layer_workload(layer, 1, 4, policy=TINY)
    assert wl.layer_name == layer.name
    assert wl.nm == (1, 4)
    assert wl.original == layer.gemm
    assert wl.a.shape == (wl.scaled.rows, wl.scaled.k)
    assert wl.b.shape == (wl.scaled.k, wl.scaled.n)
    assert wl.scale_factor > 1
    # deterministic regeneration
    wl2 = make_layer_workload(layer, 1, 4, policy=TINY)
    assert wl.a == wl2.a
    np.testing.assert_array_equal(wl.b, wl2.b)


def test_layer_workload_runs_on_simulator():
    """A TINY-scaled layer runs end-to-end and matches numpy."""
    from repro.arch import DecoupledProcessor, ProcessorConfig
    from repro.kernels import (
        Schedule,
        compile_trace,
        read_result,
        stage_spmm,
    )

    layer = conv("t", 16, 8, 14, 3)
    wl = make_layer_workload(layer, 2, 4, policy=TINY)
    proc = DecoupledProcessor(ProcessorConfig.scaled_default())
    staged = stage_spmm(proc.mem, wl.a, wl.b)
    proc.run(compile_trace("indexmac-spmm", staged, Schedule()))
    ref = wl.a.to_dense().astype(np.float64) @ wl.b.astype(np.float64)
    np.testing.assert_allclose(read_result(proc.mem, staged), ref,
                               rtol=1e-3, atol=1e-4)
