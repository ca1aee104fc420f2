"""Tests for the first-order energy model."""

import numpy as np
import pytest

from repro.arch import (
    DecoupledProcessor,
    EnergyModel,
    ProcessorConfig,
    energy_of,
    energy_ratio,
)
from repro.arch.stats import ExecutionStats
from repro.kernels import (
    Schedule,
    compile_trace,
    stage_spmm,
)
from repro.sparse import random_nm_matrix


def run_stats(kernel):
    rng = np.random.default_rng(0)
    a = random_nm_matrix(16, 128, 1, 4, rng)
    b = rng.standard_normal((128, 64)).astype(np.float32)
    proc = DecoupledProcessor(ProcessorConfig.scaled_default())
    staged = stage_spmm(proc.mem, a, b)
    proc.run(compile_trace(kernel, staged, Schedule()))
    return proc.stats()


def test_energy_components_all_counted():
    stats = run_stats("indexmac-spmm")
    report = energy_of(stats)
    assert set(report.breakdown_pj) == {
        "scalar core", "vector alu", "vector mac", "vrf",
        "v2s transfers", "l2", "dram",
    }
    assert report.total_pj > 0
    assert report.total_uj == pytest.approx(report.total_pj / 1e6)
    assert sum(report.fraction(k) for k in report.breakdown_pj) == \
        pytest.approx(1.0)


def test_proposed_kernel_uses_less_energy():
    """DRAM cold misses are compulsory and identical for both kernels,
    so total energy drops modestly; the controllable (core + cache)
    energy drops substantially."""
    base = run_stats("rowwise-spmm")
    prop = run_stats("indexmac-spmm")
    assert energy_ratio(base, prop) < 1.0
    base_rep, prop_rep = energy_of(base), energy_of(prop)

    def non_dram(rep):
        return rep.total_pj - rep.breakdown_pj["dram"]

    assert non_dram(prop_rep) < 0.85 * non_dram(base_rep)
    assert prop_rep.breakdown_pj["l2"] < base_rep.breakdown_pj["l2"]
    assert prop_rep.breakdown_pj["v2s transfers"] < \
        base_rep.breakdown_pj["v2s transfers"]


def test_mac_energy_identical_between_kernels():
    """Both kernels perform the same multiply-accumulates."""
    base = energy_of(run_stats("rowwise-spmm"))
    prop = energy_of(run_stats("indexmac-spmm"))
    assert base.breakdown_pj["vector mac"] == \
        pytest.approx(prop.breakdown_pj["vector mac"])


def test_custom_model_scaling():
    stats = run_stats("indexmac-spmm")
    doubled = EnergyModel(dram_access_pj=4000.0)
    default = energy_of(stats)
    heavier = energy_of(stats, doubled)
    assert heavier.breakdown_pj["dram"] == \
        pytest.approx(2 * default.breakdown_pj["dram"])


def test_render_and_empty_stats():
    stats = run_stats("indexmac-spmm")
    text = energy_of(stats).render()
    assert "total energy" in text
    assert "dram" in text
    empty = energy_of(ExecutionStats())
    assert empty.total_pj == 0
    assert empty.fraction("dram") == 0.0
