"""Tests for the analytic-sampled backend: exact static profiling,
calibration-table persistence/fitting, environment resolution, and the
validate_backend tolerance gate."""

import json

import numpy as np
import pytest

from repro.analytic.calibration import (
    FEATURE_NAMES,
    CalibrationTable,
    active_digest,
    active_table,
    fit_table,
    profile_trace,
    reset_cache,
)
from repro.analytic.validation import backend_tolerance, validate_backend
from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.arch.stats import COUNTERS
from repro.arch.timing import get_backend, get_backend_class
from repro.errors import CalibrationError
from repro.kernels import Schedule, get_trace_kernel, stage_spmm
from repro.nn.workload import make_workload

CFG = ProcessorConfig.scaled_default()


def build_trace(kernel, rows=32, k=64, n=32, nm=(1, 4), seed=3):
    rng = np.random.default_rng(seed)
    a, b = make_workload(rows, k, n, *nm, rng)
    proc = DecoupledProcessor(CFG)
    staged = stage_spmm(proc.mem, a, b)
    return proc, get_trace_kernel(kernel)(staged, Schedule())


# ----------------------------------------------------------------------
# static profile exactness
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kernel", ["rowwise-spmm", "indexmac-spmm"])
def test_profile_counts_match_detailed_exactly(kernel):
    proc, trace = build_trace(kernel)
    profile = profile_trace(trace, CFG)
    detailed = get_backend("detailed").run(proc, trace)
    for name in COUNTERS:
        assert getattr(profile, name) == getattr(detailed.stats, name), name


def test_analytic_backend_reports_exact_counts_and_no_memory():
    proc, trace = build_trace("indexmac-spmm")
    ref_proc, ref_trace = build_trace("indexmac-spmm")
    detailed = get_backend("detailed").run(ref_proc, ref_trace)
    result = get_backend("analytic-sampled").run(proc, trace)
    assert result.stats.instructions == detailed.stats.instructions
    assert result.stats.vector_mem_instrs == detailed.stats.vector_mem_instrs
    # nothing executed: no cache traffic, no timed instructions, and the
    # result buffer is untouched (all zeros)
    assert result.stats.l2_misses == 0
    assert result.timed_instructions == 0
    assert result.stats.cycles > 0
    assert result.stats.extra["calibration"] == active_digest()


def test_analytic_traits():
    cls = get_backend_class("analytic-sampled")
    assert not cls.functional
    assert not cls.models_memory


# ----------------------------------------------------------------------
# calibration table
# ----------------------------------------------------------------------
def test_table_round_trips_through_json(tmp_path):
    weights = tuple(float(i) for i in range(len(FEATURE_NAMES)))
    table = CalibrationTable(weights=weights, fitted_on=("a", "b"),
                             residual=0.01)
    path = tmp_path / "table.json"
    table.save(path)
    loaded = CalibrationTable.load(path)
    assert loaded == table
    assert loaded.digest() == table.digest()


def test_table_rejects_wrong_width_and_wrong_features(tmp_path):
    with pytest.raises(CalibrationError):
        CalibrationTable(weights=(1.0, 2.0))
    payload = json.loads(CalibrationTable(
        weights=tuple(1.0 for _ in FEATURE_NAMES)).to_json())
    payload["features"] = ["bogus"] + payload["features"][1:]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(CalibrationError):
        CalibrationTable.load(path)


def test_fit_table_recovers_a_linear_model():
    rng = np.random.default_rng(0)
    true = rng.uniform(1, 5, len(FEATURE_NAMES))
    samples = []
    for i in range(40):
        features = np.zeros(len(FEATURE_NAMES))
        features[0] = 1.0
        features[1:] = rng.uniform(0, 1000, len(FEATURE_NAMES) - 1)
        samples.append((f"s{i}", features, float(features @ true)))
    table = fit_table(samples)
    assert table.residual < 1e-9
    for sample_id, features, cycles in samples:
        assert table.predict(features) == pytest.approx(cycles)


def test_fit_table_needs_two_samples():
    with pytest.raises(CalibrationError):
        fit_table([("only", np.ones(len(FEATURE_NAMES)), 1.0)])


def test_env_selects_the_active_table(tmp_path, monkeypatch):
    custom = CalibrationTable(weights=tuple(
        2.0 for _ in FEATURE_NAMES))
    path = tmp_path / "custom.json"
    custom.save(path)
    monkeypatch.setenv("REPRO_CALIBRATION", str(path))
    reset_cache()
    try:
        assert active_table() == custom
        assert active_digest() == custom.digest()
    finally:
        monkeypatch.delenv("REPRO_CALIBRATION")
        reset_cache()


# ----------------------------------------------------------------------
# tolerance gate (uses the packaged default table)
# ----------------------------------------------------------------------
def test_validate_backend_gates_analytic_within_tolerance():
    rng = np.random.default_rng(0)
    a, b = make_workload(64, 64, 32, 1, 4, rng)
    report = validate_backend(a, b, "indexmac-spmm",
                              backend="analytic-sampled")
    assert report.tolerance == backend_tolerance("analytic-sampled")
    assert not report.functional and not report.models_memory
    assert report.counts_exact
    assert report.ok, report.summary()
    # per-job cost is O(static size): compression is in the thousands
    assert report.compression > 1000
