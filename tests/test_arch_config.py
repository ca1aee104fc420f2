"""Tests for the Table I configuration dataclasses."""

from dataclasses import replace

import pytest

from repro.arch import ProcessorConfig
from repro.arch.config import (
    LEAF_MAX,
    MEMORY_MAX,
    QUEUE_MAX,
    VLEN_MAX,
    CacheConfig,
    DramConfig,
    ScalarCoreConfig,
    VectorEngineConfig,
)
from repro.errors import SimulationError


def test_paper_default_matches_table1():
    cfg = ProcessorConfig.paper_default()
    # Scalar core (Table I)
    assert cfg.scalar.issue_width == 8
    assert cfg.scalar.rob_entries == 60
    assert cfg.scalar.lsq_entries == 16
    # L1 caches
    assert cfg.l1i.size_bytes == 64 * 1024
    assert cfg.l1i.ways == 4
    assert cfg.l1i.hit_latency == 1
    assert cfg.l1d.size_bytes == 64 * 1024
    assert cfg.l1d.ways == 4
    assert cfg.l1d.hit_latency == 2
    # Vector engine: 512-bit, 16 lanes, 32-bit elements
    assert cfg.vector.vlen_bits == 512
    assert cfg.vector.lanes == 16
    assert cfg.vector.sew_bits == 32
    assert cfg.vector.vlmax == 16
    assert cfg.vector.load_queues == 16
    assert cfg.vector.store_queues == 16
    # L2: 8-way, 8-bank, 8-cycle, 512KB shared
    assert cfg.l2.ways == 8
    assert cfg.l2.banks == 8
    assert cfg.l2.hit_latency == 8
    assert cfg.l2.size_bytes == 512 * 1024


def test_table_rendering_mentions_key_numbers():
    text = ProcessorConfig.paper_default().table()
    for token in ("8-way-issue", "60-entry ROB", "16-entry LSQ",
                  "512-bit", "16-lane", "512KB", "DDR4-2400"):
        assert token in text, token


def test_scaled_default_shrinks_memory_only():
    cfg = ProcessorConfig.scaled_default()
    full = ProcessorConfig.paper_default()
    assert cfg.l2.size_bytes < full.l2.size_bytes
    assert cfg.l1d.size_bytes < full.l1d.size_bytes
    assert cfg.vector == full.vector
    assert cfg.scalar == full.scalar
    assert cfg.l2.hit_latency == full.l2.hit_latency


def test_vlmax_follows_geometry():
    cfg = ProcessorConfig.paper_default()
    assert cfg.vector.vlmax == cfg.vector.vlen_bits // cfg.vector.sew_bits


_BASE = ProcessorConfig.scaled_default()


@pytest.mark.parametrize("part, leaves", [
    (None, {"memory_bytes": "x"}),
    (None, {"memory_bytes": True}),
    (None, {"memory_bytes": 1.5}),
    # equal to the default, but it would hash to another key
    (None, {"memory_bytes": float(_BASE.memory_bytes)}),
    (None, {"memory_bytes": 0}),
    ("l2", {"ways": True}),
    ("l2", {"line_bytes": 0}),
    ("l2", {"banks": 2.0}),
    ("l2", {"hit_latency": -1}),
    ("l2", {"bank_busy_cycles": "4"}),
    ("l2", {"hashed_index": 1}),
    ("scalar", {"rob_entries": 0}),
    ("scalar", {"issue_width": False}),
    ("scalar", {"mul_latency": -3}),
    ("vector", {"queue_depth": -1}),
    ("vector", {"mac_latency": "6"}),
    ("vector", {"mac_latency": 6.0}),
    # beyond a float clock: was an OverflowError at the first MAC
    ("vector", {"mac_latency": 10**400}),
    ("vector", {"mac_latency": LEAF_MAX + 1}),
    ("vector", {"vload_issue_occupancy": 0}),
    ("vector", {"vlen_bits": 16}),  # holds no 32-bit element
    ("dram", {"cycles_per_line": 0}),
    ("dram", {"cycles_per_line": True}),
    ("dram", {"cycles_per_line": float("nan")}),
    ("dram", {"cycles_per_line": "6.7"}),
    ("dram", {"cycles_per_line": 10**400}),
    ("dram", {"row_bytes": 0}),
    # leaves that size allocations: every kernel is compiled for v0-v31
    ("vector", {"num_vregs": 8}),
    ("vector", {"num_vregs": 33}),
    ("vector", {"num_vregs": 32.0}),
    ("vector", {"vlen_bits": VLEN_MAX + 1}),
    (None, {"memory_bytes": MEMORY_MAX + 1}),
    ("l2", {"size_bytes": (QUEUE_MAX + 1) * 64, "ways": 1}),
    ("l1d", {"size_bytes": (QUEUE_MAX + 1) * 64, "ways": 1}),
    ("l2", {"banks": QUEUE_MAX + 1}),
    ("scalar", {"rob_entries": QUEUE_MAX + 1}),
    ("scalar", {"rob_entries": 2**31}),
    ("vector", {"queue_depth": QUEUE_MAX + 1}),
    ("vector", {"load_queues": QUEUE_MAX + 1}),
    ("vector", {"store_queues": QUEUE_MAX + 1}),
], ids=repr)
def test_config_refuses_bad_leaves(part, leaves):
    with pytest.raises(SimulationError):
        if part is None:
            replace(_BASE, **leaves)
        else:
            replace(_BASE, **{part: replace(getattr(_BASE, part),
                                            **leaves)})


@pytest.mark.parametrize("nested", [{"scalar": {"rob_entries": 60}},
                                    {"l1d": _BASE.dram}], ids=repr)
def test_config_nested_fields_hold_their_class(nested):
    with pytest.raises(SimulationError):
        replace(_BASE, **nested)


@pytest.mark.parametrize("cls", [ScalarCoreConfig, VectorEngineConfig,
                                 DramConfig])
def test_config_defaults_are_valid(cls):
    assert cls() == replace(cls())


def test_config_accepts_any_positive_dram_rate():
    """``cycles_per_line`` is a real number: an int or a float."""
    for rate in (7, 7.0, 0.5):
        replace(_BASE, dram=replace(_BASE.dram, cycles_per_line=rate))


def test_config_accepts_leaves_up_to_the_bound():
    replace(_BASE, vector=replace(_BASE.vector, mac_latency=LEAF_MAX))
    replace(_BASE, dram=replace(_BASE.dram, cycles_per_line=LEAF_MAX))
    # the leaves that size allocations (only decoded: nothing is built)
    replace(_BASE, memory_bytes=MEMORY_MAX)
    replace(_BASE, scalar=replace(_BASE.scalar, rob_entries=QUEUE_MAX))
    replace(_BASE, vector=replace(_BASE.vector, num_vregs=32,
                                  vlen_bits=VLEN_MAX, queue_depth=QUEUE_MAX,
                                  load_queues=QUEUE_MAX,
                                  store_queues=QUEUE_MAX))
    for part in ("l1d", "l1i", "l2"):
        cache = replace(getattr(_BASE, part), size_bytes=QUEUE_MAX * 64,
                        line_bytes=64, banks=QUEUE_MAX)
        assert cache.size_bytes // cache.line_bytes == QUEUE_MAX
        replace(_BASE, **{part: cache})


def test_cache_geometry_still_checked():
    with pytest.raises(SimulationError):
        CacheConfig(size_bytes=1000, ways=3, hit_latency=1)
