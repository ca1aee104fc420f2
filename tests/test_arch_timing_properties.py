"""Timing-model invariants (property and stress tests)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dataclasses import replace

from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.arch.config import VectorEngineConfig
from repro.isa import I


def fresh(config=None):
    return DecoupledProcessor(config or ProcessorConfig.paper_default())


@st.composite
def instruction_streams(draw):
    """Random valid vector/scalar instruction mixes."""
    length = draw(st.integers(min_value=1, max_value=60))
    stream = []
    for _ in range(length):
        kind = draw(st.integers(min_value=0, max_value=5))
        vd = draw(st.integers(min_value=1, max_value=15))
        vs = draw(st.integers(min_value=1, max_value=15))
        if kind == 0:
            stream.append(I.addi("a0", "a0", 1))
        elif kind == 1:
            stream.append(I.vadd_vi(vd, vs, 1))
        elif kind == 2:
            stream.append(I.vslide1down_vx(vd, vs, 0))
        elif kind == 3:
            stream.append(I.vmv_x_s("t0", vs))
        elif kind == 4:
            stream.append(I.vfmacc_vv(vd, vs, (vs % 15) + 1))
        else:
            stream.append(I.vmv_v_i(vd, 0))
    return stream


@given(instruction_streams())
@settings(max_examples=40, deadline=None)
def test_cycles_monotonic_in_stream_length(stream):
    """Prefixes of a stream never take longer than the whole stream."""
    full = fresh()
    full.run(stream)
    prefix = fresh()
    prefix.run(stream[:len(stream) // 2])
    assert prefix.cycles <= full.cycles


@given(instruction_streams())
@settings(max_examples=40, deadline=None)
def test_time_never_negative_and_counts_consistent(stream):
    proc = fresh()
    proc.run(stream)
    s = proc.stats()
    assert s.cycles >= 0
    assert s.instructions == len(stream)
    assert s.instructions == s.scalar_instructions + s.vector_instructions


@given(instruction_streams())
@settings(max_examples=20, deadline=None)
def test_determinism(stream):
    a, b = fresh(), fresh()
    a.run(stream)
    b.run(stream)
    assert a.cycles == b.cycles
    np.testing.assert_array_equal(a.vrf.raw, b.vrf.raw)
    assert a.xrf.values == b.xrf.values


def test_slower_memory_never_speeds_up_kernel():
    from repro.arch.config import DramConfig
    from repro.kernels import Schedule, compile_trace, stage_spmm
    from repro.sparse import random_nm_matrix

    rng = np.random.default_rng(0)
    a = random_nm_matrix(8, 64, 1, 4, rng)
    b = rng.standard_normal((64, 32)).astype(np.float32)
    base_cfg = ProcessorConfig.paper_default()
    slow_cfg = replace(base_cfg, dram=DramConfig(
        row_hit_latency=200, row_miss_latency=400, cycles_per_line=20))
    cycles = []
    for cfg in (base_cfg, slow_cfg):
        proc = DecoupledProcessor(cfg)
        staged = stage_spmm(proc.mem, a, b)
        proc.run(compile_trace("rowwise-spmm", staged, Schedule()))
        cycles.append(proc.cycles)
    assert cycles[1] > cycles[0]


def test_narrower_viq_never_faster():
    """Shrinking the vector instruction queue cannot reduce cycles."""
    stream = []
    for i in range(200):
        stream.append(I.vadd_vi(1 + i % 8, 9, 1))
        stream.append(I.addi("a0", "a0", 1))
    cycles = {}
    for depth in (2, 16):
        cfg = replace(ProcessorConfig.paper_default(),
                      vector=replace(VectorEngineConfig(), queue_depth=depth))
        proc = DecoupledProcessor(cfg)
        proc.run(stream)
        cycles[depth] = proc.cycles
    assert cycles[2] >= cycles[16]


def test_fewer_load_queues_never_faster():
    from repro.kernels import Schedule, compile_trace, stage_spmm
    from repro.sparse import random_nm_matrix

    rng = np.random.default_rng(1)
    a = random_nm_matrix(8, 64, 2, 4, rng)
    b = rng.standard_normal((64, 64)).astype(np.float32)
    cycles = {}
    for queues in (2, 16):
        cfg = replace(ProcessorConfig.paper_default(),
                      vector=replace(VectorEngineConfig(),
                                     load_queues=queues))
        proc = DecoupledProcessor(cfg)
        staged = stage_spmm(proc.mem, a, b)
        proc.run(compile_trace("rowwise-spmm", staged, Schedule()))
        cycles[queues] = proc.cycles
    assert cycles[2] >= cycles[16]


def test_higher_mac_latency_never_faster():
    stream = [I.vfmacc_vv(8, 1, 2) for _ in range(64)]
    cycles = {}
    for lat in (2, 12):
        cfg = replace(ProcessorConfig.paper_default(),
                      vector=replace(VectorEngineConfig(), mac_latency=lat))
        proc = DecoupledProcessor(cfg)
        proc.run(stream)
        cycles[lat] = proc.cycles
    assert cycles[12] > cycles[2]


def test_vindexmac_extra_latency_knob():
    """Section III-B's configurable extra cycle for the indexed read."""
    stream = []
    for _ in range(32):
        stream.append(I.vmv_x_s("t0", 2))
        stream.append(I.vindexmac_vx(8, 1, "t0"))
    cycles = {}
    for extra in (0, 4):
        cfg = replace(ProcessorConfig.paper_default(),
                      vector=replace(VectorEngineConfig(),
                                     indexmac_extra_latency=extra))
        proc = DecoupledProcessor(cfg)
        proc.vrf.set_i32(2, np.full(16, 20, dtype=np.int32))
        proc.run(stream)
        cycles[extra] = proc.cycles
    assert cycles[4] > cycles[0]


def test_rob_limits_runahead():
    """A long-latency producer plus a tiny ROB throttles dispatch."""
    from repro.arch.config import ScalarCoreConfig

    stream = [I.ld("a1", "a0", 0)] + [I.addi("a2", "a2", 1)] * 300
    cycles = {}
    for rob in (4, 60):
        cfg = replace(ProcessorConfig.paper_default(),
                      scalar=replace(ScalarCoreConfig(), rob_entries=rob))
        proc = DecoupledProcessor(cfg)
        proc.xrf.write(10, proc.mem.allocate(64))
        proc.run(stream)
        cycles[rob] = proc.cycles
    assert cycles[4] >= cycles[60]
