"""Hypothesis property tests for kernels on the simulator."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.kernels import (
    Dataflow,
    Schedule,
    compile_trace,
    read_result,
    stage_spmm,
)
from repro.sparse import random_nm_matrix

CFG = ProcessorConfig.paper_default()


@st.composite
def spmm_cases(draw):
    nm = draw(st.sampled_from([(1, 4), (2, 4), (1, 2), (2, 8)]))
    rows = draw(st.integers(min_value=1, max_value=9))
    k_tiles = draw(st.integers(min_value=1, max_value=3))
    col_tiles = draw(st.integers(min_value=1, max_value=3))
    unroll = draw(st.sampled_from([1, 2, 4]))
    seed = draw(st.integers(min_value=0, max_value=2**31 - 1))
    return nm, rows, 16 * k_tiles, 16 * col_tiles, unroll, seed


def simulate(kernel, nm, rows, k, n, unroll, seed):
    rng = np.random.default_rng(seed)
    a = random_nm_matrix(rows, k, *nm, rng)
    b = rng.standard_normal((k, n)).astype(np.float32)
    proc = DecoupledProcessor(CFG)
    staged = stage_spmm(proc.mem, a, b)
    proc.run(compile_trace(kernel, staged, Schedule(unroll=unroll)))
    ref = a.to_dense().astype(np.float64) @ b.astype(np.float64)
    return proc, read_result(proc.mem, staged), ref


@given(spmm_cases())
@settings(max_examples=25, deadline=None)
def test_indexmac_correct_for_random_shapes(case):
    nm, rows, k, n, unroll, seed = case
    proc, got, ref = simulate("indexmac-spmm", nm, rows, k, n,
                              unroll, seed)
    np.testing.assert_allclose(got, ref, rtol=1e-3, atol=1e-3)


@given(spmm_cases())
@settings(max_examples=25, deadline=None)
def test_rowwise_correct_for_random_shapes(case):
    nm, rows, k, n, unroll, seed = case
    proc, got, ref = simulate("rowwise-spmm", nm, rows, k, n,
                              unroll, seed)
    np.testing.assert_allclose(got, ref, rtol=1e-3, atol=1e-3)


@given(spmm_cases())
@settings(max_examples=15, deadline=None)
def test_kernels_agree_bitwise(case):
    """Both kernels accumulate in the same order -> identical float32."""
    nm, rows, k, n, unroll, seed = case
    _, c_prop, _ = simulate("indexmac-spmm", nm, rows, k, n,
                            unroll, seed)
    _, c_base, _ = simulate("rowwise-spmm", nm, rows, k, n,
                            unroll, seed)
    np.testing.assert_array_equal(c_prop, c_base)


@given(spmm_cases())
@settings(max_examples=15, deadline=None)
def test_proposed_never_more_memory_instrs(case):
    """For any shape, the proposed kernel issues <= the baseline's
    vector memory instructions when A has at least L rows to amortize
    the tile preload... and always wins on B-load count."""
    nm, rows, k, n, unroll, seed = case
    proc_p, _, _ = simulate("indexmac-spmm", nm, rows, k, n,
                            unroll, seed)
    proc_b, _, _ = simulate("rowwise-spmm", nm, rows, k, n,
                            unroll, seed)
    sp, sb = proc_p.stats(), proc_b.stats()
    # stores identical; loads differ by (preload) vs (per-non-zero B)
    assert sp.vector_stores == sb.vector_stores
    slots = k // nm[1] * nm[0]
    b_loads_baseline = rows * slots * (n // 16)
    preload = 16 * (k // 16) * (n // 16)
    assert sb.vector_loads - b_loads_baseline == \
        sp.vector_loads - preload  # A and C loads identical


@given(st.integers(min_value=0, max_value=2**31 - 1),
       st.sampled_from([(1, 4), (2, 4)]))
@settings(max_examples=10, deadline=None)
def test_unroll_does_not_change_results(seed, nm):
    results = []
    for unroll in (1, 2, 4):
        rng = np.random.default_rng(seed)
        a = random_nm_matrix(6, 32, *nm, rng)
        b = rng.standard_normal((32, 16)).astype(np.float32)
        proc = DecoupledProcessor(CFG)
        staged = stage_spmm(proc.mem, a, b)
        proc.run(compile_trace("indexmac-spmm", staged,
                               Schedule(unroll=unroll)))
        results.append(read_result(proc.mem, staged))
    np.testing.assert_array_equal(results[0], results[1])
    np.testing.assert_array_equal(results[1], results[2])


@given(st.sampled_from(list(Dataflow)),
       st.integers(min_value=0, max_value=2**31 - 1))
@settings(max_examples=12, deadline=None)
def test_dataflows_agree_numerically(dataflow, seed):
    rng = np.random.default_rng(seed)
    a = random_nm_matrix(5, 32, 2, 4, rng)
    b = rng.standard_normal((32, 32)).astype(np.float32)
    proc = DecoupledProcessor(CFG)
    staged = stage_spmm(proc.mem, a, b)
    proc.run(compile_trace("rowwise-spmm", staged,
                           Schedule(dataflow=dataflow)))
    ref = a.to_dense().astype(np.float64) @ b.astype(np.float64)
    np.testing.assert_allclose(read_result(proc.mem, staged), ref,
                               rtol=1e-3, atol=1e-3)
