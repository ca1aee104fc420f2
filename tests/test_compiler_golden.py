"""Golden stream-identity: compiled kernels == the historical emitters.

``tests/data/golden_streams.json`` pins sha256 fingerprints of the
exact dynamic instruction streams the four hand-written kernel emitters
produced (captured by ``tests/data/capture_golden.py`` immediately
before the schedule-driven compiler replaced their bodies).  These
tests prove the compiler reproduces every one of them
instruction-for-instruction — across kernels, dataflows, unrolls, tile
heights, N:M patterns and the init-C-zero toggle — without keeping the
old emitters in the tree.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.kernels import (
    Dataflow,
    Schedule,
    compile_trace,
    stage_csr,
    stage_dense,
    stage_spmm,
)
from repro.sparse import random_nm_matrix
from repro.sparse.csr import CSRMatrix

GOLDEN = json.loads(
    (Path(__file__).parent / "data" / "golden_streams.json").read_text())


def _case_id(case) -> str:
    return (f"{case['kernel']}-{case.get('dataflow')}"
            f"-u{case['unroll']}-L{case['tile_rows']}"
            f"-nm{case['nm']}-z{case['init_c_zero']}")


def build_case_trace(case):
    """Recreate the staged operands and the trace of one golden case
    (same RNG/staging discipline as the capture script)."""
    kernel = case["kernel"]
    if kernel in ("rowwise-spmm", "indexmac-spmm"):
        rng = np.random.default_rng(0)
        a = random_nm_matrix(case["rows"], case["k"], *case["nm"], rng)
        b = rng.standard_normal((case["k"], case["n"])).astype(np.float32)
        proc = DecoupledProcessor(ProcessorConfig.paper_default())
        staged = stage_spmm(proc.mem, a, b)
        schedule = Schedule(unroll=case["unroll"],
                            tile_rows=case["tile_rows"],
                            dataflow=Dataflow(case["dataflow"]),
                            init_c_zero=case["init_c_zero"])
        return compile_trace(kernel, staged, schedule)
    if kernel == "dense-rowwise":
        rng = np.random.default_rng(0)
        a = rng.standard_normal((case["rows"], case["k"])).astype(np.float32)
        b = rng.standard_normal((case["k"], case["n"])).astype(np.float32)
        proc = DecoupledProcessor(ProcessorConfig.paper_default())
        staged = stage_dense(proc.mem, a, b)
        schedule = Schedule(unroll=case["unroll"],
                            init_c_zero=case["init_c_zero"])
        return compile_trace(kernel, staged, schedule)
    assert kernel == "csr-spmm"
    rng = np.random.default_rng(case["seed"])
    a_nm = random_nm_matrix(case["rows"], case["k"], 2, 4, rng)
    b = rng.standard_normal((case["k"], case["n"])).astype(np.float32)
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    staged = stage_csr(proc.mem, CSRMatrix.from_dense(a_nm.to_dense()), b)
    return compile_trace(kernel, staged)


def test_golden_corpus_covers_all_four_kernels():
    kernels = {case["kernel"] for case in GOLDEN}
    assert kernels == {"dense-rowwise", "rowwise-spmm", "indexmac-spmm",
                       "csr-spmm"}
    assert len(GOLDEN) >= 50


@pytest.mark.parametrize("case", GOLDEN, ids=_case_id)
def test_compiled_stream_matches_golden(case):
    trace = build_case_trace(case)
    assert trace.dynamic_length == case["n_instrs"]
    assert trace.fingerprint() == case["fingerprint"]

