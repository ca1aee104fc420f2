"""Regenerate ``golden_streams.json`` — the stream-identity oracle.

Run from a revision whose kernel emitters are known-good (the file in
the repository was captured from the last hand-written emitters, before
the schedule-driven compiler replaced their bodies)::

    PYTHONPATH=src python tests/data/capture_golden.py

Each entry records a sha256 fingerprint of the exact dynamic
instruction stream (see ``Trace.fingerprint``) for one (kernel,
schedule, workload) point, so ``tests/test_compiler_golden.py`` can
prove that the compiler reproduces the historical streams
instruction-for-instruction without keeping the old emitters around.
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.kernels.compiler import Schedule, compile_trace
from repro.kernels.dataflow import Dataflow
from repro.kernels.layout import stage_csr, stage_dense, stage_spmm
from repro.sparse import random_nm_matrix
from repro.sparse.csr import CSRMatrix


def fingerprint(trace) -> str:
    lines = (",".join(map(str, i.key())) for i in trace.instructions())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def spmm_staged(rows, k, n, nm, seed=0):
    rng = np.random.default_rng(seed)
    a = random_nm_matrix(rows, k, *nm, rng)
    b = rng.standard_normal((k, n)).astype(np.float32)
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    return stage_spmm(proc.mem, a, b), a, b


def main() -> None:
    cases = []
    shape = dict(rows=10, k=32, n=32)

    for nm in ((1, 4), (2, 4)):
        staged, _, _ = spmm_staged(nm=nm, **shape)
        for df in ("B", "C", "A"):
            for unroll in (1, 2, 4):
                for tile in (8, 16):
                    schedule = Schedule(unroll=unroll, tile_rows=tile,
                                        dataflow=Dataflow(df))
                    trace = compile_trace("rowwise-spmm", staged, schedule)
                    cases.append(dict(
                        kernel="rowwise-spmm", nm=nm, dataflow=df,
                        unroll=unroll, tile_rows=tile, init_c_zero=True,
                        **shape, n_instrs=trace.dynamic_length,
                        fingerprint=fingerprint(trace)))
        for unroll in (1, 2, 4):
            for tile in (8, 16):
                schedule = Schedule(unroll=unroll, tile_rows=tile)
                trace = compile_trace("indexmac-spmm", staged, schedule)
                cases.append(dict(
                    kernel="indexmac-spmm", nm=nm, dataflow="B",
                    unroll=unroll, tile_rows=tile, init_c_zero=True,
                    **shape, n_instrs=trace.dynamic_length,
                    fingerprint=fingerprint(trace)))

    # init_c_zero=False (C loaded on the first k-tile too)
    staged, _, _ = spmm_staged(nm=(1, 4), **shape)
    for kernel in ("rowwise-spmm", "indexmac-spmm"):
        trace = compile_trace(kernel, staged, Schedule(init_c_zero=False))
        cases.append(dict(
            kernel=kernel, nm=(1, 4), dataflow="B", unroll=4,
            tile_rows=16, init_c_zero=False, **shape,
            n_instrs=trace.dynamic_length, fingerprint=fingerprint(trace)))

    # dense rowwise (Algorithm 1)
    rng = np.random.default_rng(0)
    a = rng.standard_normal((10, 32)).astype(np.float32)
    b = rng.standard_normal((32, 32)).astype(np.float32)
    for unroll in (1, 2, 4):
        for init_c_zero in ((True,) if unroll != 4 else (True, False)):
            proc = DecoupledProcessor(ProcessorConfig.paper_default())
            staged_d = stage_dense(proc.mem, a, b)
            schedule = Schedule(unroll=unroll, init_c_zero=init_c_zero)
            trace = compile_trace("dense-rowwise", staged_d, schedule)
            cases.append(dict(
                kernel="dense-rowwise", nm=None, dataflow=None,
                unroll=unroll, tile_rows=16, init_c_zero=init_c_zero,
                **shape, n_instrs=trace.dynamic_length,
                fingerprint=fingerprint(trace)))

    # unstructured CSR
    for seed, (rows, k, n) in ((0, (6, 32, 16)), (1, (10, 48, 32))):
        rng = np.random.default_rng(seed)
        a_nm = random_nm_matrix(rows, k, 2, 4, rng)
        b = rng.standard_normal((k, n)).astype(np.float32)
        proc = DecoupledProcessor(ProcessorConfig.paper_default())
        staged_c = stage_csr(proc.mem, CSRMatrix.from_dense(a_nm.to_dense()),
                             b)
        trace = compile_trace("csr-spmm", staged_c)
        cases.append(dict(
            kernel="csr-spmm", nm=(2, 4), dataflow=None, unroll=1,
            tile_rows=16, init_c_zero=True, rows=rows, k=k, n=n,
            seed=seed, n_instrs=trace.dynamic_length,
            fingerprint=fingerprint(trace)))

    out = Path(__file__).parent / "golden_streams.json"
    out.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"{len(cases)} golden cases -> {out}")


if __name__ == "__main__":
    main()
