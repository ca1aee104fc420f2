#!/usr/bin/env python3
"""Quickstart: run both SpMM designs on one structured-sparse GEMM.

Builds a 2:4 structured-sparse matrix A and a dense matrix B, executes
the paper's two kernels — 'Row-Wise-SpMM' (Algorithm 2) and 'Proposed'
(Algorithm 3, using the new vindexmac instruction) — on the simulated
decoupled RISC-V vector processor, checks both results against numpy,
and reports the speedup and the memory-access reduction.

Run:  python examples/quickstart.py
"""

import numpy as np

from repro import (
    DecoupledProcessor,
    ProcessorConfig,
    Schedule,
    compile_trace,
    random_nm_matrix,
    read_result,
    stage_spmm,
)


def run_kernel(kernel, a, b):
    """Simulate one kernel; returns (stats, result matrix)."""
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    staged = stage_spmm(proc.mem, a, b)
    proc.run(compile_trace(kernel, staged,
                           Schedule(unroll=4, tile_rows=16)))
    return proc.stats(), read_result(proc.mem, staged)


def main():
    rng = np.random.default_rng(42)

    # A: 32x128 with 2:4 structured sparsity (up to 2 non-zeros per
    # aligned block of 4, Fig. 1b of the paper); B: dense 128x64.
    a = random_nm_matrix(32, 128, 2, 4, rng)
    b = rng.standard_normal((128, 64)).astype(np.float32)
    print(f"A: {a}")
    print(f"B: dense {b.shape}\n")

    base_stats, base_c = run_kernel("rowwise-spmm", a, b)
    prop_stats, prop_c = run_kernel("indexmac-spmm", a, b)

    reference = a.to_dense().astype(np.float64) @ b.astype(np.float64)
    for name, c in (("Row-Wise-SpMM", base_c), ("Proposed", prop_c)):
        err = np.abs(c - reference).max()
        print(f"{name:14s} matches numpy (max abs error {err:.2e})")

    print(f"\n{'':14s}{'cycles':>12s}{'vector mem ops':>16s}")
    print(f"{'Row-Wise-SpMM':14s}{base_stats.cycles:12,.0f}"
          f"{base_stats.vector_mem_instrs:16,}")
    print(f"{'Proposed':14s}{prop_stats.cycles:12,.0f}"
          f"{prop_stats.vector_mem_instrs:16,}")

    speedup = base_stats.cycles / prop_stats.cycles
    saved = 1 - prop_stats.vector_mem_instrs / base_stats.vector_mem_instrs
    print(f"\nspeedup:               {speedup:.2f}x"
          "   (paper reports 1.80x-2.14x on CNN layers)")
    print(f"memory access savings: {saved:.0%}"
          "   (paper reports 48% at 1:4, 65% at 2:4)")


if __name__ == "__main__":
    main()
