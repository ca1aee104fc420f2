#!/usr/bin/env python3
"""End-to-end convolution: image -> im2col -> sparse GEMM -> feature map.

Demonstrates the full lowering path of Section IV-A on a real (small)
convolution: synthetic weights are magnitude-pruned to 2:4 structured
sparsity, the input feature map is unfolded with im2col into the dense
matrix B, the vindexmac kernel computes the GEMM on the simulated
processor, and the resulting feature map is checked against a direct
convolution oracle.

Run:  python examples/end_to_end_conv.py
"""

import numpy as np

from repro import (
    DecoupledProcessor,
    NMSparseMatrix,
    ProcessorConfig,
    Schedule,
    compile_trace,
    magnitude_prune,
    read_result,
    stage_spmm,
)
from repro.nn import conv, conv2d_direct, im2col, weights_to_gemm_a
from repro.sparse import pad_columns


def main():
    rng = np.random.default_rng(7)

    # a small mid-network convolution: 32 -> 16 channels, 3x3, 14x14
    layer = conv("demo_conv", cin=32, cout=16, hw=14, k=3)
    print(layer.describe())

    weights = rng.standard_normal(
        (layer.out_channels, layer.in_channels, 3, 3)).astype(np.float32)
    features = rng.standard_normal(
        (layer.in_channels, layer.in_h, layer.in_w)).astype(np.float32)

    # 1) prune the weights to 2:4 structured sparsity (per GEMM row)
    a_dense = magnitude_prune(weights_to_gemm_a(weights, layer), 2, 4)
    pruned_weights = a_dense.reshape(weights.shape)
    kept = np.count_nonzero(a_dense) / a_dense.size
    print(f"weights pruned to 2:4 -> density {kept:.0%}")

    # 2) lower the convolution to the sparse x dense GEMM
    b = im2col(features, layer)
    print(f"im2col B: {b.shape} (= Cin*kh*kw x out_h*out_w)")

    # pad to the kernel's tiling requirements (K % 16, N % 16)
    a_padded = pad_columns(a_dense, 16)
    b_padded = np.zeros((a_padded.shape[1], (b.shape[1] + 15) // 16 * 16),
                        dtype=np.float32)
    b_padded[:b.shape[0], :b.shape[1]] = b
    a = NMSparseMatrix.from_dense(a_padded, 2, 4)

    # 3) run the vindexmac kernel on the simulated processor
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    staged = stage_spmm(proc.mem, a, b_padded)
    proc.run(compile_trace("indexmac-spmm", staged, Schedule()))
    stats = proc.stats()
    c = read_result(proc.mem, staged)
    out = c[:, :layer.gemm.n].reshape(
        layer.out_channels, layer.out_h, layer.out_w)

    # 4) verify against the direct-convolution oracle (pruned weights)
    oracle = conv2d_direct(features, pruned_weights, layer)
    err = np.abs(out - oracle).max()
    print(f"feature map {out.shape} matches direct convolution "
          f"(max abs error {err:.2e})")

    print(f"\nsimulated execution: {stats.cycles:,.0f} cycles, "
          f"{stats.instructions:,} instructions")
    print(f"vindexmac ops: {stats.vindexmac_count:,} "
          "(one per stored non-zero per column tile)")
    print(f"vector loads:  {stats.vector_loads:,} "
          "(B rows enter the VRF once per tile, never per non-zero)")


if __name__ == "__main__":
    main()
