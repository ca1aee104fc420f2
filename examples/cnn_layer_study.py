#!/usr/bin/env python3
"""Per-layer study: sparse CNN layers on the simulated vector processor.

Takes a handful of representative ResNet50 layers (early / middle /
late), prunes synthetic weights to 1:4 and 2:4 structured sparsity,
lowers each convolution to its sparse x dense GEMM, and compares
'Row-Wise-SpMM' against the vindexmac kernel — a miniature of the
paper's Fig. 4.

Run:  python examples/cnn_layer_study.py [--policy tiny|small|medium]
"""

import argparse

from repro.arch import ProcessorConfig
from repro.eval import compare_layer, format_table, pct
from repro.nn import POLICIES, get_model, make_layer_workload

LAYERS = ("conv1", "conv2_1_3x3", "conv3_1_3x3", "conv4_1_3x3",
          "conv5_1_3x3", "conv5_1_1x1b")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--policy", default="small",
                        choices=sorted(POLICIES),
                        help="workload scale policy (default: small)")
    args = parser.parse_args()
    policy = POLICIES[args.policy]
    config = ProcessorConfig.scaled_default()
    layers = {l.name: l for l in get_model("resnet50")}

    for nm in ((1, 4), (2, 4)):
        rows = []
        for name in LAYERS:
            layer = layers[name]
            workload = make_layer_workload(layer, *nm, policy=policy)
            comp = compare_layer(workload, config=config)
            rows.append([
                name,
                str(layer.gemm),
                str(workload.scaled),
                f"{comp.baseline.cycles:,.0f}",
                f"{comp.proposed.cycles:,.0f}",
                f"{comp.speedup:.2f}x",
                pct(comp.mem_reduction),
            ])
        print(format_table(
            ["layer", "full GEMM", "simulated GEMM", "Row-Wise cycles",
             "Proposed cycles", "speedup", "mem saved"],
            rows,
            title=f"ResNet50 layers at {nm[0]}:{nm[1]} structured sparsity"
                  f" (policy: {policy.name})"))
        print()


if __name__ == "__main__":
    main()
