#!/usr/bin/env python3
"""Energy study (extension beyond the paper).

The paper quantifies speedup and memory-access reduction; this example
asks the natural follow-up — what do the eliminated vector loads and
halved vector-to-scalar transfers mean for energy?  Uses the
event-based model of ``repro.arch.energy`` (Horowitz-style per-event
costs) on a mid-network ResNet50 layer.

Run:  python examples/energy_study.py
"""

from repro.arch import DecoupledProcessor, ProcessorConfig, energy_of
from repro.eval.report import format_table, pct
from repro.kernels import Schedule, compile_trace, stage_spmm
from repro.nn import SMALL, get_model, make_layer_workload


def main():
    layer = next(l for l in get_model("resnet50")
                 if l.name == "conv3_1_3x3")
    config = ProcessorConfig.scaled_default()

    for nm in ((1, 4), (2, 4)):
        workload = make_layer_workload(layer, *nm, policy=SMALL)
        reports = {}
        for name, kernel in (("Row-Wise-SpMM", "rowwise-spmm"),
                             ("Proposed", "indexmac-spmm")):
            proc = DecoupledProcessor(config)
            staged = stage_spmm(proc.mem, workload.a, workload.b)
            proc.run(compile_trace(kernel, staged, Schedule()))
            reports[name] = energy_of(proc.stats())

        base, prop = reports["Row-Wise-SpMM"], reports["Proposed"]
        rows = []
        for component in sorted(base.breakdown_pj,
                                key=lambda k: -base.breakdown_pj[k]):
            b = base.breakdown_pj[component]
            p = prop.breakdown_pj[component]
            change = (p - b) / b if b else 0.0
            rows.append([component, f"{b / 1e6:.3f}", f"{p / 1e6:.3f}",
                         f"{change:+.0%}"])
        rows.append(["TOTAL", f"{base.total_uj:.3f}",
                     f"{prop.total_uj:.3f}",
                     f"{(prop.total_pj - base.total_pj) / base.total_pj:+.0%}"])
        print(format_table(
            ["component", "Row-Wise uJ", "Proposed uJ", "change"],
            rows,
            title=f"{layer.name} at {nm[0]}:{nm[1]} — energy by component"))

        non_dram_base = base.total_pj - base.breakdown_pj["dram"]
        non_dram_prop = prop.total_pj - prop.breakdown_pj["dram"]
        print("controllable (non-DRAM) energy reduction: "
              f"{pct(1 - non_dram_prop / non_dram_base)}"
              "  (DRAM cold-miss traffic is compulsory for both)\n")


if __name__ == "__main__":
    main()
