"""Regenerate ``golden_fullsize_counts.json`` — the full-size count oracle.

Run from a revision whose kernel compiler and static profiler are
known-good::

    PYTHONPATH=src python tests/data/capture_fullsize_counts.py

For every model, unique layer, N:M pattern (1:4, 2:4) and N:M kernel
(``rowwise-spmm``, ``indexmac-spmm``) it plans the layer's ``FULL``-size
padded GEMM on the Table I machine, compiles the kernel under the paper
schedule and records five counts of the trace's static profile
(:func:`~repro.analytic.calibration.profile_trace`): vector loads,
vector stores, the other vector instructions, vector-to-scalar moves
and MACs — the counts Fig. 6's full-size column rests on.  When the
file was first captured every value equalled the hand-derived closed
forms the profile replaced.  Scalar counts are left out: the closed
forms got them wrong on 61 of the 492 entries.
``tests/test_analytic.py`` recomputes every entry and compares exactly.
"""

import json
from pathlib import Path

from repro.analytic.calibration import profile_trace
from repro.arch.config import ProcessorConfig
from repro.kernels.compiler import Schedule, get_trace_kernel
from repro.kernels.layout import plan_spmm
from repro.nn.models import get_model, list_models, unique_gemm_layers
from repro.nn.workload import FULL, padded_gemm

OUT = Path(__file__).parent / "golden_fullsize_counts.json"

PATTERNS = ((1, 4), (2, 4))
KERNELS = ("rowwise-spmm", "indexmac-spmm")


def counts(profile) -> dict:
    """The five pinned counts of one :class:`TraceProfile`."""
    memory = profile.vector_loads + profile.vector_stores
    return {"vector_loads": profile.vector_loads,
            "vector_stores": profile.vector_stores,
            "other_vector": profile.vector_instructions - memory,
            "v2s_moves": profile.v2s_moves,
            "macs": profile.vector_mac}


def entries(models=None) -> list[dict]:
    """One entry per model x unique layer x pattern x kernel, in order."""
    config = ProcessorConfig.paper_default()
    out = []
    for model in models or list_models():
        for layer, _ in unique_gemm_layers(get_model(model)):
            for nm in PATTERNS:
                gemm = padded_gemm(layer.gemm, *nm, policy=FULL)
                geometry = plan_spmm(gemm.rows, gemm.k, gemm.n, *nm,
                                     config.memory_bytes)
                for kernel in KERNELS:
                    trace = get_trace_kernel(kernel)(geometry, Schedule())
                    out.append(dict(
                        model=model, layer=layer.name, nm=list(nm),
                        kernel=kernel,
                        **counts(profile_trace(trace, config))))
    return out


def main() -> None:
    cases = entries()
    # one entry per line, so a changed count shows as one changed line
    OUT.write_text("[\n" + ",\n".join(json.dumps(e) for e in cases)
                   + "\n]\n")
    print(f"{len(cases)} full-size entries -> {OUT}")


if __name__ == "__main__":
    main()
