"""Timing-backend cross-validation on the ResNet-50 layer set.

Three claims are demonstrated, each with the numbers that back it:

1. **Figure accuracy** — at the experiment scale every Fig. 4 per-layer
   speedup ratio computed by ``compressed-replay`` is within +-2% of
   ``detailed``, the Fig. 5 total-CNN ratio matches, and the Fig. 6
   vector-memory-access counts are *exact* (they are extrapolated from
   identical per-iteration instruction mixes, so no tolerance is
   needed).

2. **Compression** — on steady-state-dominated replications of the
   layer set (rows scaled up instead of down, approximating batched
   inference), ``compressed-replay`` assigns detailed timing to >= 10x
   fewer instructions while the speedup ratios stay within tolerance.

3. **Speed** — on the same tall set, the four-tier backend ladder is
   measured wall-clock: ``batch-replay`` beats ``compressed-replay``
   and runs a multiple of ``detailed``'s throughput bit-exactly, and
   ``analytic-sampled`` is orders of magnitude faster again.  The
   measured numbers are archived as ``backend_speed.json``.

Set ``REPRO_BENCH_POLICY`` as usual for the accuracy half; the
compression and speed halves use their own tall replication scale.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from common import (  # noqa: E402
    RESULTS_DIR,
    config_from_env,
    policy_from_env,
    publish,
)

import numpy as np

from repro.arch import DecoupledProcessor
from repro.arch.timing import COMPRESSED_REPLAY, DETAILED, get_backend
from repro.eval.engine import atomic_write_text
from repro.eval.report import format_table
from repro.kernels import Schedule, get_trace_kernel, stage_spmm
from repro.nn.models import get_model, unique_gemm_layers
from repro.nn.workload import make_layer_workload

BASELINE, PROPOSED = "rowwise-spmm", "indexmac-spmm"

#: Tall replication of the layer set for the compression half: rows are
#: kept (clamped into a steady-state-dominated band, approximating a
#: batched im2col GEMM); K and N are trimmed to keep runtime modest.
from repro.nn.workload import ScalePolicy  # noqa: E402

REPLAY_SCALE = ScalePolicy("replay-bench", 1, (256, 1024), 4, (32, 128),
                           16, (16, 32))


def _run(kernel, workload, backend, config):
    proc = DecoupledProcessor(config)
    staged = stage_spmm(proc.mem, workload.a, workload.b)
    trace = get_trace_kernel(kernel)(staged, Schedule())
    if isinstance(backend, str):
        backend = get_backend(backend)
    return backend.run(proc, trace)


def _layer_table(policy, config, nm=(1, 4)):
    rows = []
    timed = dynamic = 0
    totals = {(k, b): 0.0 for k in (BASELINE, PROPOSED)
              for b in (DETAILED, COMPRESSED_REPLAY)}
    for layer, mult in unique_gemm_layers(get_model("resnet50")):
        workload = make_layer_workload(layer, *nm, policy=policy)
        results = {}
        for kernel in (BASELINE, PROPOSED):
            for backend in (DETAILED, COMPRESSED_REPLAY):
                res = _run(kernel, workload, backend, config)
                results[(kernel, backend)] = res
                totals[(kernel, backend)] += mult * res.stats.cycles
                if backend == COMPRESSED_REPLAY:
                    timed += res.timed_instructions
                    dynamic += res.dynamic_instructions
        det = results[(BASELINE, DETAILED)].stats.cycles \
            / results[(PROPOSED, DETAILED)].stats.cycles
        com = results[(BASELINE, COMPRESSED_REPLAY)].stats.cycles \
            / results[(PROPOSED, COMPRESSED_REPLAY)].stats.cycles
        mem_exact = all(
            results[(k, DETAILED)].stats.vector_mem_instrs
            == results[(k, COMPRESSED_REPLAY)].stats.vector_mem_instrs
            for k in (BASELINE, PROPOSED))
        rows.append([layer.name, det, com, f"{abs(com - det) / det:.2%}",
                     "exact" if mem_exact else "DIFFER"])
    agg_det = totals[(BASELINE, DETAILED)] / totals[(PROPOSED, DETAILED)]
    agg_com = totals[(BASELINE, COMPRESSED_REPLAY)] \
        / totals[(PROPOSED, COMPRESSED_REPLAY)]
    return rows, (agg_det, agg_com), timed, dynamic


def bench_backend_accuracy(benchmark, capsys):
    """Fig. 4-6 ratios under compressed-replay at the figure scale."""
    policy = policy_from_env()
    config = config_from_env()
    rows, (agg_det, agg_com), timed, dynamic = benchmark.pedantic(
        lambda: _layer_table(policy, config), rounds=1, iterations=1)

    errors = [abs(r[2] - r[1]) / r[1] for r in rows]
    assert max(errors) <= 0.02, \
        f"worst per-layer speedup-ratio error {max(errors):.2%}"
    assert abs(agg_com - agg_det) / agg_det <= 0.02
    assert all(r[4] == "exact" for r in rows), "Fig. 6 counts must be exact"

    text = format_table(
        ["layer", "speedup (detailed)", "speedup (compressed)",
         "ratio error", "Fig.6 counts"],
        rows,
        title=(f"Backend cross-validation, policy {policy.name!r}, 1:4 — "
               f"total speedup {agg_det:.3f} vs {agg_com:.3f}, "
               f"{dynamic / max(timed, 1):.1f}x fewer timed instructions"))
    publish("backend_accuracy", text, capsys)


def bench_backend_compression(benchmark, capsys):
    """>= 10x fewer timed instructions on tall layer replications."""
    config = config_from_env()
    #: the steady-state-dominated band of the layer set — every layer
    #: whose scaled GEMM runs >= 256 unrolled row-loop iterations
    names = ["conv2_1_1x1b", "conv3_1_1x1b", "conv4_1_1x1b",
             "conv4_1_proj", "conv5_1_1x1b", "conv5_1_proj"]
    layers = {l.name: l for l, _ in
              unique_gemm_layers(get_model("resnet50"))}

    def run_set():
        rows = []
        timed = dynamic = 0
        for name in names:
            workload = make_layer_workload(layers[name], 1, 4,
                                           policy=REPLAY_SCALE)
            results = {}
            for kernel in (BASELINE, PROPOSED):
                for backend in (DETAILED, COMPRESSED_REPLAY):
                    res = _run(kernel, workload, backend, config)
                    results[(kernel, backend)] = res
                    if backend == COMPRESSED_REPLAY:
                        timed += res.timed_instructions
                        dynamic += res.dynamic_instructions
            det = results[(BASELINE, DETAILED)].stats.cycles \
                / results[(PROPOSED, DETAILED)].stats.cycles
            com = results[(BASELINE, COMPRESSED_REPLAY)].stats.cycles \
                / results[(PROPOSED, COMPRESSED_REPLAY)].stats.cycles
            layer_timed = sum(
                results[(k, COMPRESSED_REPLAY)].timed_instructions
                for k in (BASELINE, PROPOSED))
            layer_dyn = sum(
                results[(k, COMPRESSED_REPLAY)].dynamic_instructions
                for k in (BASELINE, PROPOSED))
            rows.append([name, workload.a.rows, det, com,
                         f"{abs(com - det) / det:.2%}", layer_timed,
                         layer_dyn, f"{layer_dyn / layer_timed:.1f}x"])
        return rows, timed, dynamic

    rows, timed, dynamic = benchmark.pedantic(run_set, rounds=1,
                                              iterations=1)
    compression = dynamic / timed
    assert compression >= 10.0, f"only {compression:.1f}x"
    errors = [abs(r[3] - r[2]) / r[2] for r in rows]
    assert float(np.mean(errors)) <= 0.02, \
        f"mean speedup-ratio error {np.mean(errors):.2%}"

    text = format_table(
        ["layer", "rows", "speedup (det)", "speedup (compressed)",
         "ratio err", "timed instrs", "dynamic instrs", "compression"],
        rows,
        title=(f"Compressed-replay compression on tall layer "
               f"replications — {compression:.1f}x fewer timed "
               f"instructions overall"))
    publish("backend_compression", text, capsys)


#: The four-tier ladder, fastest last.
LADDER = (DETAILED, COMPRESSED_REPLAY, "batch-replay", "analytic-sampled")

#: Conservative CI floors for the measured per-simulation speedups vs
#: ``detailed`` (the archived JSON carries the actual numbers, which
#: are substantially higher on an idle machine).
SPEED_FLOORS = {"batch-replay": 2.5, "analytic-sampled": 100.0}


def bench_backend_speed(benchmark, capsys):
    """Wall-clock of the backend ladder on the tall layer set.

    The analytic tier is refitted at the benchmarked scale from the
    detailed tier's own cycles (a calibration table prices one scale
    regime — see :mod:`repro.analytic.fit`), which is exactly the
    ``repro calibrate`` workflow a user targeting this scale would
    run.  The refit is timed as part of nothing: calibration is a
    one-off, the per-simulation cost is what the ladder measures.
    """
    from repro.analytic.calibration import fit_table, profile_trace
    from repro.arch.timing.analytic import AnalyticSampledBackend

    config = config_from_env()
    names = ["conv2_1_1x1b", "conv3_1_1x1b", "conv4_1_1x1b",
             "conv4_1_proj", "conv5_1_1x1b", "conv5_1_proj"]
    layers = {l.name: l for l, _ in
              unique_gemm_layers(get_model("resnet50"))}
    workloads = [(name, make_layer_workload(layers[name], 1, 4,
                                            policy=REPLAY_SCALE))
                 for name in names]

    def features_of(name, kernel):
        workload = dict(workloads)[name]
        proc = DecoupledProcessor(config)
        staged = stage_spmm(proc.mem, workload.a, workload.b)
        trace = get_trace_kernel(kernel)(staged, Schedule())
        return profile_trace(trace, config).features()

    def run_ladder():
        measured = {}
        for backend in LADDER:
            runner = backend
            if backend == "analytic-sampled":
                table = fit_table(
                    [(f"{name}/{kernel}", features_of(name, kernel),
                      measured[DETAILED]["cycles"][(name, kernel)])
                     for name, _ in workloads
                     for kernel in (BASELINE, PROPOSED)])
                runner = AnalyticSampledBackend(table=table)
            wall = 0.0
            instrs = 0
            cycles = {}
            for name, workload in workloads:
                for kernel in (BASELINE, PROPOSED):
                    start = time.perf_counter()
                    res = _run(kernel, workload, runner, config)
                    wall += time.perf_counter() - start
                    instrs += res.stats.instructions
                    cycles[(name, kernel)] = res.stats.cycles
            measured[backend] = {"wall_seconds": wall,
                                 "instructions": instrs,
                                 "instr_per_sec": instrs / wall,
                                 "cycles": cycles}
        return measured

    measured = benchmark.pedantic(run_ladder, rounds=1, iterations=1)

    det = measured[DETAILED]
    rows = []
    for backend in LADDER:
        m = measured[backend]
        speedup = det["wall_seconds"] / m["wall_seconds"]
        errors = [abs(c - det["cycles"][key]) / det["cycles"][key]
                  for key, c in m["cycles"].items()]
        m["speedup_vs_detailed"] = speedup
        m["worst_cycle_error"] = max(errors)
        rows.append([backend, f"{m['wall_seconds']:.2f}s",
                     f"{m['instr_per_sec'] / 1e3:,.0f}k",
                     f"{speedup:.1f}x", f"{max(errors):.2%}"])

    # the ladder must actually be a ladder: each tier faster than the
    # last, with conservative floors vs detailed (CI machines vary)
    assert measured["batch-replay"]["wall_seconds"] \
        < measured[COMPRESSED_REPLAY]["wall_seconds"]
    for backend, floor in SPEED_FLOORS.items():
        speedup = measured[backend]["speedup_vs_detailed"]
        assert speedup >= floor, \
            f"{backend}: only {speedup:.1f}x vs detailed (floor {floor}x)"
    # and stay within the documented cycle tolerances (the analytic
    # tier is calibrated at this scale, so it must fit well in-regime)
    assert measured["batch-replay"]["worst_cycle_error"] <= 0.02
    assert measured["analytic-sampled"]["worst_cycle_error"] <= 0.05

    payload = {backend: {k: v for k, v in m.items() if k != "cycles"}
               for backend, m in measured.items()}
    atomic_write_text(RESULTS_DIR / "backend_speed.json",
                      json.dumps(payload, indent=1, sort_keys=True) + "\n")

    text = format_table(
        ["backend", "wall", "instr/s", "vs detailed", "worst cycle err"],
        rows,
        title=(f"Backend ladder on the tall layer set "
               f"({det['instructions']:,} instructions per backend)"))
    publish("backend_speed", text, capsys)
