"""Calibration driver for the ``analytic-sampled`` timing backend.

``run_calibration`` assembles a fit set of simulation jobs — every
unique ResNet-50 layer GEMM under both kernels and the paper's sparsity
patterns, plus a spread of synthetic GEMMs covering the crosscheck
shapes — runs them all under ``detailed`` through the experiment engine
(parallel, disk-cached, so a refit after a warm figure run simulates
nothing), extracts each job's static feature vector, and least-squares
fits a :class:`~repro.analytic.calibration.CalibrationTable`.

``repro calibrate`` is the CLI front end; the packaged default table
``calibration_default.json`` is the result of running it at the
default (SMALL) experiment scale.

A table prices exactly one scale regime.  Figure-scale workloads are
mostly cache-resident, so a vector line transfer costs an L2 hit;
tall batched workloads stream from DRAM, where the same line costs
several times more.  One linear weight per feature cannot express
both (cross-regime error reaches ~70%), so refit at the target scale
(``repro calibrate --policy ...``, pointing ``$REPRO_CALIBRATION`` at
the result) instead of hoping one table extrapolates.
"""

from __future__ import annotations

import numpy as np

from repro.analytic.calibration import (
    DEFAULT_TABLE_PATH,
    CalibrationTable,
    fit_table,
    profile_trace,
    reset_cache,
)
from repro.arch.config import ProcessorConfig
from repro.arch.processor import DecoupledProcessor
from repro.eval.comparison import BASELINE, PROPOSED
from repro.eval.engine import SimJob, get_engine, job_operands
from repro.kernels.compiler import compile_trace
from repro.kernels.layout import stage_spmm
from repro.nn.models import get_model, unique_gemm_layers
from repro.nn.workload import SMALL, ScalePolicy

#: Sparsity patterns the layer portion of the fit set covers (the
#: paper's two main patterns).
LAYER_PATTERNS = ((1, 4), (2, 4))

#: Synthetic GEMMs that widen the fit set beyond CNN layer shapes; the
#: first three are exactly the ``repro crosscheck`` workloads.
SYNTH_SHAPES = (
    (64, 64, 32, (1, 4)),
    (64, 128, 32, (2, 4)),
    (32, 64, 64, (2, 8)),
    (128, 128, 64, (2, 4)),
    (96, 64, 48, (1, 4)),
)



def calibration_jobs(model: str = "resnet50",
                     policy: ScalePolicy = SMALL,
                     config: ProcessorConfig | None = None
                     ) -> list[tuple[str, SimJob]]:
    """The labelled ``detailed`` fit set (layers + synthetic GEMMs), all
    under the paper schedule."""
    config = config or ProcessorConfig.scaled_default()
    jobs: list[tuple[str, SimJob]] = []
    for layer, _ in unique_gemm_layers(get_model(model)):
        for nm in LAYER_PATTERNS:
            for kernel in (BASELINE, PROPOSED):
                jobs.append((
                    f"{model}/{layer.name}/{kernel}/{nm[0]}:{nm[1]}",
                    SimJob.for_layer(model, layer.name, nm, policy, kernel,
                                     config=config, backend="detailed")))
    for rows, k, n, nm in SYNTH_SHAPES:
        for kernel in (BASELINE, PROPOSED):
            jobs.append((
                f"synth/{rows}x{k}x{n}/{kernel}/{nm[0]}:{nm[1]}",
                SimJob.for_shape(rows, k, n, nm, kernel, config=config,
                                 backend="detailed")))
    return jobs


def job_features(job: SimJob) -> np.ndarray:
    """The static feature vector of ``job``'s trace (nothing executes:
    operands are staged into a fresh memory image only so the trace
    builder sees real addresses)."""
    a, b = job_operands(job)
    proc = DecoupledProcessor(job.config)
    staged = stage_spmm(proc.mem, a, b)
    trace = compile_trace(job.kernel, staged, job.schedule)
    return profile_trace(trace, job.config).features()


def run_calibration(model: str = "resnet50",
                    policy: ScalePolicy = SMALL,
                    config: ProcessorConfig | None = None
                    ) -> tuple[CalibrationTable, list[tuple[str, float]]]:
    """Fit a calibration table from detailed runs of the fit set.

    Returns the fitted table and the per-sample relative cycle errors
    (label, signed error) on the fit set itself.
    """
    labelled = calibration_jobs(model, policy, config)
    runs = get_engine().run([job for _, job in labelled])
    samples = []
    for (label, job), run in zip(labelled, runs):
        samples.append((label, job_features(job), run.stats.cycles))
    table = fit_table(samples)
    errors = []
    for label, features, cycles in samples:
        predicted = table.predict(features)
        errors.append((label, (predicted - cycles) / cycles if cycles
                       else 0.0))
    return table, errors


def save_default(table: CalibrationTable) -> None:
    """Install ``table`` as the packaged default and drop memos."""
    table.save(DEFAULT_TABLE_PATH)
    reset_cache()
