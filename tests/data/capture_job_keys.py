"""Regenerate ``golden_job_keys.json`` — the job-identity pin.

Run from a revision whose job keys and stored payloads are known-good::

    PYTHONPATH=src python tests/data/capture_job_keys.py

(``REPRO_*`` variables are ignored: every job names its backend, and
the analytic jobs take the packaged calibration table's digest.)

For each job of :func:`golden_jobs` it records ``SimJob.key`` and the
sha256 of the payload the result store writes for the job's fixed run
(:func:`fixed_run`).  ``tests/test_job_keys.py`` recomputes both and
compares them exactly, so a change to how jobs are hashed or results
encoded cannot move an existing cache's keys or bytes unnoticed.
Regenerate only together with a ``CACHE_SCHEMA`` bump or a new
packaged calibration table (an analytic job's key holds its digest).
"""

import hashlib
import json
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from repro.arch.config import ProcessorConfig
from repro.arch.stats import ExecutionStats
from repro.eval.engine import SimJob, _blob
from repro.eval.runner import KernelRun
from repro.kernels.compiler import Schedule
from repro.kernels.dataflow import Dataflow
from repro.nn.workload import SMALL, TINY, ScalePolicy

HERE = Path(__file__).parent
OUT = HERE / "golden_job_keys.json"

#: An unregistered policy, carried by value.
CUSTOM = ScalePolicy("custom", 8, (8, 32), 8, (32, 128), 32, (16, 64))


def clear_repro_env() -> None:
    """Drop every ``REPRO_*`` variable, so the jobs take the packaged
    calibration table and nothing ambient."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]


def golden_jobs() -> dict:
    """The pinned jobs by label: both workload sources, every job
    kernel and backend, a registered and a custom policy, a 4-core
    schedule and non-default configs, ``7`` and ``7.0`` among them."""
    base = ProcessorConfig.scaled_default()
    l2 = replace(base, l2=replace(base.l2, size_bytes=64 * 1024,
                                  line_bytes=128))
    dram_int = replace(base, dram=replace(base.dram, cycles_per_line=7))
    dram_float = replace(base, dram=replace(base.dram, cycles_per_line=7.0))
    layer = SimJob.for_layer
    shape = SimJob.for_shape
    return {
        "layer/tiny/rowwise/detailed": layer(
            "resnet50", "conv1", (1, 4), TINY, "rowwise-spmm",
            backend="detailed"),
        "layer/small/indexmac/batch-replay": layer(
            "resnet50", "conv2_1_3x3", (2, 4), SMALL, "indexmac-spmm",
            backend="batch-replay"),
        "layer/custom/csr/batch-replay": layer(
            "resnet50", "conv2_1_1x1a", (1, 4), CUSTOM, "csr-spmm",
            backend="batch-replay"),
        "layer/custom/indexmac/analytic/l2": layer(
            "resnet50", "conv2_1_proj", (1, 4), CUSTOM, "indexmac-spmm",
            backend="analytic-sampled", config=l2),
        "shape/indexmac/analytic": shape(
            96, 384, 96, (1, 4), "indexmac-spmm", seed=3,
            backend="analytic-sampled"),
        "shape/rowwise/analytic/2:8/t8u1": shape(
            32, 128, 64, (2, 8), "rowwise-spmm", seed=0,
            backend="analytic-sampled",
            schedule=Schedule(tile_rows=8, unroll=1)),
        "shape/csr/detailed/unverified": shape(
            8, 32, 16, (2, 4), "csr-spmm", seed=5, backend="detailed",
            verify=False),
        "shape/indexmac/batch-replay/cores4": shape(
            64, 64, 32, (1, 4), "indexmac-spmm", seed=1,
            backend="batch-replay", schedule=Schedule(cores=4)),
        "shape/rowwise/batch-replay/schedule": shape(
            16, 64, 32, (2, 4), "rowwise-spmm", seed=2,
            backend="batch-replay",
            schedule=Schedule(tile_rows=8, unroll=2,
                              dataflow=Dataflow.A_STATIONARY, vlmax=8,
                              b_residency="memory", init_c_zero=False)),
        "shape/indexmac/detailed/l2": shape(
            8, 32, 16, (1, 4), "indexmac-spmm", seed=4, backend="detailed",
            config=l2),
        "shape/indexmac/detailed/dram-7": shape(
            8, 32, 16, (1, 4), "indexmac-spmm", seed=0, backend="detailed",
            config=dram_int),
        "shape/indexmac/detailed/dram-7.0": shape(
            8, 32, 16, (1, 4), "indexmac-spmm", seed=0, backend="detailed",
            config=dram_float),
    }


def fixed_run(job: SimJob, index: int) -> KernelRun:
    """A fixed result for ``job``: counters of every Python and NumPy
    number type the backends produce, and a nested ``extra``."""
    stats = ExecutionStats(
        cycles=np.float64(1234.5 + 0.1 * index),
        instructions=1000 + index,
        scalar_instructions=400,
        vector_instructions=600 + index,
        vector_loads=np.float64(2.0e16),
        l2_hits=17,
        dram_row_misses=index,
        extra={
            "timed_instructions": 900,
            "wall_seconds": 0.1 + 0.2,
            "cores": job.schedule.cores,
            "backend": job.backend,
            "scale": np.float64(-0.0),
            "per_core": {10: 1.5e-7, 2: [np.float64(3.25), 4, None]},
            "ok": index % 2 == 0,
        })
    return KernelRun(kernel=job.kernel, stats=stats,
                     verified=index % 3 != 0, backend=job.backend)


def entries() -> dict:
    """``{label: {"key": ..., "blob_sha256": ...}}`` for every job."""
    return {label: {"key": job.key,
                    "blob_sha256": hashlib.sha256(
                        _blob(job, fixed_run(job, index))).hexdigest()}
            for index, (label, job) in enumerate(golden_jobs().items())}


def main() -> None:
    clear_repro_env()
    golden = entries()
    OUT.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"{len(golden)} jobs -> {OUT}")


if __name__ == "__main__":
    main()
