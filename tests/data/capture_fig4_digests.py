"""Regenerate ``golden_fig4.json`` — the Fig. 4 jobs, bit for bit.

Run from a revision whose simulator is known-good::

    PYTHONPATH=src python tests/data/capture_fig4_digests.py

The paper's Fig. 4 job set at the ``small`` scale (ResNet-50's unique
GEMM layers x both kernels x 1:4 and 2:4, 80 jobs) is what every
timing change must leave unchanged.  For each job under the two
executing backends, ``detailed`` and ``batch-replay``, this file pins
the sha256 of the job's statistics (every
:class:`~repro.arch.stats.ExecutionStats` field as sorted JSON, without
the host's ``wall_seconds``) and of its result matrix's bytes, so a
change in any counter, any cycle or the rounding of any element of C
shows.  The same 80 jobs are pinned at ``medium`` under
``batch-replay``, where its bracket skips the most (``detailed`` would
take minutes there).  ``tests/test_golden_fig4.py`` recomputes the
jobs of the smallest layer through :func:`job_digests` and compares
them.
"""

import hashlib
import json
from dataclasses import asdict
from pathlib import Path

from repro.arch import DecoupledProcessor
from repro.arch.timing import get_backend
from repro.eval.engine import job_operands
from repro.kernels.compiler import compile_trace
from repro.kernels.layout import read_result, stage_spmm
from repro.serve.client import fig4_jobs

HERE = Path(__file__).parent
OUT = HERE / "golden_fig4.json"

BACKENDS = ("batch-replay", "detailed")
SCALE = "small"
#: Each entry of the golden by its key, with the scale and backend of
#: its jobs; a ``small`` entry's key is its backend.
ENTRIES = {**{backend: (SCALE, backend) for backend in BACKENDS},
           "medium/batch-replay": ("medium", "batch-replay")}


def jobs(backend: str, scale: str = SCALE) -> list:
    return fig4_jobs("resnet50", scale=scale, backend=backend)


def job_label(job) -> str:
    return f"{job.layer}/{job.kernel}/{job.nm[0]}:{job.nm[1]}"


def stats_digest(stats) -> str:
    """sha256 of every field of ``stats`` as sorted JSON, without the
    host's ``wall_seconds``."""
    fields = asdict(stats)
    fields["extra"].pop("wall_seconds", None)
    return hashlib.sha256(json.dumps(fields, sort_keys=True).encode()) \
        .hexdigest()


def job_digests(job) -> dict:
    """The digests of one job's statistics and result matrix, run as
    the engine runs an N:M job: operands, staging, compiled trace and
    the job's timing backend."""
    a, b = job_operands(job)
    proc = DecoupledProcessor(job.config)
    staged = stage_spmm(proc.mem, a, b)
    trace = compile_trace(job.kernel, staged, job.schedule)
    stats = get_backend(job.backend).run(proc, trace).stats
    result = read_result(proc.mem, staged).tobytes()
    return {"stats": stats_digest(stats),
            "result": hashlib.sha256(result).hexdigest()}


def capture() -> dict:
    return {key: {job_label(job): job_digests(job)
                  for job in jobs(backend, scale)}
            for key, (scale, backend) in ENTRIES.items()}


if __name__ == "__main__":
    OUT.write_text(json.dumps(capture(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT}")
