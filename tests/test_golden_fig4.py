"""The Fig. 4 jobs, bit for bit.

``tests/data/golden_fig4.json`` (written by
``tests/data/capture_fig4_digests.py``, which CI reruns with every
capture script) pins the digests of the statistics and the result
matrix of all 80 Fig. 4 jobs at ``small``, under ``detailed`` and
``batch-replay``.  Statistics alone would not show a MAC that rounds
differently; the result digest does.  These tests recompute the four
jobs of the smallest layer (both kernels at 1:4 and 2:4) under both
backends, and hold the capture's way of running a job to the engine's.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.eval.engine import execute_job, job_operands

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location(
    "capture_fig4_digests", DATA / "capture_fig4_digests.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

GOLDEN = json.loads((DATA / "golden_fig4.json").read_text())


def _smallest_layer_jobs(backend):
    """The jobs of the layer whose GEMM has the fewest multiply-adds."""
    jobs = capture.jobs(backend)

    def macs(job):
        a, b = job_operands(job)
        return a.shape[0] * a.shape[1] * b.shape[1]
    smallest = min(jobs, key=macs).layer
    return [job for job in jobs if job.layer == smallest]


def test_the_golden_covers_every_fig4_job_under_both_backends():
    assert tuple(sorted(GOLDEN)) == tuple(sorted(capture.BACKENDS))
    for backend in capture.BACKENDS:
        labels = [capture.job_label(job) for job in capture.jobs(backend)]
        assert len(labels) == len(set(labels)) == 80
        assert set(GOLDEN[backend]) == set(labels)


@pytest.mark.parametrize("backend", capture.BACKENDS)
def test_the_smallest_layers_jobs_match_the_golden(backend):
    jobs = _smallest_layer_jobs(backend)
    assert len(jobs) == 4
    for job in jobs:
        assert capture.job_digests(job) == \
            GOLDEN[backend][capture.job_label(job)], capture.job_label(job)


def test_the_capture_runs_a_job_as_the_engine_does():
    """``execute_job`` (which also verifies C) reports the statistics
    the golden pins."""
    for job in _smallest_layer_jobs("batch-replay")[:2]:
        run = execute_job(job)
        assert run.verified
        assert capture.stats_digest(run.stats) == \
            GOLDEN["batch-replay"][capture.job_label(job)]["stats"]
