"""The Fig. 4 jobs, bit for bit.

``tests/data/golden_fig4.json`` (written by
``tests/data/capture_fig4_digests.py``, which CI reruns with every
capture script) pins the digests of the statistics and the result
matrix of all 80 Fig. 4 jobs at ``small``, under ``detailed`` and
``batch-replay``, and at ``medium`` under ``batch-replay``.
Statistics alone would not show a MAC that rounds differently; the
result digest does.  These tests recompute the four jobs of the
smallest layer (both kernels at 1:4 and 2:4) of each entry, and hold
the capture's way of running a job to the engine's.
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


def _smallest_layer_jobs(backend, scale=capture.SCALE):
    """The jobs of the layer whose GEMM has the fewest multiply-adds."""
    jobs = capture.jobs(backend, scale)

    def macs(job):
        a, b = job_operands(job)
        return a.shape[0] * a.shape[1] * b.shape[1]
    smallest = min(jobs, key=macs).layer
    return [job for job in jobs if job.layer == smallest]


def test_the_golden_covers_every_fig4_job_under_both_backends():
    assert sorted(GOLDEN) == sorted(capture.ENTRIES)
    assert {capture.ENTRIES[backend] for backend in capture.BACKENDS} == \
        {(capture.SCALE, backend) for backend in capture.BACKENDS}
    for key, (scale, backend) in capture.ENTRIES.items():
        labels = [capture.job_label(job)
                  for job in capture.jobs(backend, scale)]
        assert len(labels) == len(set(labels)) == 80
        assert set(GOLDEN[key]) == set(labels)


@pytest.mark.parametrize("key", sorted(capture.ENTRIES))
def test_the_smallest_layers_jobs_match_the_golden(key):
    scale, backend = capture.ENTRIES[key]
    jobs = _smallest_layer_jobs(backend, scale)
    assert len(jobs) == 4
    for job in jobs:
        assert capture.job_digests(job) == \
            GOLDEN[key][capture.job_label(job)], capture.job_label(job)


def test_the_capture_runs_a_job_as_the_engine_does():
    """``execute_job`` (which also verifies C) reports the statistics
    the golden pins."""
    for job in _smallest_layer_jobs("batch-replay")[:2]:
        run = execute_job(job)
        assert run.verified
        assert capture.stats_digest(run.stats) == \
            GOLDEN["batch-replay"][capture.job_label(job)]["stats"]
