"""Job keys and stored payloads are pinned byte for byte.

``tests/data/golden_job_keys.json`` (written by
``tests/data/capture_job_keys.py``) holds, for a dozen jobs covering
both workload sources, every job kernel and backend, custom policies,
multicore schedules and non-default configs, the job's ``SimJob.key``
and the sha256 of the payload the result store writes for a fixed run.
An existing cache stays warm only while both are unchanged.
"""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location(
    "capture_job_keys", DATA / "capture_job_keys.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

GOLDEN = json.loads((DATA / "golden_job_keys.json").read_text())


@pytest.fixture(scope="module")
def computed():
    with pytest.MonkeyPatch.context() as patch:
        for name in ("REPRO_BACKEND", "REPRO_CALIBRATION"):
            patch.delenv(name, raising=False)
        return capture.entries()


def test_golden_covers_the_pinned_jobs():
    assert list(GOLDEN) == list(capture.golden_jobs())


@pytest.mark.parametrize("label", GOLDEN)
def test_job_key_and_payload_match_golden(label, computed):
    assert computed[label] == GOLDEN[label]
