"""Golden simulated statistics: the timing backends' numbers are pinned.

``tests/data/golden_stats.json`` (written by
``tests/data/capture_golden_stats.py``) holds, for every golden-stream
case plus two cases whose steady row-group loop runs in several tiles,
every counter, ``cycles`` and the timed-instruction count under the
three timing backends.  Stream fingerprints alone cannot catch a change
in how a backend walks a trace's structure — e.g. replay state keyed by
loop identity — so these tests compare the numbers exactly.
"""

import importlib.util
import json
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location(
    "capture_golden_stats", DATA / "capture_golden_stats.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

GOLDEN = json.loads((DATA / "golden_stats.json").read_text())


def _case_id(case) -> str:
    return (f"{case['kernel']}-{case.get('dataflow')}-r{case['rows']}"
            f"-u{case['unroll']}-L{case['tile_rows']}-nm{case['nm']}"
            f"-z{case['init_c_zero']}-s{case['seed']}")


def test_golden_stats_cover_every_stream_case_and_backend():
    streams = json.loads((DATA / "golden_streams.json").read_text())
    assert len(GOLDEN) == len(streams) + len(capture.LOOP_CASES)
    for case in GOLDEN:
        assert tuple(case["stats"]) == capture.BACKENDS
    # the loop cases really bracket a loop on the replay backend
    for case in GOLDEN[-len(capture.LOOP_CASES):]:
        stats = case["stats"]["batch-replay"]
        assert stats["timed_instructions"] < stats["instructions"]


@pytest.mark.parametrize("backend", capture.BACKENDS)
@pytest.mark.parametrize("case", GOLDEN, ids=_case_id)
def test_simulated_stats_match_golden(case, backend):
    assert capture.case_stats(case, backend) == case["stats"][backend]
