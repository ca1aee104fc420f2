"""Per-opcode timing pin: every opcode's timing handler is pinned.

``tests/data/golden_opcode_timing.json`` (written by
``tests/data/capture_opcode_timing.py``) holds, for every opcode the
processor handles, the cycles, counters and register readiness files of
a seeded 64-instruction stream that mixes the opcode with producers of
its sources and consumers of its result, at ``vl = VLMAX`` and
``VLMAX / 2``.  ``golden_stats.json`` covers only the kernels' opcodes;
this pin covers the rest of the timing table.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.arch import DecoupledProcessor
from repro.isa.instructions import Op

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location(
    "capture_opcode_timing", DATA / "capture_opcode_timing.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

GOLDEN = json.loads((DATA / "golden_opcode_timing.json").read_text())


def test_pin_covers_every_handled_opcode_at_both_vls():
    handled = {op.name for op in DecoupledProcessor()._handlers}
    assert set(GOLDEN) == handled
    for entry in GOLDEN.values():
        assert set(entry) == {str(vl) for vl in capture.vls()}


def test_programs_mix_the_opcode_with_its_neighbours():
    for name in GOLDEN:
        op = Op[name]
        instrs = capture.program(op, capture.vls()[0])
        assert len(instrs) == capture.LENGTH
        under_test = sum(instr.op is op for instr in instrs)
        assert 0 < under_test < capture.LENGTH


@pytest.mark.parametrize("vl", capture.vls())
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_opcode_timing_matches_golden(name, vl):
    assert capture.opcode_timing(Op[name], vl) == GOLDEN[name][str(vl)]
