"""Per-opcode ISA pin: encoding, text, register roles and class sets.

``tests/data/golden_isa.json`` (written by ``tests/data/capture_isa.py``
from a known-good revision) holds 16 seeded instances of every opcode,
with random registers in the slots its assembly form shows and
immediates over the form's whole range.  Every recorded value must
match, and every instance must survive encode → decode →
``format_instr`` → ``assemble``.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.isa import assemble, decode, format_instr
from repro.isa.instructions import Instr, Op

DATA = Path(__file__).parent / "data"
_spec = importlib.util.spec_from_file_location(
    "capture_isa", DATA / "capture_isa.py")
capture = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(capture)

GOLDEN = json.loads((DATA / "golden_isa.json").read_text())


def _instances(name):
    for entry in GOLDEN[name]:
        yield Instr(Op[name], **dict(zip(capture.FIELDS, entry["fields"]))), \
            entry


def test_pin_covers_every_opcode():
    assert set(GOLDEN) == {op.name for op in Op}
    assert all(len(entries) == capture.PER_OP for entries in GOLDEN.values())


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_instances_match_golden(name):
    for instr, entry in _instances(name):
        assert capture.record(instr) == entry, entry["text"]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_instances_round_trip(name):
    for instr, entry in _instances(name):
        decoded = decode(entry["word"])
        assert decoded == instr
        assert list(assemble(format_instr(decoded))) == [instr]
