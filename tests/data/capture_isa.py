"""Regenerate ``golden_isa.json`` — a per-opcode pin of the ISA front end.

Run from a revision whose encoder, disassembler and register roles are
known-good::

    PYTHONPATH=src python tests/data/capture_isa.py

For every opcode, :func:`instances` draws ``PER_OP`` seeded
instructions with random registers in the slots its assembly form
shows and immediates over the form's whole encodable range (the first
two instances take the two ends of the range).  Each entry records the
instruction's fields, its encoded word, its ``format_instr`` text, its
``instruction_roles`` tuples and the class sets it belongs to.
``tests/test_isa_golden.py`` checks every value, and that encode →
decode → ``format_instr`` → ``assemble`` gives the instance back.
"""

import json
from pathlib import Path

import numpy as np

from repro.isa.disassembler import format_instr
from repro.isa.encoding import encode
from repro.isa.instructions import (
    BRANCH_OPS,
    SCALAR_LOAD_OPS,
    SCALAR_STORE_OPS,
    VECTOR_DEST_OPS,
    VECTOR_MEM_OPS,
    VECTOR_OPS,
    VECTOR_TO_SCALAR_OPS,
    Instr,
    Op,
)
from repro.isa.trace import instruction_roles

HERE = Path(__file__).parent
OUT = HERE / "golden_isa.json"

PER_OP = 16

#: The :class:`Instr` fields, in the order an entry stores them.
FIELDS = ("rd", "rs1", "rs2", "imm", "vd", "vs1", "vs2")

#: The class sets recorded per instance, under the names the pin
#: stores them by.
CLASSES = {
    "is_vector": VECTOR_OPS,
    "is_vector_mem": VECTOR_MEM_OPS,
    "is_vector_to_scalar": VECTOR_TO_SCALAR_OPS,
    "is_scalar_mem": SCALAR_LOAD_OPS | SCALAR_STORE_OPS,
    "is_branch": BRANCH_OPS,
}


def imm_range(op):
    """``(lo, hi, step)`` of the immediates ``op`` encodes."""
    if op in (Op.SLLI, Op.SRLI, Op.SRAI):
        return 0, 63, 1
    if op in (Op.LUI, Op.AUIPC):
        return 0, (1 << 20) - 1, 1
    if op is Op.JAL:
        return -(1 << 20), (1 << 20) - 2, 2
    if op in (Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.BLTU, Op.BGEU):
        return -4096, 4094, 2
    if op is Op.VSETVLI:
        return 0, 2047, 1
    if op in (Op.VSLIDEDOWN_VI, Op.VSLIDEUP_VI):
        return 0, 31, 1
    if op in (Op.VADD_VI, Op.VRSUB_VI, Op.VMV_V_I):
        return -16, 15, 1
    return -2048, 2047, 1


def shown_fields(op):
    """The fields the assembly text of ``op`` shows: those whose value
    changes the text."""
    blank = format_instr(Instr(op))
    return tuple(name for name in FIELDS
                 if format_instr(Instr(op, **{name: 2})) != blank)


def instances(op):
    """The ``PER_OP`` seeded instructions pinned for ``op``."""
    rng = np.random.default_rng([int(op), 7])
    shown = shown_fields(op)
    lo, hi, step = imm_range(op)
    out = []
    for index in range(PER_OP):
        values = {}
        for name in shown:
            if name != "imm":
                values[name] = int(rng.integers(32))
            elif index < 2:
                values[name] = (lo, hi)[index]
            else:
                values[name] = lo + step * int(
                    rng.integers((hi - lo) // step + 1))
        out.append(Instr(op, **values))
    return out


def record(instr):
    """Everything the pin holds for one instruction."""
    classes = [name for name, ops in CLASSES.items() if instr.op in ops]
    if instr.op in VECTOR_DEST_OPS:
        classes.append("VECTOR_DEST_OPS")
    return {
        "fields": [getattr(instr, name) for name in FIELDS],
        "word": encode(instr),
        "text": format_instr(instr),
        "roles": [list(role) for role in instruction_roles(instr)],
        "classes": classes,
    }


def capture():
    return {op.name: [record(instr) for instr in instances(op)]
            for op in sorted(Op, key=int)}


if __name__ == "__main__":
    lines = [f"{json.dumps(name)}: {json.dumps(entry)}"
             for name, entry in capture().items()]
    OUT.write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {OUT}")
