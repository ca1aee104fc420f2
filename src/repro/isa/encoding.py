"""Bit-level encode/decode for the supported RV64IM + RVV subset.

All vector encodings follow the ratified RVV 1.0 specification.  The new
``vindexmac.vx`` instruction is assigned ``funct6=0b101110`` under the
``OPMVX`` dispatch (``funct3=0b110``) of the OP-V major opcode — a slot
that is reserved/unused in RVV 1.0 (the neighbouring slots hold
``vmacc=101101`` and ``vnmsac=101111``), exactly matching the paper's
statement that the instruction "follows the standard encoding dictated by
the RISC-V ISA for scalar-vector instructions" (Section III-B).

Both directions read :data:`~repro.isa.instructions.OPCODES`.  A row's
``match``/``mask`` pair fixes every bit its operands do not use, so a
word decodes only if every fixed bit of one row matches; words of the
wider ISA that the subset does not implement (masked forms, strided or
segment loads, other unary functions) are rejected.
"""

from __future__ import annotations

from repro.errors import DecodingError, EncodingError
from repro.isa.instructions import OPCODES, Instr

#: ``mask -> {match: row}``: a word decodes to the row whose ``match``
#: equals ``word & mask`` (no word matches two rows).
_DECODE: dict[int, dict] = {}
for _spec in OPCODES.values():
    _DECODE.setdefault(_spec.mask, {})[_spec.match] = _spec
del _spec


def encode(instr: Instr) -> int:
    """Encode ``instr`` into a 32-bit instruction word."""
    spec = OPCODES.get(instr.op)
    if spec is None:
        raise EncodingError(f"no encoding for op {instr.op!r}")
    word = spec.match
    for field, shift in spec.fields:
        word |= getattr(instr, field) << shift
    if spec.imm is not None:
        problem = spec.imm.problem(instr.imm)
        if problem:
            raise EncodingError(f"{spec.name} immediate {problem}")
        word |= spec.imm.place(instr.imm)
    return word


def decode(word: int) -> Instr:
    """Decode a 32-bit instruction word into an :class:`Instr`."""
    word &= 0xFFFFFFFF
    for mask, rows in _DECODE.items():
        spec = rows.get(word & mask)
        if spec is not None:
            break
    else:
        raise DecodingError(
            f"{word:#010x} is no instruction of the supported subset")
    fields = {field: word >> shift & 0x1F for field, shift in spec.fields}
    if spec.imm is not None:
        fields["imm"] = spec.imm.extract(word)
    return Instr(spec.op, **fields)


def vtype_e32m1(tail_agnostic: bool = True, mask_agnostic: bool = True) -> int:
    """The ``vtype`` immediate for SEW=32, LMUL=1 (the paper's element size).

    Bits: vma[7] vta[6] vsew[5:3] vlmul[2:0].
    """
    value = 0b010 << 3  # vsew = 32-bit
    if tail_agnostic:
        value |= 1 << 6
    if mask_agnostic:
        value |= 1 << 7
    return value
