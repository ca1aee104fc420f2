"""Render :class:`~repro.isa.instructions.Instr` records as assembly text.

Each instruction is written in its assembly form from
:data:`~repro.isa.instructions.OPCODES`.  The output round-trips through
:mod:`repro.isa.assembler` (branch/jump offsets are rendered
numerically).
"""

from __future__ import annotations

from repro.isa import registers as regs
from repro.isa.instructions import OPCODES, Instr, Op, operand_register

_NAMES = {"x": regs.x_name, "f": regs.f_name, "v": regs.v_name}


def mnemonic(op: Op) -> str:
    """The assembly mnemonic for ``op``."""
    return OPCODES[op].name


def _operand(instr: Instr, token: str) -> str:
    reg = operand_register(token)
    if reg is None:
        return str(instr.imm)
    file, field = reg
    name = _NAMES[file](getattr(instr, field))
    if token.startswith("imm("):
        return f"{instr.imm}({name})"
    if token.startswith("("):
        return f"({name})"
    return name


def format_instr(instr: Instr) -> str:
    """Format one instruction as assembly text."""
    spec = OPCODES[instr.op]
    return f"{spec.name} " + ", ".join(_operand(instr, token)
                                       for token in spec.operands)


def disassemble(instrs) -> str:
    """Format a sequence of instructions, one per line."""
    return "\n".join(format_instr(i) for i in instrs)
