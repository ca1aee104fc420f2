"""A small two-pass assembler for the supported RV64IM + RVV subset.

Accepted syntax is the canonical form produced by
:mod:`repro.isa.disassembler`, plus:

* labels (``loop:``) and label operands in branches/jumps,
* ``#`` and ``//`` comments,
* the pseudo-instructions ``li``, ``mv`` and ``nop``.

Example::

    asm = '''
    loop:
        vmv.x.s   t0, v2            # col_idx[0] -> t0
        vindexmac.vx v8, v1, t0     # C += values[0] * vrf[t0]
        vslide1down.vx v1, v1, zero
        vslide1down.vx v2, v2, zero
        addi a0, a0, -1
        bne  a0, zero, loop
    '''
    program = assemble(asm)
"""

from __future__ import annotations

import re

from repro.errors import AssemblerError
from repro.isa.instructions import OPCODES, I, constructor_name
from repro.isa.program import Program

_LABEL_RE = re.compile(r"^([A-Za-z_.][\w.$]*):$")

#: The address operands: ``imm(xs1)`` gives ``(offset, base)``, ``(xs1)``
#: gives ``(base,)``.
_ADDRESS = {"imm(xs1)": re.compile(r"^(-?\w+)\((\w+)\)$"),
            "(xs1)": re.compile(r"^\((\w+)\)$")}

#: ``mnemonic -> (operands, constructor, immediate form)``: every row of
#: OPCODES, plus the pseudo-instructions, whose constant is not range
#: checked (``li`` materialises any value the simulator computes with).
_FORMS = {spec.name: (spec.operands, getattr(I, constructor_name(spec.op)),
                      spec.imm)
          for spec in OPCODES.values()}
_FORMS.update({"li": (("xd", "imm"), I.li, None),
               "mv": (("xd", "xs1"), I.mv, None),
               "nop": ((), I.nop, None)})


def _strip_comment(line: str) -> str:
    for marker in ("#", "//", ";"):
        pos = line.find(marker)
        if pos >= 0:
            line = line[:pos]
    return line.strip()


def _int_or_none(token: str):
    try:
        return int(token, 0)
    except ValueError:
        return None


def _parse_operands(rest: str) -> list[str]:
    rest = rest.strip()
    if not rest:
        return []
    return [part.strip() for part in rest.split(",")]


def _parse_line(mnem: str, ops: list[str], lineno: int):
    """Build the Instr of one statement, and the label its offset names
    (``None`` if numeric).  A label's offset is 0 here and patched in
    pass two."""
    if mnem not in _FORMS:
        raise AssemblerError(f"line {lineno}: unknown mnemonic {mnem!r}")
    operands, make, form = _FORMS[mnem]
    if len(ops) != len(operands):
        raise AssemblerError(
            f"line {lineno}: {mnem} takes {len(operands)} operand(s) "
            f"({', '.join(operands) or 'none'}), got {len(ops)}")
    args, label = [], None
    for token, text in zip(operands, ops):
        if token in _ADDRESS:
            match = _ADDRESS[token].match(text.replace(" ", ""))
            if not match:
                raise AssemblerError(
                    f"line {lineno}: expected {token}, got {text!r}")
            *offset, base = match.groups()
            args.append(base)
            if not offset:
                continue
            text = offset[0]
        elif token != "imm":
            args.append(text)
            continue
        value = _int_or_none(text)
        if value is None:
            # pc-relative offsets (step 2) may name a label
            if form is None or form.step == 1:
                raise AssemblerError(f"line {lineno}: bad immediate {text!r}")
            label, value = text, 0
        elif form is not None:
            problem = form.problem(value)
            if problem:
                raise AssemblerError(
                    f"line {lineno}: {mnem} immediate {problem}")
        args.append(value)
    return make(*args), label


def assemble(text: str, base: int = 0) -> Program:
    """Assemble ``text`` into a :class:`Program`.

    Branches and ``jal`` may name labels; their immediates become byte
    offsets relative to the instruction, as in the hardware encoding.
    """
    program = Program(base=base)
    pending: list[tuple[int, str, int]] = []  # (instr index, label, lineno)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        label_match = _LABEL_RE.match(line)
        if label_match:
            name = label_match.group(1)
            if name in program.labels:
                raise AssemblerError(f"line {lineno}: duplicate label {name!r}")
            program.labels[name] = len(program.instrs)
            continue
        parts = line.split(None, 1)
        mnem = parts[0].lower()
        ops = _parse_operands(parts[1]) if len(parts) > 1 else []
        instr, label = _parse_line(mnem, ops, lineno)
        if label is not None:
            pending.append((len(program.instrs), label, lineno))
        program.instrs.append(instr)

    for index, label, lineno in pending:
        if label not in program.labels:
            raise AssemblerError(f"line {lineno}: undefined label {label!r}")
        offset = 4 * (program.labels[label] - index)
        program.instrs[index].imm = offset
    return program
