"""RISC-V vector ISA subset with the proposed ``vindexmac.vx`` extension.

This package is the "toolchain" layer of the reproduction: instruction
records (:class:`~repro.isa.instructions.Instr`), the opcode table
(:data:`~repro.isa.instructions.OPCODES`) and everything derived from
it: constructor helpers (:class:`~repro.isa.instructions.I`), bit-level
encode/decode matching RVV 1.0, a two-pass assembler and a
disassembler.
"""

from repro.isa.assembler import assemble
from repro.isa.disassembler import disassemble, format_instr, mnemonic
from repro.isa.encoding import decode, encode, vtype_e32m1
from repro.isa.instructions import (
    BRANCH_OPS,
    OPCODES,
    SCALAR_LOAD_OPS,
    SCALAR_STORE_OPS,
    VECTOR_DEST_OPS,
    VECTOR_MEM_OPS,
    VECTOR_OPS,
    VECTOR_TO_SCALAR_OPS,
    VINDEXMAC_FUNCT6,
    I,
    Instr,
    Op,
    OpSpec,
)
from repro.isa.program import Program
from repro.isa.trace import Block, Loop, TileLoop, Trace, TraceBuilder
from repro.isa.registers import (
    f_name,
    f_reg,
    parse_register,
    v_name,
    v_reg,
    x_name,
    x_reg,
)

__all__ = [
    "BRANCH_OPS",
    "Block",
    "I",
    "Instr",
    "Loop",
    "OPCODES",
    "Op",
    "OpSpec",
    "Program",
    "TileLoop",
    "Trace",
    "TraceBuilder",
    "SCALAR_LOAD_OPS",
    "SCALAR_STORE_OPS",
    "VECTOR_DEST_OPS",
    "VECTOR_MEM_OPS",
    "VECTOR_OPS",
    "VECTOR_TO_SCALAR_OPS",
    "VINDEXMAC_FUNCT6",
    "assemble",
    "decode",
    "disassemble",
    "encode",
    "format_instr",
    "mnemonic",
    "f_name",
    "f_reg",
    "parse_register",
    "v_name",
    "v_reg",
    "vtype_e32m1",
    "x_name",
    "x_reg",
]
