#!/usr/bin/env python3
"""Tour of the vindexmac ISA extension: encode, assemble, execute.

Shows the bit-level encoding of the proposed instruction, assembles the
paper's Algorithm 3 inner loop from text (with a real backward branch),
runs it on the instruction-set simulator, and verifies the arithmetic.

Run:  python examples/isa_tour.py
"""

import numpy as np

from repro import Interpreter, assemble, decode, encode
from repro.isa import I, format_instr
from repro.isa.instructions import OPC_OP_V, OPMVX, VINDEXMAC_FUNCT6


def show_encoding():
    instr = I.vindexmac_vx(8, 1, "t0")
    word = encode(instr)
    print("The proposed instruction (paper Section III-A):")
    print(f"  assembly : {format_instr(instr)}")
    print("  semantics: v8[i] += v1[0] * vrf[t0[4:0]][i]")
    print(f"  encoding : {word:#010x}  ({word:032b})")
    print(f"    opcode  [6:0]   = {word & 0x7F:#09b} (OP-V"
          f" = {OPC_OP_V:#09b})")
    print(f"    funct3  [14:12] = {(word >> 12) & 7:#05b} (OPMVX"
          f" = {OPMVX:#05b}, scalar-vector form)")
    print(f"    funct6  [31:26] = {word >> 26:#08b} (unused RVV 1.0 slot"
          f" {VINDEXMAC_FUNCT6:#08b})")
    back = decode(word)
    assert back == instr
    print(f"  decode(encode(.)) round-trips: {back.asm()}\n")


def run_inner_loop():
    print("Algorithm 3 inner loop, assembled from text and executed")
    print("on the ISS (two pre-loaded B rows, one row of A, 2:4 block):\n")
    source = """
        li a0, 2                      # non-zeros in this block
    inner:
        vmv.x.s      t0, v2           # col_idx[0] -> scalar
        vindexmac.vx v8, v1, t0       # C += values[0] * vrf[t0]
        vslide1down.vx v1, v1, zero   # next value
        vslide1down.vx v2, v2, zero   # next index
        addi a0, a0, -1
        bne  a0, zero, inner
    """
    program = assemble(source)
    print(program.text(), "\n")

    iss = Interpreter()
    proc = iss.proc
    vl = proc.config.vector.vlmax

    # pre-load two "rows of B" into v20/v21 (what Algorithm 3 lines 2-4 do)
    proc.vrf.set_f32(20, np.linspace(0, 1.5, vl).astype(np.float32))
    proc.vrf.set_f32(21, np.linspace(-1, 1, vl).astype(np.float32))
    values = np.zeros(vl, dtype=np.float32)
    values[:2] = (2.0, -3.0)          # the block's non-zero values
    proc.vrf.set_f32(1, values)
    idx = np.zeros(vl, dtype=np.int32)
    idx[:2] = (20, 21)                # their target vector registers
    proc.vrf.set_i32(2, idx)
    proc.vrf.set_f32(8, np.zeros(vl, dtype=np.float32))

    stats = iss.run(program)

    b20 = np.linspace(0, 1.5, vl).astype(np.float32)
    b21 = np.linspace(-1, 1, vl).astype(np.float32)
    expected = np.float32(2.0) * b20 + np.float32(-3.0) * b21
    assert np.allclose(proc.vrf.f32[8], expected)
    print(f"result v8[0:4] = {proc.vrf.f32[8][:4]}")
    print(f"expected       = {expected[:4]}")
    print(f"\nexecuted {stats.instructions} instructions in "
          f"{stats.cycles:.0f} simulated cycles "
          f"({stats.vector_loads} vector loads — the inner loop touches "
          "memory zero times)")


def main():
    show_encoding()
    run_inner_loop()


if __name__ == "__main__":
    main()
