"""Shared emission helpers and register conventions for the kernels.

The kernels are *trace generators*: Python loops drive the tiling and
emit the exact dynamic RISC-V instruction stream, including scalar
pointer updates and loop-control instructions, so the simulator charges
the same front-end work a compiled binary would.  The loops themselves
live in the schedule-driven compiler (:mod:`repro.kernels.compiler`),
whose register-allocation pass binds every compiled kernel to the
conventions below; a :class:`~repro.kernels.compiler.Schedule` says
how each kernel is laid out.

Register conventions (shared by all SpMM kernels):

====================  =========================================
``t0..t2, t3``        per-unroll-lane index/address scratch
``a0..a3``            values pointers (one per unrolled row)
``a4..a7``            col_idx pointers
``s2..s5``            C pointers
``s6``                B pointer (tile pre-load / dense walk)
``s7``                row-group loop counter
``s8``                col_idx transform constant
``s9``                B row stride (bytes)
``s10``               A pointer bump per row group (bytes)
``s11``               C pointer bump per row group (bytes)
``fa0..fa3``          per-lane scalar value (baseline kernel)
====================  =========================================
"""

from __future__ import annotations

from repro.errors import KernelError
from repro.isa.instructions import I, Instr
from repro.isa.trace import li

# scalar register assignments (integer file indices)
T = (5, 6, 7, 28)          # t0, t1, t2, t3 — per-lane scratch
VAL_PTR = (10, 11, 12, 13)  # a0..a3
IDX_PTR = (14, 15, 16, 17)  # a4..a7
C_PTR = (18, 19, 20, 21)    # s2..s5
B_PTR = 22                  # s6
ROW_CTR = 23                # s7
XFORM = 24                  # s8
B_STRIDE = 25               # s9
A_BUMP = 26                 # s10
C_BUMP = 27                 # s11
AVL = 29                    # t4 — vsetvli AVL scratch
FA = (10, 11, 12, 13)       # fa0..fa3

# vector register assignments
V_VALUES = (0, 1, 2, 3)     # per-lane A values
V_COLIDX = (4, 5, 6, 7)     # per-lane A column indices
V_ACC = (8, 9, 10, 11)      # per-lane C accumulators
V_BROW = (12, 13, 14, 15)   # baseline: loaded B rows / scratch
V_SCRATCH_VAL = (16, 17, 18, 19)   # A-stationary scratch copies
V_SCRATCH_IDX = (20, 21, 22, 23)

MAX_UNROLL = 4


def advance(reg: int, delta: int, bump_reg: int | None = None):
    """Pointer bump: a single addi when it fits, else add of a bump reg."""
    if -2048 <= delta < 2048:
        yield I.addi(reg, reg, delta)
    elif bump_reg is not None:
        yield I.add(reg, reg, bump_reg)
    else:
        raise KernelError(
            f"pointer bump {delta} needs a pre-loaded bump register")


def set_vl(vl: int):
    """Emit the vsetvli prologue selecting ``vl`` 32-bit elements."""
    from repro.isa.encoding import vtype_e32m1

    yield from li(AVL, vl)
    yield I.vsetvli(0, AVL, vtype_e32m1())


def row_groups(rows: int, unroll: int):
    """Split ``rows`` into (start_row, group_size) unroll groups.

    The main loop runs at the requested unroll; remainder rows run at
    the largest unroll that still fits (4 -> 2 -> 1), as a compiled
    micro-kernel family would.
    """
    start = 0
    while rows - start >= unroll:
        yield start, unroll
        start += unroll
    remaining = rows - start
    for size in (2, 1):
        while remaining >= size and size < unroll:
            yield start, size
            start += size
            remaining -= size
    if remaining:  # unroll == 1 handled above; defensive
        yield start, remaining


def loop_control(counter_reg: int):
    """Counter decrement + backward branch of one loop iteration."""
    yield I.addi(counter_reg, counter_reg, -1)
    yield I.bne(counter_reg, 0, -4)  # offset is nominal in trace mode


def count_instructions(stream) -> int:
    """Drain a kernel generator, counting instructions (for tests)."""
    return sum(1 for _ in stream)


def materialize(stream) -> list[Instr]:
    """Collect a kernel generator into a list (for small tests only)."""
    return list(stream)
