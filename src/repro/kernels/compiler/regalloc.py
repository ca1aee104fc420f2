"""Register-allocation pass: bind the plan to architectural registers.

The allocation follows the fixed conventions documented in
:mod:`repro.kernels.builder` (per-lane scratch in ``t0..t3``, operand
pointers in ``a0..a7``/``s2..s5``, loop bookkeeping in ``s6..s11``,
vector lanes ``v0..v23`` with the B tile at the top of the file for
VRF residency).  Keeping the conventions in one pass means every
compiled kernel stays link-compatible with the hand-written streams the
golden tests pin, and the paper's Section III constraints are
validated here: every N:M kernel's tile height, and the
vector-register budget of a VRF-resident B tile.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import KernelError
from repro.kernels import builder as bld
from repro.kernels.compiler.spec import KernelSpec, Schedule
from repro.kernels.dataflow import validate_tile_rows

#: Scalar register for the inner k-tile counter of the C-stationary
#: nest (t5, next to the builder's AVL scratch t4).
KT_CTR = 30


@dataclass(frozen=True)
class RegisterPlan:
    """Architectural registers assigned to one compiled kernel."""

    # scalar file
    t: tuple[int, ...] = bld.T            #: per-lane index/addr scratch
    val_ptr: tuple[int, ...] = bld.VAL_PTR
    idx_ptr: tuple[int, ...] = bld.IDX_PTR
    c_ptr: tuple[int, ...] = bld.C_PTR
    b_ptr: int = bld.B_PTR
    row_ctr: int = bld.ROW_CTR
    xform: int = bld.XFORM
    b_stride: int = bld.B_STRIDE
    a_bump: int = bld.A_BUMP
    c_bump: int = bld.C_BUMP
    kt_ctr: int = KT_CTR
    avl: int = bld.AVL
    fa: tuple[int, ...] = bld.FA          #: FP scalar lanes
    # vector file
    v_values: tuple[int, ...] = bld.V_VALUES
    v_colidx: tuple[int, ...] = bld.V_COLIDX
    v_acc: tuple[int, ...] = bld.V_ACC
    v_brow: tuple[int, ...] = bld.V_BROW
    v_scratch_val: tuple[int, ...] = bld.V_SCRATCH_VAL
    v_scratch_idx: tuple[int, ...] = bld.V_SCRATCH_IDX
    #: first vector register of a VRF-resident B tile (None when the
    #: tile lives in memory)
    vreg_base: int | None = None
    num_vregs: int = 32


def allocate_registers(spec: KernelSpec, schedule: Schedule, staged,
                       num_vregs: int = 32) -> RegisterPlan:
    """Bind the schedule to the builder conventions and validate the
    lane budget and, for an N:M kernel, the tile height and the
    vector-register budget."""
    if schedule.unroll > bld.MAX_UNROLL:
        raise KernelError(
            f"unroll {schedule.unroll} exceeds the {bld.MAX_UNROLL} "
            "register lanes of the kernel conventions")
    vrf = schedule.b_residency == "vrf"
    if spec.operand == "nm-sparse":
        validate_tile_rows(schedule.tile_rows, staged.nm_n, staged.nm_m,
                           schedule.vlmax, num_vregs if vrf else None)
    return RegisterPlan(vreg_base=num_vregs - schedule.tile_rows if vrf
                        else None, num_vregs=num_vregs)
