"""Dataflow (tiling/loop-order) choices for the SpMM kernels.

Following the terminology of Alaejos et al. [17] used in Section IV-A of
the paper, a kernel can keep one operand "stationary" across the
innermost loops:

* ``B_STATIONARY`` — the tile of B (L rows x VL columns) is the
  innermost-reused operand; all rows of A stream against it.  This is
  the dataflow required by the proposed kernel (the tile physically
  lives in the vector register file) and the one the paper found best
  for the baseline too.
* ``A_STATIONARY`` — the loaded slice of A's values/indices stays in
  registers while the kernel sweeps the column tiles of B.
* ``C_STATIONARY`` — an output row tile is produced completely (all of
  K) before moving on; C is never re-loaded, at the cost of B locality.

The dataflow is a :class:`~repro.kernels.compiler.Schedule` field: the
compiler's emission pass selects the loop nest from it, and ``repro
tune`` sweeps every dataflow a kernel's spec declares schedulable
(string forms are coerced by
:func:`repro.kernels.compiler.parse_dataflow`).
"""

from __future__ import annotations

from enum import Enum

from repro.errors import KernelError


class Dataflow(Enum):
    """Stationary-operand choice for the row-wise SpMM kernels."""

    A_STATIONARY = "A"
    B_STATIONARY = "B"
    C_STATIONARY = "C"


def max_tile_rows(n: int, m: int, vlmax: int) -> int:
    """Upper bound on pre-loadable rows of B (Section III).

    A vector register holds ``vlmax`` elements of a row of A, which for
    N:M sparsity reference ``vlmax / n`` blocks spanning ``m * vlmax / n``
    columns — and hence at most that many distinct rows of B.
    """
    if n < 1 or m < n or vlmax < 1:
        raise KernelError(f"invalid N:M/VL combination {n}:{m}/{vlmax}")
    return m * vlmax // n


def validate_tile_rows(tile_rows: int, n: int, m: int, vlmax: int,
                       num_vregs: int | None = None,
                       reserved_vregs: int = 16) -> None:
    """Check the paper's constraints on L (Section III).

    ``L`` must be a positive multiple of ``M`` (a k-tile holds whole
    blocks, or its slots would drop non-zeros) and must not exceed
    ``M * VLMAX / N`` (a register of A's slots spans no more rows of
    B).  Given ``num_vregs`` (a tile resident in the vector register
    file), it must also leave ``reserved_vregs`` registers for
    values/indices/accumulators.
    """
    if tile_rows <= 0 or tile_rows % m != 0:
        raise KernelError(
            f"L={tile_rows} must be a positive multiple of the block size "
            f"M={m}")
    bound = max_tile_rows(n, m, vlmax)
    if tile_rows > bound:
        raise KernelError(
            f"L={tile_rows} exceeds the Section III bound "
            f"M*VLMAX/N={bound}: a register of A's slots spans no more "
            "rows of B")
    if num_vregs is not None and tile_rows > num_vregs - reserved_vregs:
        raise KernelError(
            f"L={tile_rows} does not fit: {num_vregs} vector registers "
            f"minus {reserved_vregs} reserved for the kernel")
