"""Schedule-driven kernel compiler: KernelSpec -> passes -> Trace IR.

The four kernels of the reproduction used to be four near-duplicate
hand-written emitters; they are now *data* — a declarative
:class:`~repro.kernels.compiler.spec.KernelSpec` (operand format,
compute style, index encoding) lowered against a
:class:`~repro.kernels.compiler.spec.Schedule` (tile rows, unroll,
dataflow, vector length, B-tile residency) through three explicit
passes:

1. **tiling** (:mod:`~repro.kernels.compiler.tiling`) — trip counts,
   k/column tile geometry and the unroll row-grouping;
2. **register allocation** (:mod:`~repro.kernels.compiler.regalloc`) —
   binding to the fixed conventions of :mod:`repro.kernels.builder`,
   including the vector-register budget of a VRF-resident B tile;
3. **emission** (:mod:`~repro.kernels.compiler.emit`) — loop-structured
   lowering straight into the Trace IR, steady-loop annotations
   included, so batch-replay timing compresses compiled kernels
   exactly like the historical hand-written ones.

The expansions are instruction-for-instruction identical to the streams
the hand-written emitters produced (``tests/test_compiler_golden.py``
pins them to sha256 fingerprints captured before the refactor).

:data:`SPECS` is the one kernel table: a kernel is compiled by name
with :func:`compile_trace`.  The runner and the bulk evaluator build
through :func:`get_trace_kernel` instead, the one seam where
``perfbench``'s traced run counts and times compiles.

>>> from repro.kernels.compiler import Schedule, compile_trace
>>> trace = compile_trace("indexmac-spmm", staged,
...                       Schedule(tile_rows=8, unroll=2))  # doctest: +SKIP
"""

from __future__ import annotations

import functools

from repro.errors import KernelError
from repro.isa.trace import Trace
from repro.kernels.compiler.emit import EmitContext, emit_trace
from repro.kernels.compiler.regalloc import RegisterPlan, allocate_registers
from repro.kernels.compiler.spec import (
    CSR_SPEC,
    DENSE_ROWWISE_SPEC,
    INDEXMAC_SPEC,
    ROWWISE_SPEC,
    SPECS,
    KernelSpec,
    Schedule,
    coerce_schedule,
    get_spec,
    normalize_schedule,
    parse_dataflow,
    project_schedule,
    schedule_incompatibility,
)
from repro.kernels.compiler.tiling import TilePlan, plan_tiles, shard_rows
from repro.kernels.layout import StagedCSR, StagedDense, StagedSpMM

__all__ = [
    "CSR_SPEC",
    "DENSE_ROWWISE_SPEC",
    "EmitContext",
    "INDEXMAC_SPEC",
    "KernelSpec",
    "ROWWISE_SPEC",
    "RegisterPlan",
    "SPECS",
    "Schedule",
    "TilePlan",
    "allocate_registers",
    "coerce_schedule",
    "compile_trace",
    "get_spec",
    "get_trace_kernel",
    "lower",
    "normalize_schedule",
    "parse_dataflow",
    "plan_tiles",
    "project_schedule",
    "schedule_incompatibility",
    "shard_rows",
]


def _check_operands(spec: KernelSpec, staged) -> None:
    """Reject spec/operand mismatches before any pass runs."""
    expected = {"nm-sparse": StagedSpMM, "dense": StagedDense,
                "csr": StagedCSR}[spec.operand]
    if not isinstance(staged, expected):
        raise KernelError(
            f"kernel {spec.name!r} expects {spec.operand} staged "
            f"operands, got {type(staged).__name__}")


def lower(spec: KernelSpec | str, staged, schedule=None, *,
          num_vregs: int = 32) -> EmitContext:
    """Run every pass short of emission; returns the lowered context.

    Useful for inspecting what the compiler decided (trip counts,
    register binding) without building the full trace.
    """
    if isinstance(spec, str):
        spec = get_spec(spec)
    schedule = normalize_schedule(spec, coerce_schedule(schedule))
    _check_operands(spec, staged)
    tiles = plan_tiles(spec, schedule, staged)
    regs = allocate_registers(spec, schedule, staged, num_vregs)
    return EmitContext(spec=spec, schedule=schedule, staged=staged,
                       tiles=tiles, regs=regs)


def compile_trace(spec: KernelSpec | str, staged, schedule=None, *,
                  num_vregs: int = 32) -> Trace:
    """Compile one kernel to a loop-annotated :class:`Trace`.

    ``spec`` is a :class:`KernelSpec` or a registered spec name;
    ``schedule`` is a :class:`Schedule`, or None for the paper default.
    """
    return emit_trace(lower(spec, staged, schedule, num_vregs=num_vregs))


def get_trace_kernel(name: str):
    """The trace builder of kernel ``name``: ``compile_trace`` bound to
    its spec, called as ``builder(staged, schedule)``.  An unknown
    name raises :class:`KernelError` listing every :data:`SPECS`
    name."""
    return functools.partial(compile_trace, get_spec(name))
