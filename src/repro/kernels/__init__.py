"""Vectorized matrix-multiplication kernels (Algorithms 1-3 + CSR).

Emission is schedule-driven: every kernel is a declarative
:class:`~repro.kernels.compiler.KernelSpec` in the one kernel table
:data:`~repro.kernels.compiler.SPECS`, compiled by name against a
:class:`~repro.kernels.compiler.Schedule` with
:func:`~repro.kernels.compiler.compile_trace`.  Operands are staged
into simulated memory by :mod:`repro.kernels.layout`.
"""

from repro.kernels.asm_kernels import (
    indexmac_spmm_assembly,
    run_assembly_spmm,
)
from repro.kernels.compiler import (
    SPECS,
    KernelSpec,
    Schedule,
    compile_trace,
    get_spec,
    get_trace_kernel,
)
from repro.kernels.dataflow import Dataflow, max_tile_rows, validate_tile_rows
from repro.kernels.layout import (
    StagedCSR,
    StagedDense,
    StagedSpMM,
    read_result,
    stage_csr,
    stage_dense,
    stage_spmm,
)

__all__ = [
    "Dataflow",
    "KernelSpec",
    "SPECS",
    "Schedule",
    "StagedCSR",
    "StagedDense",
    "StagedSpMM",
    "compile_trace",
    "get_spec",
    "get_trace_kernel",
    "indexmac_spmm_assembly",
    "max_tile_rows",
    "read_result",
    "run_assembly_spmm",
    "stage_csr",
    "stage_dense",
    "stage_spmm",
    "validate_tile_rows",
]
