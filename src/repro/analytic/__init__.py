"""Closed-form cost model (exact instruction counts at any scale)."""

from repro.analytic.costmodel import (
    KernelCost,
    SpmmGeometry,
    indexmac_spmm_cost,
    memory_access_reduction,
    rowwise_spmm_cost,
    spmm_cost,
)
from repro.analytic.validation import (
    BACKEND_CYCLE_TOLERANCE,
    BackendValidation,
    StreamCount,
    count_kernel,
    count_stream,
    validate_backend,
)

__all__ = [
    "BACKEND_CYCLE_TOLERANCE",
    "BackendValidation",
    "KernelCost",
    "SpmmGeometry",
    "StreamCount",
    "count_kernel",
    "count_stream",
    "indexmac_spmm_cost",
    "memory_access_reduction",
    "rowwise_spmm_cost",
    "spmm_cost",
    "validate_backend",
]
