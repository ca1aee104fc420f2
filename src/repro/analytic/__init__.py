"""Static trace profiles, the calibrated analytic backend and its checks.

:func:`~repro.analytic.calibration.profile_trace` counts every
instruction class of a compiled trace exactly from its loop tree, at any
scale (Fig. 6's full-size column comes from it); the calibration table
prices those counts as cycles for the ``analytic-sampled`` backend, and
:mod:`repro.analytic.bulk` prices whole sweeps in-process.
:func:`count_kernel` is the small-scale flat recount that tests hold the
profile to, and :func:`validate_backend` gates a timing backend against
``detailed``.
"""

from repro.analytic.validation import (
    BackendValidation,
    StreamCount,
    count_kernel,
    count_stream,
    validate_backend,
)

__all__ = [
    "BackendValidation",
    "StreamCount",
    "count_kernel",
    "count_stream",
    "validate_backend",
]
