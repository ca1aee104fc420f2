"""Pluggable timing backends behind a name registry.

A *timing backend* decides how the cycle model is applied to a
loop-annotated :class:`~repro.isa.trace.Trace`:

``detailed``
    every dynamic instruction is timed (the reference model);
``batch-replay``
    each steady loop is timed over a bracket of lead, probe and trail
    iterations and its other iterations are priced from them; the
    skipped iterations still execute bit-exactly, as numpy-batched
    lanes where the loop body allows it and one instruction at a time
    where it does not, so results and access counts stay exact;
``analytic-sampled``
    no execution at all: cycles are predicted from static loop
    features through a calibration table fitted against ``detailed``
    runs (``repro calibrate``); instruction-class counts stay exact
    but results and memory counters are not produced
    (``functional = models_memory = False``).

Select a backend by name everywhere a simulation is launched —
``run_spmm(..., backend=...)``, ``SimJob(backend=...)``, the CLI's
``--backend`` flag, or the ``REPRO_BACKEND`` environment variable.
Additional backends plug in via :func:`register_backend`.

Multi-core sharded simulation is a *merge layer* on top of the
backends, not a backend itself: :mod:`repro.arch.timing.multicore`
combines the per-core :class:`BackendResult` streams that any inner
backend produced into makespan cycles plus aggregated instruction/
memory/energy counters, so it composes with both ``detailed`` and
``batch-replay`` (select cores via ``Schedule(cores=N)``).
"""

from __future__ import annotations

import os

from repro.arch.timing.analytic import AnalyticSampledBackend
from repro.arch.timing.base import BackendResult, TimingBackend
from repro.arch.timing.batch import BatchReplayBackend
from repro.arch.timing.detailed import DetailedBackend
from repro.arch.timing.multicore import (
    MULTICORE,
    MulticoreResult,
    merge_core_results,
)
from repro.errors import BackendError

DETAILED = DetailedBackend.name
BATCH_REPLAY = BatchReplayBackend.name
ANALYTIC_SAMPLED = AnalyticSampledBackend.name

#: The default backend preserves the simulator's historical behaviour.
DEFAULT_BACKEND = DETAILED

_BACKENDS: dict[str, type[TimingBackend]] = {}


def register_backend(cls: type[TimingBackend]) -> type[TimingBackend]:
    """Register a backend class under ``cls.name`` (decorator-friendly)."""
    name = getattr(cls, "name", None)
    if not name or not isinstance(name, str):
        raise BackendError(f"{cls!r} has no usable 'name' attribute")
    _BACKENDS[name] = cls
    return cls


register_backend(DetailedBackend)
register_backend(BatchReplayBackend)
register_backend(AnalyticSampledBackend)


def get_backend_class(name: str | None = None) -> type[TimingBackend]:
    """The backend class selected by :func:`resolve_backend`.

    Use this to consult capability traits (``functional``,
    ``models_memory``) without instantiating the backend.
    """
    return _BACKENDS[resolve_backend(name)]


def available_backends() -> tuple[str, ...]:
    """Sorted names of every registered backend."""
    return tuple(sorted(_BACKENDS))


def resolve_backend(name: str | None = None) -> str:
    """Pick the effective backend name.

    Explicit ``name`` wins, then ``$REPRO_BACKEND``, then
    :data:`DEFAULT_BACKEND`.  Unknown names raise so that a typo can
    never silently fall back to a different simulator.
    """
    if name is None:
        name = os.environ.get("REPRO_BACKEND") or DEFAULT_BACKEND
    if name not in _BACKENDS:
        known = ", ".join(available_backends())
        raise BackendError(f"unknown timing backend {name!r} "
                           f"(known: {known})")
    return name


def get_backend(name: str | None = None, **kwargs) -> TimingBackend:
    """Instantiate the backend selected by :func:`resolve_backend`.

    ``kwargs`` are forwarded to the backend constructor (e.g.
    ``table=`` for ``analytic-sampled``).
    """
    return _BACKENDS[resolve_backend(name)](**kwargs)


__all__ = [
    "ANALYTIC_SAMPLED",
    "AnalyticSampledBackend",
    "BATCH_REPLAY",
    "BackendResult",
    "BatchReplayBackend",
    "DEFAULT_BACKEND",
    "DETAILED",
    "DetailedBackend",
    "MULTICORE",
    "MulticoreResult",
    "TimingBackend",
    "available_backends",
    "get_backend",
    "get_backend_class",
    "merge_core_results",
    "register_backend",
    "resolve_backend",
]
