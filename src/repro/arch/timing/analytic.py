"""Analytic-sampled backend: predict cycles from static trace features.

The fastest tier of the backend ladder.  Nothing is executed: the trace
is reduced to a feature vector by one O(static-size) walk over its loop
tree (:func:`repro.analytic.calibration.profile_trace`) and cycles come
from a calibration table fitted by least squares against ``detailed``
runs (``repro calibrate``).  Per-job cost is therefore independent of
the dynamic instruction count — the ~100x tier on the Fig. 4 workloads.

What stays exact: every instruction-class counter (the traces have no
data-dependent control flow, so static counts scaled by trip counts
*are* the dynamic counts), including the paper's Fig. 6 vector-memory
metric.  What is approximate: cycles, gated by the per-backend
tolerance table in :mod:`repro.analytic.validation`.  What is absent:
architectural results (``functional = False`` — result buffers are
never written, so verification is skipped) and cache/DRAM counters
(``models_memory = False`` — they read as zero).
"""

from __future__ import annotations

from repro.arch.stats import COUNTERS, ExecutionStats
from repro.arch.timing.base import BackendResult, TimingBackend


class AnalyticSampledBackend(TimingBackend):
    """Feature-based cycle prediction; see module docstring.

    ``table`` pins a specific :class:`CalibrationTable`; by default the
    active table (``$REPRO_CALIBRATION`` or the packaged default) is
    resolved at each run.  The engine refuses to price a job built
    under another table (see :func:`repro.eval.engine.check_calibration`).
    """

    name = "analytic-sampled"
    functional = False
    models_memory = False

    def __init__(self, table=None):
        self.table = table

    def run(self, proc, trace) -> BackendResult:
        # imported here to keep repro.arch free of an import cycle with
        # repro.analytic (which imports arch configs for validation)
        from repro.analytic.calibration import active_table, profile_trace

        table = self.table if self.table is not None else active_table()
        profile = profile_trace(trace, proc.config)
        return self.price(profile, table, trace.dynamic_length)

    def price(self, profile, table, dynamic_length: int,
              cycles: float | None = None) -> BackendResult:
        """Turn one :class:`~repro.analytic.calibration.TraceProfile`
        into a priced :class:`BackendResult`.

        The single assembly point for analytic results: :meth:`run`
        calls it per trace, and the engine's bulk sweep path
        (:mod:`repro.analytic.bulk`) calls it per job with ``cycles``
        precomputed over a deduplicated feature matrix — both produce
        bit-identical stats.  A fresh :class:`ExecutionStats` is built
        per call, so callers may share one profile across many jobs.
        """
        if cycles is None:
            cycles = table.predict(profile.features())
        stats = ExecutionStats(cycles=cycles, **{
            name: getattr(profile, name) for name in COUNTERS})
        sha = table.sha256()
        stats.extra["calibration"] = sha[:16]
        stats.extra["calibration_sha256"] = sha
        return self.record(stats, 0, dynamic_length)
