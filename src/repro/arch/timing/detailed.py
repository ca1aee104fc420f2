"""The detailed backend: every dynamic instruction gets full timing.

This is the original behaviour of the simulator — the trace is expanded
to its flat stream and every instruction pays dispatch, issue, memory
and dependency modelling.  It is the accuracy reference the
``batch-replay`` backend is validated against.
"""

from __future__ import annotations

from repro.arch.timing.base import BackendResult, TimingBackend


class DetailedBackend(TimingBackend):
    """Cycle-approximate timing for the full dynamic stream."""

    name = "detailed"

    def run(self, proc, trace) -> BackendResult:
        proc.run(trace.instructions())
        stats = proc.stats()
        return self.record(stats, stats.instructions, stats.instructions)
