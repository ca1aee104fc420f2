"""The detailed backend: every dynamic instruction gets full timing.

This is the original behaviour of the simulator — every instruction of
the trace pays dispatch, issue, memory and dependency modelling.  The
trace is expanded to its flat stream of straight-line blocks
(:meth:`~repro.isa.trace.Trace.blocks`), and each block runs through
its compiled function (:meth:`~repro.arch.processor.DecoupledProcessor.
run_block`).  It is the accuracy reference the ``batch-replay`` backend
is validated against.
"""

from __future__ import annotations

from repro.arch.timing.base import BackendResult, TimingBackend


class DetailedBackend(TimingBackend):
    """Cycle-approximate timing for the full dynamic stream."""

    name = "detailed"

    def run(self, proc, trace) -> BackendResult:
        run_block = proc.run_block
        for block in trace.blocks():
            run_block(block)
        stats = proc.stats()
        return self.record(stats, stats.instructions, stats.instructions)
