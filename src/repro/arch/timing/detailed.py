"""The detailed backend: every dynamic instruction gets full timing.

This is the original behaviour of the simulator — every instruction of
the trace pays dispatch, issue, memory and dependency modelling.  It is
the accuracy reference the ``batch-replay`` backend is validated
against, and ``batch-replay`` subclasses it: both walk the trace's
node tree the same way (:meth:`DetailedBackend._time_nodes`) and
differ only in how they time a loop.

Each straight-line block runs through the processor's compiled
function for its shape (:meth:`~repro.arch.processor.
DecoupledProcessor.run_block`), and a tile loop one tile iteration at a
time, each bound to its own nodes.  A loop whose body is a single block
runs whole (:meth:`~repro.arch.processor.DecoupledProcessor.run_loop`:
one compiled function for a body of at most :data:`~repro.arch.
processor.BLOCK_PART` instructions, the clocks kept in locals across
its iterations), which times every instruction exactly as running the
block ``repeat`` times would; other loops run iteration by iteration.
"""

from __future__ import annotations

from repro.arch.timing.base import BackendResult, TimingBackend
from repro.isa.trace import Block, Loop


class DetailedBackend(TimingBackend):
    """Cycle-approximate timing for the full dynamic stream."""

    name = "detailed"

    def run(self, proc, trace) -> BackendResult:
        self._time_nodes(proc, trace.nodes)
        stats = proc.stats()
        return self.record(stats, stats.instructions, stats.instructions)

    # ------------------------------------------------------------------
    def _time_nodes(self, proc, nodes) -> int:
        """Time a node sequence; returns how many instructions received
        detailed timing."""
        timed = 0
        run_block = proc.run_block
        for node in nodes:
            kind = type(node)
            if kind is Block:
                run_block(node)
                timed += len(node.instrs)
            elif kind is Loop:
                timed += self._time_loop(proc, node)
            else:
                for body in node.iterations():
                    timed += self._time_nodes(proc, body)
        return timed

    def _time_loop(self, proc, loop) -> int:
        """Time every iteration of ``loop``: a body of one block runs
        whole, any other iteration by iteration."""
        body = loop.body
        if len(body) == 1 and type(body[0]) is Block:
            proc.run_loop(body[0], loop.repeat)
            return loop.repeat * len(body[0].instrs)
        timed = 0
        for _ in range(loop.repeat):
            timed += self._time_nodes(proc, body)
        return timed
