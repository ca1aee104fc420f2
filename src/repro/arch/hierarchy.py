"""The memory hierarchy of Table I.

Two request paths exist, exactly as in the paper's design:

* the scalar core goes ``L1D -> L2 -> DRAM``;
* the vector engine bypasses the L1 and talks to the shared, banked
  ``L2 -> DRAM`` directly (through its load/store queues, which are
  modeled in the processor).

Requests larger than one line are split and complete when the last
beat arrives.

Each line's access is the cache's one text (:data:`repro.arch.cache.
ACCESS`).  The processor's compiled code runs it inline for the L2 and
splits a vector access into lines itself, so it calls neither
:meth:`MemoryHierarchy.vector_access` nor the L2's method; they remain
the reference the tests hold that code to.  Scalar accesses go through
:meth:`MemoryHierarchy.scalar_access`.
"""

from __future__ import annotations

from repro.arch.cache import SetAssociativeCache
from repro.arch.config import ProcessorConfig
from repro.arch.dram import DramModel


class MemoryHierarchy:
    """Timing front door for all data-side memory traffic."""

    def __init__(self, config: ProcessorConfig):
        self.config = config
        self.dram = DramModel(config.dram)
        self.l2 = SetAssociativeCache("L2", config.l2, self.dram)
        self.l1d = SetAssociativeCache("L1D", config.l1d, self.l2)

    # ------------------------------------------------------------------
    def scalar_access(self, addr: int, size: int, at_cycle: float,
                      is_write: bool) -> float:
        """Scalar-core load/store of ``size`` bytes through the L1D."""
        return self._spanning(self.l1d, addr, size, at_cycle, is_write)

    def vector_access(self, addr: int, size: int, at_cycle: float,
                      is_write: bool) -> float:
        """Vector-engine load/store of ``size`` bytes, straight to L2."""
        return self._spanning(self.l2, addr, size, at_cycle, is_write)

    # ------------------------------------------------------------------
    @staticmethod
    def _spanning(cache: SetAssociativeCache, addr: int, size: int,
                  at_cycle: float, is_write: bool) -> float:
        line = cache.config.line_bytes
        first = addr // line
        last = (addr + size - 1) // line
        done = cache.access(addr, at_cycle, is_write)
        for ln in range(first + 1, last + 1):
            beat = cache.access(ln * line, at_cycle, is_write)
            if beat > done:
                done = beat
        return done

    # ------------------------------------------------------------------
    def reset_stats(self) -> None:
        self.l1d.reset_stats()
        self.l2.reset_stats()
        self.dram.reset_stats()

    def flush(self) -> None:
        """Empty all cache levels (used between benchmark repetitions)."""
        self.l1d.flush()
        self.l2.flush()

    def shift(self, dt: float) -> None:
        """Advance every level's clocks by ``dt`` cycles."""
        self.l1d.shift(dt)
        self.l2.shift(dt)
        self.dram.shift(dt)

    def clock_state(self):
        """Snapshot of all bank/channel clocks (contents excluded).

        The batch-replay backend replays the loop iterations it does
        not time through the caches at a frozen timestamp, so tags and
        hit/miss statistics stay exact; saving and restoring the clocks
        around each replayed chunk keeps the bandwidth model unpolluted.
        """
        return (self.l1d.clock_state(), self.l2.clock_state(),
                self.dram.clock_state())

    def restore_clock_state(self, state) -> None:
        l1d, l2, dram = state
        self.l1d.restore_clock_state(l1d)
        self.l2.restore_clock_state(l2)
        self.dram.restore_clock_state(dram)
