"""Latency + bandwidth main-memory model (DDR4-2400-like).

Two effects are modeled, both first-order:

* **Row-buffer locality** — an access to the currently open row of the
  (single modeled) bank group costs ``row_hit_latency``; anything else
  re-opens the row and costs ``row_miss_latency``.
* **Channel bandwidth** — consecutive line transfers are spaced at least
  ``cycles_per_line`` apart, which is what actually throttles streaming
  kernels.

The latencies and the transfer interval are bound as floats once, so
that every addition to a clock is a float one (see
:mod:`repro.arch.processor`).
"""

from __future__ import annotations

from repro.arch.config import DramConfig


class DramModel:
    """Shared main memory behind the L2."""

    def __init__(self, config: DramConfig):
        self.config = config
        self._per_line = float(config.cycles_per_line)
        self._row_hit = float(config.row_hit_latency)
        self._row_miss = float(config.row_miss_latency)
        self._next_free = 0.0
        self._open_row = -1
        self.reads = 0
        self.writes = 0
        self.row_hits = 0
        self.row_misses = 0

    def access(self, addr: int, at_cycle: float, is_write: bool) -> float:
        """Issue one line transfer; returns the data-available cycle.

        Writes consume bandwidth but complete immediately from the
        requester's perspective (posted write-backs).
        """
        start = at_cycle if at_cycle > self._next_free else self._next_free
        self._next_free = start + self._per_line
        row = addr // self.config.row_bytes
        if row == self._open_row:
            latency = self._row_hit
            self.row_hits += 1
        else:
            latency = self._row_miss
            self.row_misses += 1
            self._open_row = row
        if is_write:
            self.writes += 1
            return start + 1.0
        self.reads += 1
        return start + latency

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    def reset_stats(self) -> None:
        self.reads = self.writes = 0
        self.row_hits = self.row_misses = 0

    def shift(self, dt: float) -> None:
        """Advance the channel clock by ``dt`` cycles."""
        self._next_free += dt

    def clock_state(self) -> float:
        """Snapshot of the channel clock (row/stat state not included)."""
        return self._next_free

    def restore_clock_state(self, state: float) -> None:
        self._next_free = state
