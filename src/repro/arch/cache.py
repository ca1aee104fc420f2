"""Banked, set-associative, write-back/write-allocate cache timing model.

The cache tracks tags only — data lives in :class:`repro.arch.memory.
FlatMemory` and is always functionally up to date.  ``access`` maps one
line-sized request to a completion cycle, modelling:

* bank serialization (one new access per bank per cycle, pipelined),
* LRU replacement within a set,
* write-back of dirty victims (posted, consuming next-level bandwidth),
* miss fills from the next level (another cache or DRAM).
"""

from __future__ import annotations

from collections import OrderedDict

from repro.arch.config import CacheConfig


class SetAssociativeCache:
    """One cache level; ``next_level`` is another cache or a DramModel."""

    def __init__(self, name: str, config: CacheConfig, next_level):
        self.name = name
        self.config = config
        self.next_level = next_level
        #: computed once: ``config.num_sets`` is a derived property
        self.num_sets = config.num_sets
        self._sets: list[OrderedDict] = [
            OrderedDict() for _ in range(self.num_sets)]
        self._bank_free = [0.0] * config.banks
        self.hits = 0
        self.misses = 0
        self.writebacks = 0

    # ------------------------------------------------------------------
    def access(self, addr: int, at_cycle: float, is_write: bool) -> float:
        """One request for the line containing ``addr``; returns completion."""
        cfg = self.config
        num_sets = self.num_sets
        line = addr // cfg.line_bytes
        if cfg.hashed_index:
            set_idx = (line ^ (line // num_sets)) % num_sets
        else:
            set_idx = line % num_sets
        bank = line % cfg.banks
        start = at_cycle
        free = self._bank_free[bank]
        if free > start:
            start = free
        self._bank_free[bank] = start + cfg.bank_busy_cycles

        ways = self._sets[set_idx]
        if line in ways:
            self.hits += 1
            if is_write:
                ways[line] = True
            ways.move_to_end(line)
            return start + cfg.hit_latency

        # Miss: fetch from the next level after the local tag check.
        self.misses += 1
        fill_done = self.next_level.access(
            line * cfg.line_bytes, start + cfg.hit_latency, False)
        if len(ways) >= cfg.ways:
            victim_line, dirty = ways.popitem(last=False)
            if dirty:
                self.writebacks += 1
                self.next_level.access(
                    victim_line * cfg.line_bytes, fill_done, True)
        ways[line] = is_write
        return fill_done

    # ------------------------------------------------------------------
    def contains(self, addr: int) -> bool:
        """Tag probe without side effects (for tests)."""
        cfg = self.config
        num_sets = self.num_sets
        line = addr // cfg.line_bytes
        if cfg.hashed_index:
            set_idx = (line ^ (line // num_sets)) % num_sets
        else:
            set_idx = line % num_sets
        return line in self._sets[set_idx]

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def reset_stats(self) -> None:
        self.hits = self.misses = self.writebacks = 0

    def shift(self, dt: float) -> None:
        """Advance all bank clocks by ``dt`` cycles."""
        self._bank_free = [t + dt for t in self._bank_free]

    def clock_state(self) -> list[float]:
        """Snapshot of the bank clocks (tags/stats not included)."""
        return list(self._bank_free)

    def restore_clock_state(self, state: list[float]) -> None:
        self._bank_free = list(state)

    def flush(self) -> None:
        """Drop all cached lines (dirty data is functionally in memory)."""
        for ways in self._sets:
            ways.clear()
