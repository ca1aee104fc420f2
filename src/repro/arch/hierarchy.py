"""The memory hierarchy of Table I.

Two request paths exist, exactly as in the paper's design:

* the scalar core goes ``L1D -> L2 -> DRAM``;
* the vector engine bypasses the L1 and talks to the shared, banked
  ``L2 -> DRAM`` directly (through its load/store queues, which are
  modeled in the processor).

Requests larger than one line are split and complete when the last
beat arrives.
"""

from __future__ import annotations

import numpy as np

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
    def bulk_replay(self, slots, iters: int) -> None:
        """Frozen-time replay of the memory traffic of ``iters`` loop
        iterations.

        ``slots`` is the loop body's static memory-access sequence: one
        entry per memory instruction in program order, as
        ``(is_vector, is_write, size, addrs)`` where ``addrs`` is an
        int64 numpy array holding that instruction's effective address
        in each of the ``iters`` iterations.  The traffic is replayed
        in true program order (iteration-major, then slot order, then
        line-beat order) through the same L1D/L2/DRAM state machines as
        the timed path — tags, LRU order, dirty bits, hit/miss/
        write-back and row-buffer counters all advance exactly; no
        clock moves (see :meth:`clock_state` for why that matters).
        """
        if not slots or not iters:
            return
        lines, iter_ids, slot_ids, beat_ids = [], [], [], []
        probes, writes = [], []
        dram_addrs: list[int] = []
        dram_writes: list[bool] = []

        def dram_sink(addr: int, is_write: bool) -> None:
            dram_addrs.append(addr)
            dram_writes.append(is_write)

        l2_probe = self.l2.bulk_prober(dram_sink)
        l1_probe = self.l1d.bulk_prober(l2_probe)
        for slot_idx, (is_vector, is_write, size, addrs) in enumerate(slots):
            cache = self.l2 if is_vector else self.l1d
            line_bytes = cache.config.line_bytes
            first = addrs // line_bytes
            counts = (addrs + (size - 1)) // line_bytes - first + 1
            total = int(counts.sum())
            beats = np.arange(total, dtype=np.int64) - np.repeat(
                np.cumsum(counts) - counts, counts)
            lines.append((np.repeat(first, counts) + beats) * line_bytes)
            iter_ids.append(np.repeat(np.arange(iters, dtype=np.int64),
                                      counts))
            slot_ids.append(np.full(total, slot_idx, dtype=np.int64))
            beat_ids.append(beats)
            probes.append(l2_probe if is_vector else l1_probe)
            writes.append(bool(is_write))
        order = np.lexsort((np.concatenate(beat_ids),
                            np.concatenate(slot_ids),
                            np.concatenate(iter_ids)))
        addr_arr = np.concatenate(lines)[order]
        slot_arr = np.concatenate(slot_ids)[order]
        # Collapse runs of the same line hitting the same cache with no
        # other probe of that cache in between (adjacent in the merged
        # order means nothing — not even a sink-forwarded fill — can
        # evict it): every access after the first is a guaranteed hit
        # whose only state change is the sticky dirty bit, so one probe
        # carrying the run's write-OR plus a hit-counter bump replays
        # the run exactly.  Unit-stride streams shrink by ~line/size.
        slot_path = np.array([0 if probe is l1_probe else 1
                              for probe in probes])
        path_arr = slot_path[slot_arr]
        write_arr = np.array(writes, dtype=bool)[slot_arr]
        new_run = np.empty(len(addr_arr), dtype=bool)
        new_run[0] = True
        np.not_equal(addr_arr[1:], addr_arr[:-1], out=new_run[1:])
        new_run[1:] |= path_arr[1:] != path_arr[:-1]
        starts = np.flatnonzero(new_run)
        run_writes = np.logical_or.reduceat(write_arr, starts)
        run_lens = np.diff(np.append(starts, len(addr_arr)))
        run_probes = [l1_probe, l2_probe]
        for addr, path, is_write, extra in zip(
                addr_arr[starts].tolist(), path_arr[starts].tolist(),
                run_writes.tolist(), (run_lens - 1).tolist()):
            run_probes[path](addr, is_write)
            if extra:
                (self.l1d if path == 0 else self.l2).hits += extra
        self.dram.bulk_access(np.asarray(dram_addrs, dtype=np.int64),
                              np.asarray(dram_writes, dtype=bool))

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

        The batch-replay backend walks skipped loop iterations
        through the caches at a frozen timestamp so tags and hit/miss
        statistics stay exact; saving and restoring the clocks around
        that walk keeps the bandwidth model unpolluted.
        """
        return (self.l1d.clock_state(), self.l2.clock_state(),
                self.dram.clock_state())

    def restore_clock_state(self, state) -> None:
        l1d, l2, dram = state
        self.l1d.restore_clock_state(l1d)
        self.l2.restore_clock_state(l2)
        self.dram.restore_clock_state(dram)
