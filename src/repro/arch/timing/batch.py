"""Batch-replay: time a bracket of each steady loop, replay the rest.

Kernels for tiled GEMMs spend almost all their dynamic instructions in
steady-state loops whose iterations execute the *identical* instruction
sequence (pointers advance in registers).  Simulating every iteration in
detail is redundant — the insight behind trace-based models like TBM and
the stream-semantic steady-state argument of Scheffler et al.

Every steady loop long enough to be worth compressing is handled with a
**bracket**:

1. ``LEAD`` leading iterations are timed in full detail.  They really
   are slower (cold caches, pipeline and queue fill), and their true
   cost is kept verbatim.
2. The middle iterations are **replayed** through the functional core
   plus the memory hierarchy: registers, memory, cache tags and
   hit/miss/DRAM statistics advance exactly (the access order is the
   true program order), while the per-access clocks are saved and
   restored so the bandwidth model is not polluted by the frozen-time
   walk.
3. The replay proceeds in geometrically growing chunks (``CHUNK`` up
   to ``CHUNK_CAP``, factor ``CHUNK_GROWTH``), each followed by a
   short timed probe, and ends with ``TRAIL`` detailed trailing
   iterations.  Probes and trail pool into one warm per-iteration
   rate sample: cycles, L2 misses, and DRAM row misses per iteration.
   A loop re-entered under an outer loop resumes at the chunk size
   its last entry settled at.
4. Each chunk is then priced ``base x n + per_miss x excess_misses``
   plus a *signed* DRAM row-miss correction.  ``base`` is the pooled
   warm per-iteration cost; excess L2 misses were counted *exactly*
   during the replay and are charged at the marginal miss cost taken
   from the contrast between the post-first lead iterations and the
   pool (the first lead iteration is excluded: its surcharge is
   pipeline fill, not misses).  The row correction charges each
   chunk's row-miss surplus or deficit relative to the pooled rate at
   the cycles-per-row-miss slope regressed from the probe samples —
   per-iteration cost oscillates with DRAM row crossings even at
   dead-constant miss counts, and the replay counts row misses
   exactly, so large chunks stay honest without extra timed
   iterations.

The backend subclasses :class:`~repro.arch.timing.detailed.
DetailedBackend` and walks the trace's node tree through the same
code: every timed iteration runs each straight-line block through the
processor's compiled function for its shape
(:meth:`~repro.arch.processor.DecoupledProcessor.run_block`), so a
timed instruction costs the same under either backend.  Only the loop
rule differs.

Nested steady loops compress recursively — a timed outer iteration may
itself contain a bracketed inner loop.  A tile loop is timed one tile
iteration at a time, each bound to its own fresh nodes, exactly as the
unrolled nest would be.  Tight loop bodies (fewer than ``MIN_BODY``
instructions, e.g. the per-non-zero inner loops) and loops of fewer
than ``MIN_REPEAT`` trips stay fully detailed: their per-iteration
completion-time deltas are dominated by cross-iteration pipelining and
do not extrapolate reliably.  Such a loop is timed as ``detailed``
times it: a body of one block runs whole, through one compiled
function for all its iterations
(:meth:`~repro.arch.processor.DecoupledProcessor.run_loop`).

A replayed iteration runs each straight-line block through the
compiled replay function of its shape
(:meth:`~repro.arch.processor.DecoupledProcessor.replay_block`): the
block's semantics are the same texts and :class:`~repro.arch.
functional.FunctionalCore` handlers a timed block runs, each memory
instruction first probes the hierarchy at the chunk's frozen
timestamp, the block adds its class tallies as a timed block does, and
no processor clock or queue moves.  Nested loops replay recursively,
and a body of one block replays whole
(:meth:`~repro.arch.processor.DecoupledProcessor.replay_loop`).
The backend keeps the name ``batch-replay`` from when its replayed
chunks ran as verified NumPy batches; those batches produced exactly
the state and counts of this replay, and the name is part of every job
key and of the pinned golden statistics.

Accuracy contract: functional results are bit-exact; instruction-class
counts (including the Fig. 6 vector-memory-access metric) and cache/
DRAM access counts are exact; cycles are approximate (see
:data:`repro.analytic.validation.BACKEND_CYCLE_TOLERANCES`).  The
relative cycle error of a bracket shrinks as loops grow (the transient
fraction falls), so accuracy *improves* on the long loops where the
bracket skips the most.
"""

from __future__ import annotations

from repro.arch.timing.base import BackendResult
from repro.arch.timing.detailed import DetailedBackend
from repro.isa.trace import Block

#: Detailed iterations before (``LEAD``; at least 3, so the marginal
#: miss cost has two contrast samples) and after (``TRAIL``) each
#: bracketed loop's replayed middle.
LEAD = 3
TRAIL = 3
#: Loop-body size and trip count below which loops stay fully detailed
#: (``MIN_REPEAT`` must exceed ``LEAD + TRAIL``).
MIN_BODY = 32
MIN_REPEAT = 16
#: The first replayed chunk and its geometric growth.  The first chunk
#: stays small — the cache-warming transient right after the lead needs
#: densely-spaced probes or its excess misses get priced at the wrong
#: marginal cost — but once the loop settles a replayed middle is
#: nearly free, so the probes dominate and may be sparse.
CHUNK = 8
CHUNK_GROWTH = 2.0
CHUNK_CAP = 4096


class BatchReplayBackend(DetailedBackend):
    """Steady-loop bracket timing with exact replay (module docstring)."""

    name = "batch-replay"

    def __init__(self):
        #: Per-loop-node carry of the settled chunk size across entries
        #: (``{id(loop): (loop, chunk)}``).  A loop nested under an
        #: outer loop is re-entered once per timed outer iteration with
        #: its steady-state behaviour unchanged, so restarting the
        #: growth schedule from ``CHUNK`` every entry would re-pay the
        #: dense early probes for nothing.
        self._chunk_start: dict[int, tuple] = {}

    def run(self, proc, trace) -> BackendResult:
        timed = self._time_nodes(proc, trace.nodes)
        stats = proc.stats()
        return self.record(stats, timed, trace.dynamic_length)

    # ------------------------------------------------------------------
    def _time_loop(self, proc, loop) -> int:
        """Bracket a steady loop long enough to compress; time any other
        loop in full, as ``detailed`` does."""
        if (not loop.steady or loop.repeat < MIN_REPEAT
                or loop.body_length < MIN_BODY):
            return super()._time_loop(proc, loop)
        body = loop.body
        timed = 0

        # ---- lead: the true (cold) start-up cost, kept verbatim; the
        # post-first iterations double as the high-miss contrast sample
        late_cycles = 0.0
        late_misses = 0.0
        for index in range(LEAD):
            c0, m0 = proc.cycles, proc.hierarchy.l2.misses
            timed += self._time_nodes(proc, body)
            if index > 0:
                late_cycles += proc.cycles - c0
                late_misses += proc.hierarchy.l2.misses - m0
        late_cycles /= LEAD - 1
        late_misses /= LEAD - 1

        # ---- middle: replay chunks, each followed by a short timed
        # probe.  The chunks grow geometrically: cache behaviour drifts
        # fastest right after the cold start, so probes are dense early
        # and sparse once the loop settles.  Pricing is deferred — every
        # probe contributes to one pooled per-iteration rate, because a
        # single short probe aliases the loop's periodic noise (streams
        # crossing DRAM rows) and would mis-price a large chunk by
        # whatever phase it happened to land on.  Per-chunk drift is
        # still captured exactly, through each chunk's own counted
        # misses and row misses (see the pricing pass below).
        replayed_total = 0
        remaining = loop.repeat - LEAD
        chunk = float(CHUNK)
        entry = self._chunk_start.get(id(loop))
        if entry is not None and entry[0] is loop:
            chunk = entry[1]
        l2 = proc.hierarchy.l2
        dram = proc.hierarchy.dram
        row_penalty = (dram.config.row_miss_latency
                       - dram.config.row_hit_latency)
        chunks = []            # (n, chunk_misses, chunk_rowmiss)
        samples = []           # per timed iteration: (cycles, rowmiss)
        probe_misses = 0.0
        while remaining > TRAIL + 1:
            n = min(int(chunk), remaining - TRAIL - 1)
            chunk = min(chunk * CHUNK_GROWTH, float(CHUNK_CAP))
            clocks = proc.hierarchy.clock_state()
            m0, r0 = l2.misses, dram.row_misses
            self._replay(proc, body, n, proc.cycles)
            chunks.append((n, l2.misses - m0, dram.row_misses - r0))
            proc.hierarchy.restore_clock_state(clocks)
            # probe: a couple of timed iterations, sampled individually
            probe_len = min(2, remaining - n - TRAIL)
            for _ in range(probe_len):
                c0, m0, r0 = proc.cycles, l2.misses, dram.row_misses
                timed += self._time_nodes(proc, body)
                samples.append((proc.cycles - c0, dram.row_misses - r0))
                probe_misses += l2.misses - m0
            remaining -= n + probe_len
            replayed_total += n
        if replayed_total:
            self._chunk_start[id(loop)] = (loop, chunk)

        # ---- trail: detailed to the end; its iterations join the probe
        # pool (they are steady-state samples like any probe)
        while remaining > 0:
            c0, m0, r0 = proc.cycles, l2.misses, dram.row_misses
            timed += self._time_nodes(proc, body)
            samples.append((proc.cycles - c0, dram.row_misses - r0))
            probe_misses += l2.misses - m0
            remaining -= 1

        # ---- price the replayed chunks from the pooled probe rates.
        # Base: pooled warm per-iteration cost.  Excess L2 misses are
        # charged at the marginal miss cost from the lead contrast.
        # Each chunk's row-miss surplus (or deficit — the correction is
        # signed) is charged at the *empirical* cycles-per-row-miss
        # slope regressed from the probe samples: per-iteration cost
        # oscillates with DRAM row crossings even when misses per
        # iteration are dead constant (write-backs and row re-opens
        # travel together), the replay counts row misses exactly, and
        # the fitted slope also absorbs the correlated write-back
        # traffic that a fixed row-reopen penalty would miss.  This
        # keeps arbitrarily large chunks honest without extra timed
        # iterations.
        pending_shift = 0.0
        if replayed_total:
            probe_iters = len(samples)
            probe_cycles = sum(c for c, _ in samples)
            probe_rowmiss = sum(r for _, r in samples)
            base = probe_cycles / probe_iters
            miss_rate = probe_misses / probe_iters
            rowmiss_rate = probe_rowmiss / probe_iters
            if late_misses > miss_rate and late_cycles > base:
                per_miss = (late_cycles - base) / (late_misses - miss_rate)
            else:
                per_miss = 0.0
            var = sum((r - rowmiss_rate) ** 2 for _, r in samples)
            if probe_iters >= 3 and var > 0.0:
                cov = sum((c - base) * (r - rowmiss_rate)
                          for c, r in samples)
                slope = min(max(cov / var, 0.0), 4.0 * row_penalty)
            else:
                slope = row_penalty
            for n, chunk_misses, chunk_rowmiss in chunks:
                excess = max(0.0, chunk_misses - miss_rate * n)
                estimate = base * n + per_miss * excess
                row_fix = slope * (chunk_rowmiss - rowmiss_rate * n)
                pending_shift += max(0.0, estimate + row_fix)
        proc.shift_time(pending_shift)
        return timed

    # ------------------------------------------------------------------
    def _replay(self, proc, nodes, repeat: int, at: float) -> None:
        """Execute ``repeat`` iterations of ``nodes`` without timing,
        nested loops included: each block runs through its compiled
        replay function, whose memory instructions probe the hierarchy
        at the frozen timestamp ``at`` so cache contents and access
        statistics stay exact (the caller restores the clocks), and
        which tallies the block's instruction classes.  A body of one
        block replays whole.
        """
        if len(nodes) == 1 and type(nodes[0]) is Block:
            proc.replay_loop(nodes[0], repeat, at)
            return
        replay_block = proc.replay_block
        for _ in range(repeat):
            for node in nodes:
                if type(node) is Block:
                    replay_block(node, at)
                else:
                    self._replay(proc, node.body, node.repeat, at)
