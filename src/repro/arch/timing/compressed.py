"""Compressed-replay: time representative iterations, extrapolate the rest.

Kernels for tiled GEMMs spend almost all their dynamic instructions in
steady-state loops whose iterations execute the *identical* instruction
sequence (pointers advance in registers).  Simulating every iteration in
detail is redundant — the insight behind trace-based models like TBM and
the stream-semantic steady-state argument of Scheffler et al.

Every steady loop long enough to be worth compressing is handled with a
**bracket**:

1. ``lead`` leading iterations are timed in full detail.  They really
   are slower (cold caches, pipeline and queue fill), and their true
   cost is kept verbatim.
2. The middle iterations are **replayed** through the functional core
   plus the memory hierarchy: registers, memory, cache tags and
   hit/miss/DRAM statistics advance exactly (the access order is the
   true program order), while the per-access clocks are saved and
   restored so the bandwidth model is not polluted by the frozen-time
   walk.
3. The replay proceeds in geometrically growing chunks (``chunk`` up
   to ``chunk_cap``, factor ``chunk_growth``), each followed by a
   short timed probe, and ends with ``trail`` detailed trailing
   iterations.  Probes and trail pool into one warm per-iteration
   rate sample: cycles, L2 misses, and DRAM row misses per iteration.
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
   iterations.  Instruction-class counters grow by the exact
   per-iteration mix measured over the trail.

Nested steady loops compress recursively — a timed outer iteration may
itself contain a bracketed inner loop.  A tile loop is timed one tile
iteration at a time, each bound to its own fresh nodes, exactly as the
unrolled nest would be.  Tight loop bodies (fewer than
``min_body`` instructions, e.g. the per-non-zero inner loops) stay
fully detailed: their per-iteration completion-time deltas are
dominated by cross-iteration pipelining and do not extrapolate
reliably.

The relative cycle error of a bracket shrinks as loops grow (the
transient fraction falls), so accuracy *improves* exactly where the
compression pays off most; see ``benchmarks/bench_backends.py`` and the
tolerance gate in :mod:`repro.analytic.validation`.

Accuracy contract: functional results are bit-exact; instruction-class
counts (including the Fig. 6 vector-memory-access metric) and cache/
DRAM access counts are exact; cycles are approximate (see
:data:`repro.analytic.validation.BACKEND_CYCLE_TOLERANCE`).
"""

from __future__ import annotations

from repro.arch.timing.base import BackendResult, TimingBackend
from repro.errors import BackendError
from repro.isa.instructions import OPCODES, VECTOR_MEM_OPS
from repro.isa.trace import Block, Loop

#: ``op -> (vector, write, scalar bytes)`` of every memory op.
_ACCESSES = {op: (op in VECTOR_MEM_OPS, spec.timing in ("store", "vstore"),
                  spec.size)
             for op, spec in OPCODES.items()
             if spec.timing in ("load", "store", "vload", "vstore")}


class CompressedReplayBackend(TimingBackend):
    """Steady-state extrapolating timing model (see module docstring).

    ``lead``/``trail`` are the detailed iterations bracketing each
    steady loop's replayed middle (``lead >= 3`` gives the marginal
    miss cost at least two contrast samples), ``chunk`` is the initial
    replayed-chunk size (growing by ``chunk_growth`` per chunk up to
    ``chunk_cap``), and ``min_body``/``min_repeat`` are the loop-body
    size and trip count below which loops stay fully detailed.
    """

    name = "compressed-replay"

    def __init__(self, lead: int = 3, trail: int = 3, chunk: int = 8,
                 min_body: int = 32, min_repeat: int = 16,
                 chunk_cap: int | None = None,
                 chunk_growth: float = 1.5):
        if lead < 1 or trail < 1:
            raise BackendError(
                f"need lead >= 1 and trail >= 1, got lead={lead} "
                f"trail={trail}")
        if chunk < 2 or min_body < 1:
            raise BackendError(
                f"need chunk >= 2 and min_body >= 1, got chunk={chunk} "
                f"min_body={min_body}")
        if min_repeat <= lead + trail:
            raise BackendError(
                f"min_repeat ({min_repeat}) must exceed lead + trail")
        if chunk_cap is not None and chunk_cap < chunk:
            raise BackendError(
                f"chunk_cap ({chunk_cap}) must be >= chunk ({chunk})")
        if chunk_growth <= 1.0:
            raise BackendError(
                f"chunk_growth ({chunk_growth}) must exceed 1.0")
        self.lead = lead
        self.trail = trail
        self.chunk = chunk
        self.min_body = min_body
        self.min_repeat = min_repeat
        #: Largest replayed chunk the geometric growth may reach.  The
        #: initial chunk must stay small — the cache-warming transient
        #: right after the lead needs densely-spaced probes or its
        #: excess misses get priced at the wrong marginal cost — but
        #: once the loop settles, probe cost is flat and chunks can be
        #: huge.  The default cap (8 x chunk) is conservative; the
        #: batch-replay subclass raises it, since its replayed middles
        #: are nearly free.
        self.chunk_cap = 8 * chunk if chunk_cap is None else chunk_cap
        #: Geometric growth factor of successive chunks.  Faster growth
        #: means fewer probes per loop entry — worthwhile when replay is
        #: cheap relative to a timed probe (batch-replay), wasteful when
        #: it is not.
        self.chunk_growth = chunk_growth
        #: Per-loop-node carry of the settled chunk size across entries
        #: (``{id(loop): (loop, chunk)}``).  A loop nested under an
        #: outer loop is re-entered once per timed outer iteration with
        #: its steady-state behaviour unchanged, so restarting the
        #: growth schedule from ``chunk`` every entry would re-pay the
        #: dense early probes for nothing.  Populated only when
        #: ``chunk_carry`` is set (the batch-replay default).
        self.chunk_carry = False
        self._chunk_start: dict[int, tuple] = {}

    def run(self, proc, trace) -> BackendResult:
        timed = self._time_nodes(proc, trace.nodes)
        stats = proc.stats()
        return self.record(stats, timed, trace.dynamic_length)

    # ------------------------------------------------------------------
    def _time_nodes(self, proc, nodes) -> int:
        """Time a node sequence in detail (compressing steady loops);
        returns how many instructions received detailed timing."""
        timed = 0
        handlers = proc._handlers
        for node in nodes:
            kind = type(node)
            if kind is Block:
                for instr in node.instrs:
                    handlers[instr.op](instr)
                timed += len(node.instrs)
            elif kind is Loop:
                timed += self._time_loop(proc, node)
            else:
                for body in node.iterations():
                    timed += self._time_nodes(proc, body)
        return timed

    def _detailed_loop(self, proc, loop) -> int:
        timed = 0
        for _ in range(loop.repeat):
            timed += self._time_nodes(proc, loop.body)
        return timed

    def _time_loop(self, proc, loop) -> int:
        if (not loop.steady or loop.repeat < self.min_repeat
                or loop.body_length < self.min_body):
            return self._detailed_loop(proc, loop)
        body = loop.body

        # ---- lead: the true (cold) start-up cost, kept verbatim; the
        # post-first iterations double as the high-miss contrast sample
        timed = 0
        late_cycles = 0.0
        late_misses = 0.0
        for index in range(self.lead):
            c0, m0 = proc.cycles, proc.hierarchy.l2.misses
            timed += self._time_nodes(proc, body)
            if index > 0:
                late_cycles += proc.cycles - c0
                late_misses += proc.hierarchy.l2.misses - m0
        if self.lead > 1:
            late_cycles /= self.lead - 1
            late_misses /= self.lead - 1

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
        remaining = loop.repeat - self.lead
        chunk = float(self.chunk)
        if self.chunk_carry:
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
        while remaining > self.trail + 1:
            n = min(int(chunk), remaining - self.trail - 1)
            chunk = min(chunk * self.chunk_growth, float(self.chunk_cap))
            clocks = proc.hierarchy.clock_state()
            m0, r0 = l2.misses, dram.row_misses
            self._replay_nodes(proc, body, n, proc.cycles)
            chunks.append((n, l2.misses - m0, dram.row_misses - r0))
            proc.hierarchy.restore_clock_state(clocks)
            # probe: a couple of timed iterations, sampled individually
            probe_len = min(2, remaining - n - self.trail)
            for _ in range(probe_len):
                c0, m0, r0 = proc.cycles, l2.misses, dram.row_misses
                timed += self._time_nodes(proc, body)
                samples.append((proc.cycles - c0, dram.row_misses - r0))
                probe_misses += l2.misses - m0
            remaining -= n + probe_len
            replayed_total += n
        if self.chunk_carry and replayed_total:
            self._chunk_start[id(loop)] = (loop, chunk)

        # ---- trail: detailed to the end; its window also yields the
        # exact per-iteration instruction mix, and its iterations join
        # the probe pool (they are steady-state samples like any probe)
        before = proc.counter_snapshot()
        trail_done = 0
        while remaining > 0:
            c0, m0, r0 = proc.cycles, l2.misses, dram.row_misses
            timed += self._time_nodes(proc, body)
            samples.append((proc.cycles - c0, dram.row_misses - r0))
            probe_misses += l2.misses - m0
            remaining -= 1
            trail_done += 1
        after = proc.counter_snapshot()
        counts = {key: (after[key] - before[key]) // trail_done
                  for key in proc.counter_keys()}

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
        proc.charge(counts, replayed_total, pending_shift)
        return timed

    def _replay_nodes(self, proc, nodes, repeat: int,
                      at: float | None = None) -> None:
        """Execute ``repeat`` iterations of ``nodes`` without timing.

        Every instruction runs through the functional core; memory
        instructions additionally probe the hierarchy at a frozen
        timestamp so cache contents and access statistics stay exact.
        ``at`` is that frozen timestamp; each replay entry point takes
        it explicitly (defaulting to the clock at entry) and passes it
        down through nested loops, so sibling nodes after a recursion
        never probe at a timestamp staler than their caller's.
        """
        core = proc.core
        execute = core.execute
        hierarchy = proc.hierarchy
        vector_access = hierarchy.vector_access
        scalar_access = hierarchy.scalar_access
        xv = core.xrf.values
        if at is None:
            at = proc.cycles
        for _ in range(repeat):
            for node in nodes:
                if type(node) is Block:
                    for instr in node.instrs:
                        access = _ACCESSES.get(instr.op)
                        if access is not None:
                            vector, write, size = access
                            if vector:
                                vector_access(xv[instr.rs1], 4 * core.vl,
                                              at, write)
                            else:
                                scalar_access(xv[instr.rs1] + instr.imm,
                                              size, at, write)
                        execute(instr)
                else:
                    self._replay_nodes(proc, node.body, node.repeat, at)
