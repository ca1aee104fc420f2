"""The decoupled vector processor model (timing over a functional core).

This is the library's substitute for the paper's Gem5 setup (model
``1bDV`` of big.VLITTLE [24]): an out-of-order superscalar scalar core
driving a decoupled, in-order vector engine that talks to the shared L2
directly.

The simulator is **trace-driven**: it consumes the dynamic instruction
stream (either emitted by a kernel builder or fetched by the ISS in
:mod:`repro.arch.interpreter`) and, for each instruction, both

* executes it functionally — the :class:`~repro.arch.functional.
  FunctionalCore` keeps registers and memory bit-exact, so every kernel
  result can be checked against numpy; and
* assigns it timing, through the resources below.

**Scalar core.**  The model does not rename registers or replay the
issue queue; it captures the two front-end resources that throttle the
kernels of this paper:

* *dispatch bandwidth* — at most ``issue_width`` instructions enter the
  window per cycle;
* *ROB occupancy* — instruction *k* cannot dispatch until instruction
  *k - rob_entries* has committed, and commit is in order.

Out-of-order execution itself is modelled dataflow-style: a scalar
instruction begins when its operands are ready, regardless of its
dispatch order relative to its neighbours.

**Vector engine.**  The scalar core posts vector instructions in program
order into the vector instruction queue (VIQ, ``queue_depth`` entries)
once their scalar operand is ready; a vector instruction commits in the
ROB when it is posted.  The engine issues them in order, one per cycle,
``post_latency`` cycles after posting and once their vector operands
are ready (whole-register dependency tracking).  Vector loads and
stores also take an entry of the load or store queue (the LSQ toward
the L2, ``load_queues`` + ``store_queues``) and hold the issue port for
several cycles.  This structure is what exposes memory latency in the
baseline kernel: an instruction that cannot issue (a ``vfmacc`` waiting
on a ``vle32`` of a row of B) blocks every younger vector instruction,
whereas ``vindexmac`` never waits on memory.  A vector-to-scalar move
pays the round trip ``v2s_latency`` back to the scalar core, the cost
``vindexmac`` exists to avoid.

**Memory.**  Scalar accesses go through the L1D, vector accesses
straight to the banked L2, both backed by DRAM
(:mod:`repro.arch.hierarchy`).  A vector load waits for older vector
stores to the same lines.

Each timing class is one entry of :meth:`DecoupledProcessor.
_timing_classes`, and two builders turn each opcode's
:data:`~repro.isa.instructions.OPCODES` row and its class entry into a
handler: one for the scalar side and one for the vector side.
Every handler computes *when* an instruction happens and delegates
*what* it does to the functional core, so timing backends
(:mod:`repro.arch.timing`) can run the same instructions with or
without the cycle model.

The model is cycle-approximate, not cycle-accurate: it reproduces the
relative behaviour of instruction streams on a fixed microarchitecture,
which is what the paper's speedup and memory-traffic results measure.
Every clock is non-negative, so a clock compared against ``0.0`` is
never raised by the comparison.
"""

from __future__ import annotations

from collections import deque

from repro.arch.config import ProcessorConfig
from repro.arch.functional import FunctionalCore
from repro.arch.hierarchy import MemoryHierarchy
from repro.arch.memory import FlatMemory
from repro.arch.stats import ExecutionStats
from repro.isa.instructions import OPCODES, VECTOR_CLASSES, Instr

#: Hierarchy counters mirrored into :meth:`DecoupledProcessor.
#: counter_snapshot` — (snapshot key, component attr, counter attr).
_HIERARCHY_COUNTERS = (
    ("l1d_hits", "l1d", "hits"),
    ("l1d_misses", "l1d", "misses"),
    ("l2_hits", "l2", "hits"),
    ("l2_misses", "l2", "misses"),
    ("l2_writebacks", "l2", "writebacks"),
    ("dram_reads", "dram", "reads"),
    ("dram_writes", "dram", "writes"),
    ("dram_row_hits", "dram", "row_hits"),
    ("dram_row_misses", "dram", "row_misses"),
)


class DecoupledProcessor:
    """Scalar core + decoupled vector engine + memory hierarchy.

    Architectural state (registers, memory, ``vl``) lives in the
    :class:`FunctionalCore` exposed as :attr:`core`; this class owns
    only timing state and statistics (see the module docstring for the
    model).
    """

    def __init__(self, config: ProcessorConfig | None = None,
                 memory: FlatMemory | None = None,
                 core: FunctionalCore | None = None):
        if core is None:
            core = FunctionalCore(config, memory)
        self.core = core
        self.config = core.config
        self.mem = core.mem
        self.xrf = core.xrf
        self.frf = core.frf
        self.vrf = core.vrf
        self.hierarchy = MemoryHierarchy(self.config)
        # per-register readiness (cycle when the value is available)
        self.x_ready = [0.0] * 32
        self.f_ready = [0.0] * 32
        self.v_ready = [0.0] * self.config.vector.num_vregs
        # dispatch: the current cycle, the slots used in it and the last
        # commit
        scfg, vcfg = self.config.scalar, self.config.vector
        self._cycle = 0.0
        self._used = 0
        self._last_commit = 0.0
        # vector engine: the last post and issue
        self._last_post = 0.0
        self._last_issue = 0.0
        # Fixed-size windows, oldest first: commit per ROB entry, issue
        # per VIQ entry, completion per load- and store-queue entry.  A
        # handler pops the oldest entry and waits for it, then appends
        # its own.  They start full of cycle-0 entries, which never
        # delay anything because no clock is negative.
        self._rob = deque([0.0] * scfg.rob_entries)
        self._viq = deque([0.0] * vcfg.queue_depth)
        self._lq = deque([0.0] * vcfg.load_queues)
        self._sq = deque([0.0] * vcfg.store_queues)
        #: completion of the last vector store per L2 line
        self._line_store_done: dict[int, float] = {}
        self._end = 0.0
        # Instruction-class counters: each handler tallies its own
        # instructions, and the classes are summed from the tallies on
        # demand; ``_charged`` holds the counts of replayed iterations.
        self._charged = dict.fromkeys((
            "instructions", "scalar", "vector", "vloads", "vstores",
            "sloads", "sstores", "v2s", "vindexmac", "vfmacc", "slides",
            "branches"), 0)
        self._tally: list[int] = []
        self._tallied: list[tuple[str, ...]] = []
        self._handlers = self._build_handlers()

    # ==================================================================
    # public API
    # ==================================================================
    @property
    def vl(self) -> int:
        """Current vector length (architectural state, lives in the core)."""
        return self.core.vl

    @vl.setter
    def vl(self, value: int) -> None:
        self.core.vl = value

    def run(self, stream) -> None:
        """Execute a dynamic instruction stream (trace mode)."""
        handlers = self._handlers
        for instr in stream:
            handlers[instr.op](instr)

    def step(self, instr: Instr):
        """Execute one instruction; returns control-flow info (see ISS)."""
        return self._handlers[instr.op](instr)

    def stats(self) -> ExecutionStats:
        """Snapshot of all statistics up to now."""
        c = self._class_counts()
        h = self.hierarchy
        return ExecutionStats(
            cycles=self._end,
            instructions=c["instructions"],
            scalar_instructions=c["scalar"],
            vector_instructions=c["vector"],
            vector_loads=c["vloads"],
            vector_stores=c["vstores"],
            scalar_loads=c["sloads"],
            scalar_stores=c["sstores"],
            vector_to_scalar_moves=c["v2s"],
            vindexmac_count=c["vindexmac"],
            vfmacc_count=c["vfmacc"],
            slide_count=c["slides"],
            branches=c["branches"],
            l1d_hits=h.l1d.hits, l1d_misses=h.l1d.misses,
            l2_hits=h.l2.hits, l2_misses=h.l2.misses,
            l2_writebacks=h.l2.writebacks,
            dram_reads=h.dram.reads, dram_writes=h.dram.writes,
            dram_row_hits=h.dram.row_hits, dram_row_misses=h.dram.row_misses,
        )

    @property
    def cycles(self) -> float:
        return self._end

    # ==================================================================
    # extrapolation hooks (used by the batch-replay backend)
    # ==================================================================
    def counter_snapshot(self) -> dict[str, float]:
        """All cumulative counters plus the current cycle, as one dict."""
        snap = self._class_counts()
        snap["cycles"] = self._end
        h = self.hierarchy
        for key, part, attr in _HIERARCHY_COUNTERS:
            snap[key] = getattr(getattr(h, part), attr)
        return snap

    def counter_keys(self):
        """Keys of the instruction-class counters (no memory system)."""
        return tuple(self._charged)

    def charge(self, counts_delta: dict, repeats: int,
               cycle_shift: float) -> None:
        """Add ``repeats`` copies of a known per-iteration instruction
        mix and advance all clocks by ``cycle_shift`` cycles (the
        batch-replay backend's accounting for replayed loop iterations
        whose memory statistics were already simulated exactly)."""
        for key, delta in counts_delta.items():
            self._charged[key] += delta * repeats
        self.shift_time(cycle_shift)

    def _class_counts(self) -> dict[str, int]:
        counts = dict(self._charged)
        for counters, n in zip(self._tallied, self._tally):
            if n:
                for key in counters:
                    counts[key] += n
        return counts

    def shift_time(self, dt: float) -> None:
        """Advance every timing clock by ``dt`` cycles.

        Handlers hold the readiness lists, the queues and the line-store
        map, so all of them shift in place.
        """
        if dt <= 0:
            return
        self._end += dt
        for ready in (self.x_ready, self.f_ready, self.v_ready):
            for i, t in enumerate(ready):
                ready[i] = t + dt
        store_done = self._line_store_done
        for line, t in store_done.items():
            store_done[line] = t + dt
        self._cycle += dt
        self._last_commit += dt
        self._last_post += dt
        self._last_issue += dt
        for queue in (self._rob, self._viq, self._lq, self._sq):
            shifted = [t + dt for t in queue]
            queue.clear()
            queue.extend(shifted)
        self.hierarchy.shift(dt)

    # ==================================================================
    # the timing table
    # ==================================================================
    def _timing_classes(self) -> dict:
        """One entry per timing class: ``(latency, memory access,
        counters)``.  An opcode's sources and destination come from the
        operands of its :data:`~repro.isa.instructions.OPCODES` row.

        A scalar memory access starts ``latency`` cycles after the
        operands are ready; a load completes when its data arrives, a
        store is posted through the store buffer.  A vector latency
        counts from issue, or for a load from its last beat; a scalar
        destination adds the ``v2s_latency`` round trip.
        """
        scfg, vcfg = self.config.scalar, self.config.vector
        mac = vcfg.mac_latency
        # Section III-B: the indexed VRF read reuses an existing read
        # port behind a mux, so vindexmac times like vfmacc.vf plus the
        # configurable extra latency (0 by default) — and, crucially,
        # no memory access and no vector-to-scalar round trip.
        indexmac = mac + vcfg.indexmac_extra_latency
        # log2(lanes) combining levels behind the MAC pipeline
        reduction = mac + max(1, vcfg.lanes.bit_length() - 1)
        return {
            # scalar core; jal's rd receives pc+4, patched by the ISS
            "alu": (scfg.int_alu_latency, None, ("scalar",)),
            "mul": (scfg.mul_latency, None, ("scalar",)),
            "load": (1, "load", ("scalar", "sloads")),
            "store": (1, "store", ("scalar", "sstores")),
            "branch": (scfg.branch_latency, None, ("scalar", "branches")),
            "jump": (1, None, ("scalar", "branches")),
            "vsetvli": (1, None, ("vector",)),
            # vector engine
            "vload": (vcfg.mem_overhead_latency, "load",
                      ("vector", "vloads")),
            "vstore": (1, "store", ("vector", "vstores")),
            "valu": (vcfg.alu_latency, None, ("vector",)),
            "vmac": (mac, None, ("vector",)),
            "vfmacc": (mac, None, ("vector", "vfmacc")),
            "vred": (reduction, None, ("vector",)),
            "vslide": (vcfg.slide_latency, None, ("vector", "slides")),
            "vmove": (vcfg.move_latency, None, ("vector",)),
            "v2s": (vcfg.move_latency, None, ("vector", "v2s")),
            "vindexmac": (indexmac, None, ("vector", "vindexmac")),
        }

    def _build_handlers(self):
        # One builder call per timing class and operand layout: the
        # opcodes of a row share its closure cells, so a processor
        # allocates one set per row, not one per opcode.
        rows = {}
        for spec in OPCODES.values():
            layout = (spec.timing, frozenset(spec.regs.items()), spec.dest)
            rows.setdefault(layout, []).append(spec)
        files = {"x": self.x_ready, "f": self.f_ready, "v": self.v_ready}
        classes = self._timing_classes()
        h = {}
        for specs in rows.values():
            timing = specs[0].timing
            latency, mem, counters = classes[timing]
            self._tally.append(0)
            self._tallied.append(("instructions",) + counters)
            build = self._vector_handlers if timing in VECTOR_CLASSES \
                else self._scalar_handlers
            h.update(build(specs, files, latency, mem, len(self._tally) - 1))
        return h

    # ==================================================================
    # the two handler builders
    # ==================================================================
    def _scalar_handlers(self, specs, files, latency, mem, row):
        """One row's handlers (opcodes of one scalar timing class and
        operand layout): dispatch, wait for the source registers,
        execute ``latency`` cycles (or access memory), write the
        destination and commit in order.  ``row`` is the row's slot in
        ``_tally``."""
        tally = self._tally
        rob = self._rob
        width = self.config.scalar.issue_width
        regs, dest = specs[0].regs, specs[0].dest
        src1 = files[regs["rs1"]] if "rs1" in regs else None
        src2 = files[regs["rs2"]] if "rs2" in regs else None
        dest = files[regs["rd"]] if dest == "rd" else None
        always_write = dest is self.f_ready  # x0 is hardwired
        xv = self.xrf.values
        access = self.hierarchy.scalar_access
        is_write = mem == "store"

        def handler_for(fexec, size):
            def handler(instr: Instr):
                tally[row] += 1
                # dispatch: a slot of this cycle and a ROB entry
                ready = self._cycle
                if self._used >= width:
                    ready += 1
                t = rob.popleft()
                if t > ready:
                    ready = t
                if ready > self._cycle:
                    self._cycle = ready
                    self._used = 1
                else:
                    self._used += 1
                if src1 is not None:
                    t = src1[instr.rs1]
                    if t > ready:
                        ready = t
                    if src2 is not None:
                        t = src2[instr.rs2]
                        if t > ready:
                            ready = t
                complete = ready + latency
                if mem is not None:
                    done = access(xv[instr.rs1] + instr.imm, size, complete,
                                  is_write)
                    if not is_write:
                        complete = done
                outcome = fexec(instr)
                if dest is not None and (instr.rd or always_write):
                    dest[instr.rd] = complete
                # in-order commit
                if complete > self._last_commit:
                    self._last_commit = complete
                rob.append(self._last_commit)
                if complete > self._end:
                    self._end = complete
                return outcome
            return handler

        fexec = self.core.handlers
        return {spec.op: handler_for(fexec[spec.op], spec.size)
                for spec in specs}

    def _vector_handlers(self, specs, files, latency, mem, row):
        """One row's handlers (opcodes of one vector timing class and
        operand layout): dispatch and post to the VIQ once the scalar
        operand is ready (committing at post), issue in order once the
        vector sources and a load/store-queue slot are ready, then
        complete.  Every vector register the form names is a source
        (``vd`` for the write-after-write order), and ``vindexmac`` also
        waits for its indexed source ``x[rs1] & 0x1f``."""
        tally = self._tally
        rob, viq = self._rob, self._viq
        scfg, vcfg = self.config.scalar, self.config.vector
        width, post_latency = scfg.issue_width, vcfg.post_latency
        v_ready = self.v_ready
        regs, dest = specs[0].regs, specs[0].dest
        scalar_file = files[regs["rs1"]] if "rs1" in regs else None
        reads_vs1 = "vs1" in regs
        reads_vs2 = "vs2" in regs
        reads_vd = "vd" in regs
        indexed = specs[0].timing == "vindexmac"
        dest = files[regs[dest]] if dest else None
        always_write = dest is self.f_ready  # x0 is hardwired
        to_scalar = dest is not None and dest is not v_ready
        v2s = vcfg.v2s_latency
        if mem == "load":
            slots, hold = self._lq, vcfg.vload_issue_occupancy - 1
        elif mem == "store":
            slots, hold = self._sq, vcfg.vstore_issue_occupancy - 1
        else:
            slots, hold = None, 0
        xv = self.xrf.values
        core = self.core
        access = self.hierarchy.vector_access
        agen = vcfg.agen_latency
        line = self.config.l2.line_bytes
        store_done = self._line_store_done

        def handler_for(fexec):
            def handler(instr: Instr):
                tally[row] += 1
                # dispatch: a slot of this cycle and a ROB entry
                post = self._cycle
                if self._used >= width:
                    post += 1
                t = rob.popleft()
                if t > post:
                    post = t
                if post > self._cycle:
                    self._cycle = post
                    self._used = 1
                else:
                    self._used += 1
                # post to the VIQ in order, once the scalar operand is
                # ready, and commit
                if scalar_file is not None:
                    t = scalar_file[instr.rs1]
                    if t > post:
                        post = t
                t = viq.popleft()
                if t > post:
                    post = t
                if self._last_post > post:
                    post = self._last_post
                self._last_post = post
                if post > self._last_commit:
                    self._last_commit = post
                rob.append(self._last_commit)
                # vector operands and a load/store-queue slot
                operands = 0.0
                if reads_vs1:
                    operands = v_ready[instr.vs1]
                if reads_vs2:
                    t = v_ready[instr.vs2]
                    if t > operands:
                        operands = t
                if reads_vd:
                    t = v_ready[instr.vd]
                    if t > operands:
                        operands = t
                if indexed:
                    t = v_ready[xv[instr.rs1] & 0x1F]
                    if t > operands:
                        operands = t
                if slots is not None:
                    t = slots.popleft()
                    if t > operands:
                        operands = t
                # in-order issue, holding the port ``hold`` extra cycles
                issue = post + post_latency
                if operands > issue:
                    issue = operands
                t = self._last_issue + 1
                if t > issue:
                    issue = t
                self._last_issue = issue + hold
                viq.append(issue)
                if mem is None:
                    complete = issue + latency
                else:
                    addr = xv[instr.rs1]
                    nbytes = 4 * core.vl
                    lines = range(addr // line,
                                  (addr + nbytes - 1) // line + 1)
                    if mem == "load":
                        # ordered after older vector stores to its lines
                        start = issue + agen
                        if store_done:
                            for ln in lines:
                                t = store_done.get(ln)
                                if t is not None and t > start:
                                    start = t
                        complete = access(addr, nbytes, start, False) \
                            + latency
                        slots.append(complete)
                    else:
                        done = access(addr, nbytes, issue + agen, True)
                        slots.append(done)
                        for ln in lines:
                            if done > store_done.get(ln, 0.0):
                                store_done[ln] = done
                        if done > self._end:
                            self._end = done
                        complete = issue + latency  # posted
                fexec(instr)
                if dest is v_ready:
                    v_ready[instr.vd] = complete
                elif to_scalar:
                    complete = complete + v2s
                    if instr.rd or always_write:
                        dest[instr.rd] = complete
                if complete > self._end:
                    self._end = complete
                return None
            return handler

        fexec = self.core.handlers
        return {spec.op: handler_for(fexec[spec.op]) for spec in specs}
