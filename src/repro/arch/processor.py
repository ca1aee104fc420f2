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

**Compiled code.**  Each timing class is one entry of :data:`_CLASSES`
(its memory access), one of :data:`~repro.arch.stats.CLASS_COUNTERS`
(the counters it tallies) and one of the two source templates below
(:func:`_scalar_source`, :func:`_vector_source`); each opcode's
:data:`~repro.isa.instructions.OPCODES` row picks its parts.  Every
instruction computes *when* it happens and then *what* it does: the
ops of :data:`repro.arch.functional.INLINE` run their text inline (the
hot data moves copy through memoryviews, arithmetic runs on NumPy row
views), branches and jumps change no state in trace mode and run
nothing, and every other op calls its :class:`FunctionalCore` handler.
A vector load or store runs the L2's access text
(:data:`repro.arch.cache.ACCESS`) inline too, once for each line it
touches: the L2's sets, bank clocks and geometry are bound in the
prologue and its hit, miss and write-back counts kept as local deltas,
added to the cache at exit, so an L2 hit makes no call.  A scalar
access calls the hierarchy's ``scalar_access``.
The same templates render four kinds of function:

* one handler per opcode, ``handler(proc, instr)``, behind :meth:`step`
  and :meth:`run` (the ISS and the per-opcode pins), compiled and
  bound when first met, since trace mode never calls them;
* one function per straight-line :class:`~repro.isa.trace.Block`
  shape — its opcodes plus register fields — behind :meth:`run_block`,
  which the timing backends feed (a block longer than
  :data:`BLOCK_PART` instructions runs as several).  Register numbers
  become constants, the clocks live in locals for the whole block,
  and class tallies are added once per block.  Immediates are read
  from the block's instructions, so blocks that differ only in
  immediates share their code; a block bound from a tile-loop
  template shares the template's instructions and carries the
  immediates of its pointer set-up itself (``block.imms``), where its
  function reads them.  A *MAC
  run* — k >= 2 consecutive ``vfmacc.vf`` or ``vindexmac.vx`` whose
  ``vd`` and ``vs2`` each step by one, the two ranges disjoint, as in
  every N:M kernel's unroll group (:func:`_runs`) — times each member
  as alone, then runs the run's data ops once, after its last member,
  as one multiply and one add over k x vl views of the register file
  (:data:`~repro.arch.functional.RUNS`).  The views are bound in the
  prologue and re-derived after a ``vsetvli``.  Where ``vl`` is not a
  multiple of :data:`~repro.arch.functional.RUN_VL`, which NumPy's
  2-D and 1-D loops can disagree on for NaN payloads, the members run
  their own texts, as a lone MAC always does;
* one function per tight loop, behind :meth:`run_loop`: the body of a
  loop that is one block of at most :data:`BLOCK_PART` instructions,
  run ``repeat`` times with the clocks and bindings in locals and the
  class tallies added once, ``repeat`` times over.  It times every
  instruction as running the block ``repeat`` times would, bit for
  bit;
* the replay variant of each block and tight loop, behind
  :meth:`replay_block` and :meth:`replay_loop`, which runs the loop
  iterations ``batch-replay`` does not time: each memory op probes the
  hierarchy at a frozen timestamp ``at`` (a vector access again runs
  the L2's text inline), then the semantics run, MAC runs as when
  timed; the class tallies are added as when timed, and no clock or
  queue moves.

**Float latencies.**  Every clock is a ``float`` (DRAM's line
interval is fractional), and CPython specialises an addition only when
both operands have one type: a float clock plus an ``int`` latency
runs the generic path, which cost 36.8 ns against 13.6 ns for a float
one on the reference host, and a vector instruction adds three to
eight latencies.  So every latency the compiled code adds to a clock is
bound as a ``float`` (:func:`_constants`, and the caches' and DRAM's
own), and the templates add ``1.0``, not ``1``.  A config latency is
an ``int`` of at most 2**32, which converts exactly, so no result
moves.

Config values never enter the source, so each piece of code is
compiled once and bound to every processor's own namespace, where the
latencies and widths are names (a replay function reads none, so one
function serves every processor).  A block's functions are kept in its
:class:`~repro.isa.trace.BlockCode`, which every block bound from one
tile-loop template shares, so a template's shape is derived once and
each of its functions built once per processor however many tiles it
has; the code itself is kept in a bounded module-level cache
(:data:`BLOCK_CACHE_SIZE`).  Every function takes the processor as an
argument and no holder refers to one, so a finished processor is freed
by reference counting.

The model is cycle-approximate, not cycle-accurate: it reproduces the
relative behaviour of instruction streams on a fixed microarchitecture,
which is what the paper's speedup and memory-traffic results measure.
Every clock is non-negative, so a clock compared against ``0.0`` is
never raised by the comparison.
"""

from __future__ import annotations

import functools
import operator
from collections import deque
from textwrap import indent
from types import FunctionType

from repro.arch import cache
from repro.arch.config import ProcessorConfig
from repro.arch.functional import (
    BINDINGS,
    GLOBALS,
    INLINE,
    RUNS,
    VL_BINDINGS,
    FunctionalCore,
    bind,
    names,
    run_source,
)
from repro.arch.hierarchy import MemoryHierarchy
from repro.arch.memory import FlatMemory
from repro.arch.stats import CLASS_COUNTERS, COUNTERS, ExecutionStats
from repro.isa.instructions import BRANCH_OPS, OPCODES, VECTOR_CLASSES, Instr

#: Compiled block parts kept; the least recently used goes first.
BLOCK_CACHE_SIZE = 256
#: Instructions per compiled function: a longer block runs as a run of
#: them.  Parsing a function's source takes about 80 KB per instruction
#: while it lasts, and this bounds that peak.
BLOCK_PART = 32

# ======================================================================
# the timing table
# ======================================================================
#: One entry per timing class: its memory access.  Its latency is
#: ``LAT_<class>`` (see :func:`_constants`), its counters and tally slot
#: come from :data:`~repro.arch.stats.CLASS_COUNTERS`, and an opcode's
#: sources and destination from the operands of its :data:`~repro.isa.
#: instructions.OPCODES` row.
#:
#: A scalar memory access starts ``latency`` cycles after the operands
#: are ready; a load completes when its data arrives, a store is posted
#: through the store buffer.  A vector latency counts from issue, or for
#: a load from its last beat; a scalar destination adds the
#: ``v2s_latency`` round trip.
_CLASSES = {
    # scalar core; jal's rd receives pc+4, patched by the ISS
    "alu": None, "mul": None, "load": "load", "store": "store",
    "branch": None, "jump": None, "vsetvli": None,
    # vector engine
    "vload": "load", "vstore": "store", "valu": None, "vmac": None,
    "vfmacc": None, "vred": None, "vslide": None, "vmove": None,
    "v2s": None, "vindexmac": None,
}
_SLOTS = {name: slot for slot, name in enumerate(CLASS_COUNTERS)}
#: Counters of each tally slot.
_TALLIED = tuple(("instructions",) + counters
                 for counters in CLASS_COUNTERS.values())


def _constants(config: ProcessorConfig) -> dict:
    """The timing constants the compiled code reads, by name: each
    class's latency ``LAT_<class>``, and the widths and delays of the
    dispatch, issue and memory paths.  Each but the dispatch width
    ``WIDTH`` is added to clocks, so each is a ``float`` (see the
    module docstring)."""
    scfg, vcfg = config.scalar, config.vector
    mac = vcfg.mac_latency
    delays = {
        "LAT_alu": scfg.int_alu_latency,
        "LAT_mul": scfg.mul_latency,
        "LAT_load": 1,
        "LAT_store": 1,
        "LAT_branch": scfg.branch_latency,
        "LAT_jump": 1,
        "LAT_vsetvli": 1,
        "LAT_vload": vcfg.mem_overhead_latency,
        "LAT_vstore": 1,
        "LAT_valu": vcfg.alu_latency,
        "LAT_vmac": mac,
        "LAT_vfmacc": mac,
        # log2(lanes) combining levels behind the MAC pipeline
        "LAT_vred": mac + max(1, vcfg.lanes.bit_length() - 1),
        "LAT_vslide": vcfg.slide_latency,
        "LAT_vmove": vcfg.move_latency,
        "LAT_v2s": vcfg.move_latency,
        # Section III-B: the indexed VRF read reuses an existing read
        # port behind a mux, so vindexmac times like vfmacc.vf plus the
        # configurable extra latency (0 by default) — and, crucially,
        # no memory access and no vector-to-scalar round trip.
        "LAT_vindexmac": mac + vcfg.indexmac_extra_latency,
        "POST_LATENCY": vcfg.post_latency,
        "V2S": vcfg.v2s_latency,
        "AGEN": vcfg.agen_latency,
        # cycles a vector load or store holds the issue port beyond one
        "HOLD_load": vcfg.vload_issue_occupancy - 1,
        "HOLD_store": vcfg.vstore_issue_occupancy - 1,
    }
    return {"WIDTH": scfg.issue_width,
            **{name: float(delay) for name, delay in delays.items()}}


# ======================================================================
# the two timing templates
# ======================================================================
_DISPATCH = """\
{t} = cycle
if used >= WIDTH:
    {t} += 1.0
t = rob_popleft()
if t > {t}:
    {t} = t
if {t} > cycle:
    cycle = {t}
    used = 1
else:
    used += 1"""


#: The register fields of :class:`~repro.isa.instructions.Instr`.
_FIELDS = ("rd", "rs1", "rs2", "vd", "vs1", "vs2")


def _wait(clock: str, source: str) -> str:
    return f"t = {source}\nif t > {clock}:\n    {clock} = t"


def _scalar_source(spec, reg, imm, semantics) -> list:
    """One scalar-class instruction: dispatch, wait for the source
    registers, execute ``latency`` cycles (or access memory), write the
    destination and commit in order.  ``reg(field)`` and ``imm`` are
    the text of a register field and of the immediate; ``semantics``
    is the instruction's functional part."""
    regs = spec.regs
    memory = _CLASSES[spec.timing]
    lines = [_DISPATCH.format(t="ready")]
    if "rs1" in regs:
        lines.append(_wait("ready", f"{regs['rs1']}_ready[{reg('rs1')}]"))
        if "rs2" in regs:
            lines.append(_wait("ready",
                               f"{regs['rs2']}_ready[{reg('rs2')}]"))
    lines.append(f"complete = ready + LAT_{spec.timing}")
    if memory is not None:
        write = memory == "store"
        access = (f"scalar_access(xv[{reg('rs1')}] + {imm}, {spec.size}, "
                  f"complete, {write})")
        lines.append(access if write else f"complete = {access}")
    lines.extend(semantics)
    if spec.dest == "rd":
        file = regs["rd"]
        written = "True" if file == "f" else reg("rd")  # x0 is hardwired
        lines.append(f"if {written}:\n    {file}_ready[{reg('rd')}] = "
                     "complete")
    lines.append("if complete > last_commit:\n    last_commit = complete\n"
                 "rob_append(last_commit)\n"
                 "if complete > end:\n    end = complete")
    return lines


def _each_line(text: str) -> str:
    """``text`` run for each L2 line ``line`` from ``first`` to
    ``last`` of a vector access.  The lines are walked by a ``while``
    loop: a ``for`` over a ``range``, built for every access, cost
    about 5 % of the Fig. 4 jobs' CPU."""
    return (f"line = first\nwhile True:\n{indent(text, '    ')}\n"
            "    if line >= last:\n        break\n    line += 1")


def _l2_lines(at: str, write: bool, done: str | None = None) -> str:
    """A vector access of the L2 lines ``first`` to ``last`` at cycle
    ``at``: the cache's :data:`~repro.arch.cache.ACCESS` text, run once
    per line, with the L2's counters as local deltas (see
    :data:`_COUNTS`).  With ``done``, the latest line's completion goes
    to it."""
    each = cache.ACCESS.format(at=at, write=write, done="beat", counts="l2_")
    if done:
        each += f"\nif beat > {done}:\n    {done} = beat"
    return (f"{done} = 0.0\n" if done else "") + _each_line(each)


def _vector_source(spec, reg, imm, semantics) -> list:
    """One vector-class instruction: dispatch and post to the VIQ once
    the scalar operand is ready (committing at post), issue in order
    once the vector sources and a load/store-queue slot are ready, then
    complete.  Every vector register the form names is a source (``vd``
    for the write-after-write order), and ``vindexmac`` also waits for
    its indexed source ``x[rs1] & 0x1f``.  Arguments as for
    :func:`_scalar_source`."""
    regs = spec.regs
    memory = _CLASSES[spec.timing]
    lines = [_DISPATCH.format(t="post")]
    # post to the VIQ in order, once the scalar operand is ready, and
    # commit
    if "rs1" in regs:
        lines.append(_wait("post", f"{regs['rs1']}_ready[{reg('rs1')}]"))
    lines.append(_wait("post", "viq_popleft()"))
    lines.append("if last_post > post:\n    post = last_post\n"
                 "last_post = post\n"
                 "if post > last_commit:\n    last_commit = post\n"
                 "rob_append(last_commit)")
    # vector operands, one wait per register (in a block two fields may
    # name one), and a load/store-queue slot; the first needs no
    # comparison, no clock being negative
    sources = list(dict.fromkeys(f"v_ready[{reg(field)}]" for field
                                 in ("vs1", "vs2", "vd") if field in regs))
    lines.append(f"operands = {sources[0]}")
    lines.extend(_wait("operands", source) for source in sources[1:])
    if spec.timing == "vindexmac":
        lines.append(_wait("operands", f"v_ready[xv[{reg('rs1')}] & 0x1F]"))
    queue = {"load": "lq", "store": "sq", None: None}[memory]
    if queue:
        lines.append(_wait("operands", f"{queue}_popleft()"))
    # in-order issue, holding the port HOLD_<access> extra cycles
    lines.append("issue = post + POST_LATENCY\n"
                 "if operands > issue:\n    issue = operands\n"
                 "t = last_issue + 1.0\n"
                 "if t > issue:\n    issue = t")
    lines.append(f"last_issue = issue + HOLD_{memory}" if memory
                 else "last_issue = issue")
    lines.append("viq_append(issue)")
    if memory is None:
        lines.append(f"complete = issue + LAT_{spec.timing}")
    else:
        lines.append(f"addr = xv[{reg('rs1')}]\n"
                     "first = addr // LINE\n"
                     "last = (addr + 4 * vl - 1) // LINE\n"
                     "start = issue + AGEN")
        if memory == "load":
            # ordered after older vector stores to its lines (a line
            # never stored to reads 0.0, no clock being negative)
            lines.append("if store_done:\n" + indent(_each_line(
                "t = store_done.get(line, 0.0)\n"
                "if t > start:\n    start = t"), "    "))
            lines.append(_l2_lines("start", False, "done"))
            lines.append("complete = done + LAT_vload\n"
                         "lq_append(complete)")
        else:
            lines.append(_l2_lines("start", True, "done"))
            lines.append("sq_append(done)")
            lines.append(_each_line("if done > store_done.get(line, 0.0):\n"
                                    "    store_done[line] = done"))
            lines.append("if done > end:\n    end = done\n"
                         "complete = issue + LAT_vstore  # posted")
    lines.extend(semantics)
    if spec.dest == "vd":
        lines.append(f"v_ready[{reg('vd')}] = complete")
    elif spec.dest == "rd":
        file = regs["rd"]
        written = "True" if file == "f" else reg("rd")  # x0 is hardwired
        lines.append(f"complete = complete + V2S\n"
                     f"if {written}:\n    {file}_ready[{reg('rd')}] = "
                     "complete")
    lines.append("if complete > end:\n    end = complete")
    return lines


def _semantics(spec, reg, imm, instr: str, outcome: bool) -> list:
    """The functional part of one instruction named ``instr``.  With
    ``outcome`` a branch or jump keeps its functional result in
    ``outcome`` (the ISS follows it); in a block it runs nothing."""
    if spec.op in INLINE:
        fields = {field: reg(field) for field in _FIELDS}
        return [INLINE[spec.op].format(imm=imm, **fields)]
    if spec.op in BRANCH_OPS:
        return [f"outcome = F_{spec.op.name}(core, {instr})"] \
            if outcome else []
    return [f"F_{spec.op.name}(core, {instr})"]


def _instruction_source(spec, reg, imm, semantics) -> list:
    """The lines of one timed instruction, running ``semantics`` (see
    :func:`_semantics`)."""
    source = _vector_source if spec.timing in VECTOR_CLASSES \
        else _scalar_source
    return source(spec, reg, imm, semantics)


def _replay_source(spec, reg, imm, semantics) -> list:
    """The lines of one replayed instruction: a memory op probes the
    hierarchy at the frozen timestamp ``at`` (a vector access runs the
    L2's access text inline, as a timed one does), then ``semantics``
    run.  No clock or queue moves."""
    lines = []
    memory = _CLASSES[spec.timing]
    if memory is not None:
        write = memory == "store"
        if spec.timing in VECTOR_CLASSES:
            lines.append(f"addr = xv[{reg('rs1')}]\n"
                         "first = addr // LINE\n"
                         "last = (addr + 4 * vl - 1) // LINE")
            lines.append(_l2_lines("at", write))
        else:
            lines.append(f"scalar_access(xv[{reg('rs1')}] + {imm}, "
                         f"{spec.size}, at, {write})")
    return lines + semantics


#: The timing state the compiled code reads: bindings from the
#: processor, then the clocks it keeps in locals (stored back at exit).
_STATE = {
    "x_ready": "proc.x_ready",
    "f_ready": "proc.f_ready",
    "v_ready": "proc.v_ready",
    "rob_popleft": "proc._rob.popleft",
    "rob_append": "proc._rob.append",
    "viq_popleft": "proc._viq.popleft",
    "viq_append": "proc._viq.append",
    "lq_popleft": "proc._lq.popleft",
    "lq_append": "proc._lq.append",
    "sq_popleft": "proc._sq.popleft",
    "sq_append": "proc._sq.append",
    "store_done": "proc._line_store_done",
    "scalar_access": "proc.hierarchy.scalar_access",
    "l2": "proc.hierarchy.l2",
    **cache.bindings("l2"),
    "tally": "proc._tally",
}
_CLOCKS = {name: f"proc._{name}" for name in (
    "cycle", "used", "last_commit", "last_post", "last_issue", "end")}
#: The L2 counters the inline access adds to: local deltas, from zero,
#: added to the cache's ``counts`` at exit (a scalar access may count in
#: between).
_COUNTS = {f"l2_{name}": f"counts.{name}" for name in cache.COUNTERS}


def _function_source(args: str, body: list, tail: str,
                     views: dict | None = None) -> str:
    """A function ``compiled`` running ``body`` (lines at indent 0)
    between the bindings it reads, the MAC runs' ``views`` among them,
    and the store of the clocks and counters it moved, then ``tail``."""
    views = views or {}
    text = "\n".join(body)
    used = names(text) | names(tail) | names(" ".join(views.values()))
    counts = [name for name in _COUNTS if name in used]
    if counts:
        used.add("counts")
    if used & BINDINGS.keys():
        used.add("core")
    if used & cache.BINDINGS.keys():
        used.add("l2")
    lines = [f"def compiled({args}):"]
    prologue = bind(used, {"core": "proc.core"}) + bind(used, BINDINGS) \
        + bind(used, views) + bind(used, _STATE) + bind(used, _CLOCKS)
    lines.append(prologue.rstrip("\n"))
    lines.extend(f"    {name} = 0" for name in counts)
    lines.extend(f"    {line}" for line in text.splitlines())
    lines.extend(f"    {expr} = {clock}" for clock, expr in _CLOCKS.items()
                 if clock in used)
    lines.extend(f"    {_COUNTS[name]} += {name}" for name in counts)
    lines.extend(f"    {line}" for line in tail.splitlines())
    return "\n".join(line for line in lines if line) + "\n"


def _code(source: str, filename: str):
    """The code of the function ``compiled`` that ``source`` defines."""
    scratch: dict = {}
    exec(compile(source, filename, "exec"), scratch)
    return scratch["compiled"].__code__


@functools.cache
def _handler_code(op):
    """The code of ``op``'s handler, compiled when a processor first
    meets the opcode: the source names no config value, so every
    processor binds the same code to its own namespace."""
    spec = OPCODES[op]
    outcome = op in BRANCH_OPS
    reg = "instr.{}".format
    body = _instruction_source(spec, reg, "instr.imm", _semantics(
        spec, reg, "instr.imm", "instr", outcome))
    tail = f"tally[{_SLOTS[spec.timing]}] += 1\n" + \
        ("return outcome" if outcome else "return None")
    return _code(_function_source("proc, instr", body, tail),
                 f"<{spec.name} timing>")


class _Handlers(dict):
    """``op -> handler(proc, instr)`` in one processor's namespace,
    each bound when :meth:`DecoupledProcessor.step` or
    :meth:`~DecoupledProcessor.run` first meets its opcode."""

    __slots__ = ("namespace",)

    def __init__(self, namespace: dict):
        super().__init__()
        self.namespace = namespace

    def __missing__(self, op):
        handler = self[op] = FunctionType(_handler_code(op), self.namespace)
        return handler


#: What every compiled function reads besides the timing constants.
_GLOBALS = dict(GLOBALS, **{f"F_{op.name}": handler for op, handler
                            in FunctionalCore.handlers.items()})


def _shape(instrs) -> tuple:
    """A block's opcodes, each with the register fields it names."""
    return tuple((instr.op,) + tuple(
        operator.index(getattr(instr, field))
        for field in OPCODES[instr.op].regs) for instr in instrs)


#: Where a block re-reads what ``vsetvli`` changed.
_REREAD = "# reread"


def _vd_vs2(entry) -> tuple:
    """The ``vd`` and ``vs2`` of one :func:`_shape` entry."""
    fields = dict(zip(OPCODES[entry[0]].regs, entry[1:]))
    return fields["vd"], fields["vs2"]


def _runs(shape) -> dict:
    """``{first: k}`` for each MAC run of ``shape``: its first member's
    index and its length.  A run is k >= 2 consecutive instructions of
    one opcode of :data:`~repro.arch.functional.RUNS` whose ``vd`` and
    ``vs2`` each step by one, the k ``vd`` disjoint from the k
    ``vs2``; each run is as long as it can be."""
    runs = {}
    n = 0
    while n < len(shape):
        op = shape[n][0]
        k = 1
        if op in RUNS:
            vd, vs2 = _vd_vs2(shape[n])
            while n + k < len(shape) and k < abs(vd - vs2) \
                    and shape[n + k][0] == op \
                    and _vd_vs2(shape[n + k]) == (vd + k, vs2 + k):
                k += 1
            if k >= 2:
                runs[n] = k
        n += k
    return runs


def _runner(namespace: dict, shape: tuple, affine: tuple, replay: bool,
            loop: bool):
    """The function running a block of ``shape`` in ``namespace``, timed
    (``run(proc, block)``) or replayed (``run(proc, block, at)``): one
    compiled function per :data:`BLOCK_PART` instructions.  With
    ``loop``, one function running a block of at most
    :data:`BLOCK_PART` instructions ``repeat`` times, the argument
    after the others.  ``affine`` is as for :func:`_block_code`."""
    if loop:
        return FunctionType(_block_code(shape, 0, affine, replay, True),
                            namespace)
    parts = [FunctionType(_block_code(shape[start:start + BLOCK_PART], start,
                                      affine, replay, False), namespace)
             for start in range(0, len(shape), BLOCK_PART)]
    if len(parts) == 1:
        return parts[0]

    def run(*args):
        for part in parts:
            part(*args)
    return run


@functools.lru_cache(maxsize=BLOCK_CACHE_SIZE)
def _block_code(shape: tuple, start: int, affine: tuple, replay: bool,
                loop: bool):
    """The code running the instructions of ``shape`` from the block's
    ``start``-th, timed or (with ``replay``) replayed at the frozen
    timestamp ``at``, then adding its class tallies: register fields are
    constants, and ``i<k>``, the block's ``k``-th instruction, is read
    for immediates and non-inlined semantics.  The immediate of the
    ``k``-th instruction of ``affine`` (see :class:`~repro.isa.trace.
    BlockCode`) is read from the block's ``imms`` instead.  With
    ``loop`` the code runs the whole block ``repeat`` times: it reads
    each ``i<k>`` once, keeps the clocks and bindings in locals
    throughout, and adds the tallies ``repeat`` times over."""
    imms = {k: f"imms[{j}]" for j, k in enumerate(affine)}
    body = []
    views = {}
    counts = [0] * len(CLASS_COUNTERS)
    runs = _runs(shape)
    run = []  # the register fields of the open run's members
    left = 0  # its members still to come
    for n, (op, *values) in enumerate(shape):
        k = start + n
        spec = OPCODES[op]
        fields = dict.fromkeys(_FIELDS, "0")
        fields.update(zip(spec.regs, map(str, values)))
        reg, imm = fields.__getitem__, imms.get(k, f"i{k}.imm")
        left = runs.get(n, left)
        if left:
            # a run member: timed as alone, its data ops run with the
            # run's, after its last member
            run.append(fields)
            left -= 1
            semantics = []
        else:
            semantics = _semantics(spec, reg, imm, f"i{k}", False)
        source = _replay_source if replay else _instruction_source
        body.extend(source(spec, reg, imm, semantics))
        if run and not left:
            text, run_views = run_source(op, run)
            body.append(text)
            views.update(run_views)
            run = []
        if spec.timing == "vsetvli":
            body.append(_REREAD)
        counts[_SLOTS[spec.timing]] += 1
    used = names("\n".join(body)) | names(" ".join(views.values()))
    # vsetvli changes vl and the views sliced to it, the runs' among them
    reread = (bind(used, {name: BINDINGS[name] for name in VL_BINDINGS},
                   indent="") + bind(used, views, indent="")).rstrip("\n")
    body = [reread if line is _REREAD else line for line in body]
    times = ""
    if loop:
        lines = "\n".join(body).splitlines() or ["pass"]
        body = ["for _ in range(repeat):"] + [f"    {line}" for line in lines]
        times = " * repeat"
    reads = [f"i{k} = instrs[{k}]"
             for k in range(start, start + len(shape)) if f"i{k}" in used]
    body[:0] = (["imms = block.imms"] if "imms" in used else []) \
        + (["instrs = block.instrs"] if reads else []) + reads
    tail = "".join(f"tally[{slot}] += {n}{times}\n"
                   for slot, n in enumerate(counts) if n)
    args = "proc, block" + ", at" * replay + ", repeat" * loop
    kind = "replayed" if replay else "trace"
    return _code(_function_source(args, body, tail, views),
                 f"<{kind} {'loop' if loop else 'block'}>")


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
        # per VIQ entry, completion per load- and store-queue entry.  An
        # instruction pops the oldest entry and waits for it, then
        # appends its own.  They start full of cycle-0 entries, which
        # never delay anything because no clock is negative.
        self._rob = deque([0.0] * scfg.rob_entries)
        self._viq = deque([0.0] * vcfg.queue_depth)
        self._lq = deque([0.0] * vcfg.load_queues)
        self._sq = deque([0.0] * vcfg.store_queues)
        #: completion of the last vector store per L2 line
        self._line_store_done: dict[int, float] = {}
        self._end = 0.0
        # Instruction-class counters: the compiled code, timed or
        # replayed, tallies each timing class's instructions, and
        # :meth:`stats` sums the counters from the tallies.
        self._tally = [0] * len(CLASS_COUNTERS)
        self._namespace = namespace = {**_GLOBALS,
                                       **_constants(self.config)}
        self._handlers = _Handlers(namespace)

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
            handlers[instr.op](self, instr)

    def step(self, instr: Instr):
        """Execute one instruction; returns control-flow info (see ISS)."""
        return self._handlers[instr.op](self, instr)

    def run_block(self, block) -> None:
        """Execute a straight-line :class:`~repro.isa.trace.Block`
        (trace mode) through the compiled function of its shape, kept in
        the block's :class:`~repro.isa.trace.BlockCode` with this
        processor's namespace."""
        timed = block.code.timed
        if timed is None or timed[0] is not self._namespace:
            timed = self._compile(block, "timed")
        timed[1](self, block)

    def run_loop(self, block, repeat: int) -> None:
        """Execute ``repeat`` runs of ``block``, the body of a tight
        loop, as as many :meth:`run_block` calls would: a block of at
        most :data:`BLOCK_PART` instructions runs through one compiled
        function, which keeps the clocks and bindings in locals across
        the iterations."""
        if len(block.instrs) > BLOCK_PART:
            for _ in range(repeat):
                self.run_block(block)
            return
        loop = block.code.loop
        if loop is None or loop[0] is not self._namespace:
            loop = self._compile(block, "loop")
        loop[1](self, block, repeat)

    def replay_block(self, block, at: float) -> None:
        """Execute a straight-line :class:`~repro.isa.trace.Block`
        without timing it, through the replay function of its shape:
        each memory instruction probes the hierarchy at the frozen
        timestamp ``at`` before its semantics run, so cache contents and
        access counts stay exact; the block's class tallies are added as
        for a timed block, and no clock or queue of the processor moves
        (the caller restores the hierarchy's clocks).  The function
        reads no timing constant, so the block's
        :class:`~repro.isa.trace.BlockCode` keeps one for every
        processor."""
        replayed = block.code.replayed
        if replayed is None:
            replayed = self._compile(block, "replayed")
        replayed(self, block, at)

    def replay_loop(self, block, repeat: int, at: float) -> None:
        """Replay ``repeat`` runs of ``block`` as as many
        :meth:`replay_block` calls would, through one function for a
        block of at most :data:`BLOCK_PART` instructions."""
        if len(block.instrs) > BLOCK_PART:
            for _ in range(repeat):
                self.replay_block(block, at)
            return
        replayed = block.code.replay_loop
        if replayed is None:
            replayed = self._compile(block, "replay_loop")
        replayed(self, block, at, repeat)

    def _compile(self, block, kind: str):
        """Build ``block``'s function of ``kind`` (a slot of its
        :class:`~repro.isa.trace.BlockCode`) and keep it there: a timed
        one paired with this processor's namespace, a replayed one
        bare.  The block's shape is derived once per holder."""
        code = block.code
        if code.shape is None:
            code.shape = _shape(block.instrs)
        replay = kind.startswith("replay")
        namespace = _GLOBALS if replay else self._namespace
        function = _runner(namespace, code.shape, code.affine, replay,
                           kind.endswith("loop"))
        kept = function if replay else (namespace, function)
        setattr(code, kind, kept)
        return kept

    def stats(self) -> ExecutionStats:
        """Snapshot of all statistics up to now."""
        counts = dict.fromkeys(COUNTERS, 0)
        for counters, n in zip(_TALLIED, self._tally):
            for name in counters:
                counts[name] += n
        h = self.hierarchy
        return ExecutionStats(
            cycles=self._end, **counts,
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
    # extrapolation hook (used by the batch-replay backend)
    # ==================================================================
    def shift_time(self, dt: float) -> None:
        """Advance every timing clock by ``dt`` cycles (the price of the
        loop iterations the batch-replay backend replayed).

        The compiled code binds the readiness lists, the queues and the
        line-store map, so all of them shift in place.
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
