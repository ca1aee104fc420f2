"""Processor configuration — Table I of the paper, as dataclasses.

``ProcessorConfig.paper_default()`` reproduces the simulated setup of the
paper exactly where the paper specifies a number, and uses conventional
values (documented per field) where it does not.  All latencies are in
core clock cycles.

Every config checks its fields when it is built: counts and sizes are
plain ``int`` values of at least 1, latencies and busy cycles plain
``int`` values of at least 0 (a ``bool`` or a ``float`` is refused, so
one machine has one canonical form and one cache key), every number is
at most :data:`LEAF_MAX` (so the float clocks can hold it), and a
nested field holds its own config class.  The fields that size what a
simulator allocates have tighter bounds: the ROB and every vector queue
hold at most :data:`QUEUE_MAX` entries, a cache at most
:data:`QUEUE_MAX` lines and banks, a vector register at most
:data:`VLEN_MAX` bits, the memory at most :data:`MEMORY_MAX` bytes, and
the vector register file exactly :data:`NUM_VREGS` registers.  A bad
value raises :class:`~repro.errors.SimulationError` before any
simulator code runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from repro.errors import SimulationError

#: The largest number any config field may hold.
LEAF_MAX = 2**32
#: The most entries of the ROB and of each vector queue, and the most
#: lines and banks of a cache.
QUEUE_MAX = 2**16
#: The most bits of a vector register (RVV's VLEN limit).
VLEN_MAX = 65536
#: The most bytes of simulated memory.
MEMORY_MAX = 2**30
#: The vector registers: every kernel is compiled for v0-v31, and
#: ``vindexmac.vx`` selects its indexed source with five bits.
NUM_VREGS = 32


def _require(config, least: int, *names, most: int = LEAF_MAX) -> None:
    """Each field ``names`` of ``config`` is a plain ``int`` from
    ``least`` to ``most``."""
    for name in names:
        value = getattr(config, name)
        if type(value) is not int or not least <= value <= most:
            raise SimulationError(
                f"{type(config).__name__}.{name} must be an integer "
                f"from {least} to {most}, not {value!r}")


@dataclass(frozen=True)
class ScalarCoreConfig:
    """The RV64GC out-of-order scalar core (Table I, "Scalar core")."""

    issue_width: int = 8        #: 8-way issue (Table I)
    rob_entries: int = 60       #: 60-entry ROB (Table I)
    lsq_entries: int = 16       #: 16-entry LSQ (Table I)
    int_alu_latency: int = 1    #: simple ALU ops
    mul_latency: int = 3        #: integer multiply
    branch_latency: int = 1     #: resolved branch (trace-driven: predicted)

    def __post_init__(self):
        _require(self, 1, "issue_width", "lsq_entries")
        _require(self, 1, "rob_entries", most=QUEUE_MAX)
        _require(self, 0, "int_alu_latency", "mul_latency", "branch_latency")


@dataclass(frozen=True)
class VectorEngineConfig:
    """The decoupled 512-bit, 16-lane vector engine (Table I)."""

    vlen_bits: int = 512        #: 512-bit vector registers (Table I)
    lanes: int = 16             #: 16 execution lanes (Table I)
    sew_bits: int = 32          #: 32-bit elements (Table I)
    num_vregs: int = 32         #: architectural vector registers (RVV)
    queue_depth: int = 16       #: vector instruction queue entries
    load_queues: int = 16       #: store queues to L2 (Table I)
    store_queues: int = 16      #: load queues to L2 (Table I)
    #: dispatch-to-vector-engine transfer latency (decoupling cost)
    post_latency: int = 3
    #: vector-to-scalar move return latency (vmv.x.s / vfmv.f.s), on top
    #: of execution: the value must travel back to the scalar core.
    v2s_latency: int = 4
    alu_latency: int = 2        #: integer vector add/mul/logic
    mac_latency: int = 6        #: fp32 fused multiply-accumulate
    slide_latency: int = 2      #: vslide1down / vslidedown
    move_latency: int = 1       #: vmv family
    #: extra cycles vindexmac spends reading the indexed VRF operand via
    #: the multiplexed read port (Section III-B: a 5-bit 2:1 mux in front
    #: of an existing port — no extra pipeline stage is strictly needed,
    #: so the paper's cost model implies 0; kept configurable).
    indexmac_extra_latency: int = 0
    agen_latency: int = 1       #: address generation for vector memory ops
    #: cycles a unit-stride vector load occupies the in-order issue port:
    #: address generation, bank arbitration and load-queue allocation for
    #: a full line sustain less than one load per cycle in decoupled
    #: implementations (Ara and Vitruvius sustain one line per 2-4 cycles).
    vload_issue_occupancy: int = 3
    #: same for vector stores (posted, cheaper than loads).
    vstore_issue_occupancy: int = 2
    #: fixed load-queue/return-path traversal latency added to vector
    #: load completion on top of the L2/DRAM access time.
    mem_overhead_latency: int = 4

    def __post_init__(self):
        _require(self, 1, "lanes", "sew_bits", "vload_issue_occupancy",
                 "vstore_issue_occupancy")
        _require(self, 1, "vlen_bits", most=VLEN_MAX)
        if type(self.num_vregs) is not int or self.num_vregs != NUM_VREGS:
            raise SimulationError(
                f"VectorEngineConfig.num_vregs must be {NUM_VREGS} "
                f"(v0-v31), not {self.num_vregs!r}")
        _require(self, 1, "queue_depth", "load_queues", "store_queues",
                 most=QUEUE_MAX)
        _require(self, 0, "post_latency", "v2s_latency", "alu_latency",
                 "mac_latency", "slide_latency", "move_latency",
                 "indexmac_extra_latency", "agen_latency",
                 "mem_overhead_latency")
        if self.vlen_bits < self.sew_bits:
            raise SimulationError(
                f"a {self.vlen_bits}-bit vector register holds no "
                f"{self.sew_bits}-bit element")

    @property
    def vlmax(self) -> int:
        """Elements per vector register at the configured element width."""
        return self.vlen_bits // self.sew_bits


@dataclass(frozen=True)
class CacheConfig:
    """One level of set-associative cache.

    ``bank_busy_cycles`` is the initiation interval of one bank: an SRAM
    macro access plus the line readout (64 B at 16 B/cycle) keeps a bank
    busy for several cycles, so streams whose stride maps to a single
    bank (power-of-two row strides are the common offender) serialize.
    """

    size_bytes: int
    ways: int
    hit_latency: int
    banks: int = 1
    line_bytes: int = 64
    bank_busy_cycles: int = 1
    #: XOR-hash the set index (standard in modern L2s) so that the
    #: power-of-two row strides of matrix codes do not camp on a few sets.
    hashed_index: bool = True

    def __post_init__(self):
        _require(self, 1, "size_bytes", "ways", "line_bytes")
        _require(self, 1, "banks", most=QUEUE_MAX)
        _require(self, 0, "hit_latency", "bank_busy_cycles")
        if type(self.hashed_index) is not bool:
            raise SimulationError("CacheConfig.hashed_index must be true or "
                                  f"false, not {self.hashed_index!r}")
        lines = self.size_bytes // self.line_bytes
        if lines > QUEUE_MAX:
            raise SimulationError(
                f"a {self.size_bytes}B cache of {self.line_bytes}B lines "
                f"holds {lines} lines, more than {QUEUE_MAX}")
        if lines % self.ways != 0 or self.size_bytes % self.line_bytes != 0:
            raise SimulationError(
                f"cache geometry {self.size_bytes}B/{self.ways}w/"
                f"{self.line_bytes}B does not divide evenly")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.ways)


@dataclass(frozen=True)
class DramConfig:
    """DDR4-2400-like main memory (Table I, "Main Memory").

    The model charges a fixed access latency (lower on an open-row hit)
    plus a bandwidth limit expressed as a minimum interval between line
    transfers.  DDR4-2400 peaks at 19.2 GB/s; at a 2 GHz core clock a
    64-byte line every ~6.7 cycles saturates the channel.
    """

    row_hit_latency: int = 45
    row_miss_latency: int = 80
    cycles_per_line: float = 6.7
    row_bytes: int = 2048

    def __post_init__(self):
        _require(self, 0, "row_hit_latency", "row_miss_latency")
        _require(self, 1, "row_bytes")
        value = self.cycles_per_line
        positive = type(value) is int or type(value) is float \
            and math.isfinite(value)
        if not positive or not 0 < value <= LEAF_MAX:
            raise SimulationError("DramConfig.cycles_per_line must be a "
                                  f"number above 0 and at most {LEAF_MAX}, "
                                  f"not {value!r}")


@dataclass(frozen=True)
class ProcessorConfig:
    """Complete simulated processor configuration (Table I)."""

    scalar: ScalarCoreConfig = field(default_factory=ScalarCoreConfig)
    vector: VectorEngineConfig = field(default_factory=VectorEngineConfig)
    l1d: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=64 * 1024, ways=4, hit_latency=2))
    l1i: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=64 * 1024, ways=4, hit_latency=1))
    l2: CacheConfig = field(default_factory=lambda: CacheConfig(
        size_bytes=512 * 1024, ways=8, hit_latency=8, banks=8,
        bank_busy_cycles=4))
    dram: DramConfig = field(default_factory=DramConfig)
    memory_bytes: int = 64 * 1024 * 1024

    def __post_init__(self):
        for name, cls in (("scalar", ScalarCoreConfig),
                          ("vector", VectorEngineConfig),
                          ("l1d", CacheConfig), ("l1i", CacheConfig),
                          ("l2", CacheConfig), ("dram", DramConfig)):
            if not isinstance(getattr(self, name), cls):
                raise SimulationError(
                    f"ProcessorConfig.{name} must be a {cls.__name__}, "
                    f"not {type(getattr(self, name)).__name__}")
        _require(self, 1, "memory_bytes", most=MEMORY_MAX)

    @classmethod
    def paper_default(cls) -> "ProcessorConfig":
        """The exact Table I configuration."""
        return cls()

    @classmethod
    def scaled_default(cls, l2_kib: int = 96) -> "ProcessorConfig":
        """A proportionally shrunk memory system for scaled workloads.

        The Python simulator runs dimension-scaled layer GEMMs (see
        ``repro.nn.workload``); shrinking the caches by the same factor
        keeps the "does the working set fit?" transitions of the paper's
        full-size runs.  The scalar core, vector engine and latencies are
        untouched.
        """
        base = cls()
        return replace(
            base,
            l1d=CacheConfig(size_bytes=16 * 1024, ways=4, hit_latency=2),
            l2=CacheConfig(size_bytes=l2_kib * 1024, ways=8,
                           hit_latency=8, banks=8, bank_busy_cycles=4),
        )

    def table(self) -> str:
        """Render the configuration as the Table I text block."""
        s, v, dram = self.scalar, self.vector, self.dram
        lines = [
            "Scalar core",
            f"  RISC-V ISA (RV64GC), {s.issue_width}-way-issue out-of-order,",
            f"  {s.lsq_entries}-entry LSQ, {s.rob_entries}-entry ROB",
            f"  L1I cache: {self.l1i.hit_latency}-cycle hit latency, "
            f"{self.l1i.ways}-way, {self.l1i.size_bytes // 1024}KB",
            f"  L1D cache: {self.l1d.hit_latency}-cycle hit latency, "
            f"{self.l1d.ways}-way, {self.l1d.size_bytes // 1024}KB",
            "Vector engine",
            f"  {v.vlen_bits}-bit vector engine with {v.lanes}-lane "
            f"configuration ({v.sew_bits}-bit elements x {v.lanes} lanes)",
            "  connected directly to the L2 cache through "
            f"{v.store_queues} store queues and {v.load_queues} load queues",
            "L2 cache",
            f"  {self.l2.ways}-way, {self.l2.banks}-bank",
            f"  {self.l2.hit_latency}-cycle hit latency, "
            f"{self.l2.size_bytes // 1024}KB shared by both the big core "
            "and the vector engine",
            "Main Memory",
            f"  DDR4-2400 ({dram.row_miss_latency}-cycle row miss, "
            f"{dram.row_hit_latency}-cycle row hit, "
            f"{dram.cycles_per_line} cycles/line bandwidth)",
        ]
        return "\n".join(lines)
