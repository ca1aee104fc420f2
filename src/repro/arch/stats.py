"""Execution statistics collected by the processor model.

:data:`CLASS_COUNTERS` is the one place that says which counters an
instruction bumps: every timing class of :data:`~repro.isa.
instructions.OPCODES` names the :class:`ExecutionStats` fields it adds
to, and the processor's tallies, the static profile of the analytic
backend and its priced results all read them from it.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class ExecutionStats:
    """Counters for one simulated kernel execution.

    ``cycles`` is the completion time of the last instruction;
    ``vector_mem_instrs`` (loads + stores issued by the vector engine)
    is the paper's Fig. 6 "total memory accesses" metric.
    """

    cycles: float = 0.0
    instructions: int = 0
    scalar_instructions: int = 0
    vector_instructions: int = 0
    vector_loads: int = 0
    vector_stores: int = 0
    scalar_loads: int = 0
    scalar_stores: int = 0
    vector_to_scalar_moves: int = 0
    vindexmac_count: int = 0
    vfmacc_count: int = 0
    slide_count: int = 0
    branches: int = 0
    # memory system
    l1d_hits: int = 0
    l1d_misses: int = 0
    l2_hits: int = 0
    l2_misses: int = 0
    l2_writebacks: int = 0
    dram_reads: int = 0
    dram_writes: int = 0
    dram_row_hits: int = 0
    dram_row_misses: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def vector_mem_instrs(self) -> int:
        """Vector memory instructions — the Fig. 6 metric."""
        return self.vector_loads + self.vector_stores

    @property
    def l2_accesses(self) -> int:
        return self.l2_hits + self.l2_misses

    @property
    def l2_hit_rate(self) -> float:
        total = self.l2_accesses
        return self.l2_hits / total if total else 0.0

    @property
    def ipc(self) -> float:
        return self.instructions / self.cycles if self.cycles else 0.0

    def summary(self) -> str:
        """A short human-readable report."""
        lines = [
            f"cycles:               {self.cycles:,.0f}",
            f"instructions:         {self.instructions:,}"
            f"  (scalar {self.scalar_instructions:,},"
            f" vector {self.vector_instructions:,})",
            f"ipc:                  {self.ipc:.2f}",
            f"vector memory instrs: {self.vector_mem_instrs:,}"
            f"  (loads {self.vector_loads:,}, stores {self.vector_stores:,})",
            f"vindexmac / vfmacc:   {self.vindexmac_count:,}"
            f" / {self.vfmacc_count:,}",
            f"L2:                   {self.l2_hits:,} hits,"
            f" {self.l2_misses:,} misses"
            f" ({100.0 * self.l2_hit_rate:.1f}% hit rate)",
            f"DRAM:                 {self.dram_reads:,} reads,"
            f" {self.dram_writes:,} writes",
        ]
        return "\n".join(lines)


#: The :class:`ExecutionStats` counters one instruction of each timing
#: class adds to besides ``instructions``, in the processor's
#: tally-slot order.  ``vsetvli`` configures the vector engine, so it
#: counts as a vector instruction although the scalar core times it.
CLASS_COUNTERS = {
    # scalar core
    "alu": ("scalar_instructions",),
    "mul": ("scalar_instructions",),
    "load": ("scalar_instructions", "scalar_loads"),
    "store": ("scalar_instructions", "scalar_stores"),
    "branch": ("scalar_instructions", "branches"),
    "jump": ("scalar_instructions", "branches"),
    "vsetvli": ("vector_instructions",),
    # vector engine
    "vload": ("vector_instructions", "vector_loads"),
    "vstore": ("vector_instructions", "vector_stores"),
    "valu": ("vector_instructions",),
    "vmac": ("vector_instructions",),
    "vfmacc": ("vector_instructions", "vfmacc_count"),
    "vred": ("vector_instructions",),
    "vslide": ("vector_instructions", "slide_count"),
    "vmove": ("vector_instructions",),
    "v2s": ("vector_instructions", "vector_to_scalar_moves"),
    "vindexmac": ("vector_instructions", "vindexmac_count"),
}

#: The instruction-class counters: ``instructions`` and every counter
#: :data:`CLASS_COUNTERS` names.
COUNTERS = ("instructions",) + tuple(dict.fromkeys(
    name for names in CLASS_COUNTERS.values() for name in names))
