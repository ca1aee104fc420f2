"""Flat instruction counts and the timing-backend tolerance gate.

Two validators live here:

* :func:`count_kernel` counts the instruction stream a compiled kernel
  actually expands to, one instruction at a time — the small-scale
  oracle that the static profile
  (:func:`~repro.analytic.calibration.profile_trace`) is tested
  against;
* :func:`validate_backend` is the tolerance gate for timing backends —
  it runs the same workload under ``detailed`` and a candidate backend
  (default ``batch-replay``) and checks that functional results are
  bit-exact, that memory-access counts match exactly, and that cycles
  agree within the backend's :data:`BACKEND_CYCLE_TOLERANCES` entry.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.isa.instructions import OPCODES, VECTOR_OPS
from repro.kernels.compiler import Schedule, compile_trace


@dataclass(frozen=True)
class StreamCount:
    """Instruction counts measured by draining a kernel generator."""

    vector_loads: int
    vector_stores: int
    vector_arith: int
    scalar_instructions: int
    v2s_moves: int
    macs: int

    @property
    def vector_mem_instrs(self) -> int:
        return self.vector_loads + self.vector_stores


def count_stream(stream) -> StreamCount:
    """Drain ``stream`` and classify every instruction."""
    ops = Counter(instr.op for instr in stream)

    def count(*timing) -> int:
        return sum(n for op, n in ops.items() if OPCODES[op].timing in timing)

    vector = sum(n for op, n in ops.items() if op in VECTOR_OPS)
    loads, stores = count("vload"), count("vstore")
    return StreamCount(vector_loads=loads, vector_stores=stores,
                       vector_arith=vector - loads - stores,
                       scalar_instructions=sum(ops.values()) - vector,
                       v2s_moves=count("v2s"),
                       macs=count("vfmacc", "vindexmac"))


def count_kernel(kernel: str, staged, schedule: Schedule = Schedule()
                 ) -> StreamCount:
    """Counts from actually generating the kernel's stream."""
    return count_stream(
        compile_trace(kernel, staged, schedule).instructions())


# ======================================================================
# Timing-backend tolerance gate
# ======================================================================
#: Documented accuracy contract of each approximate backend against
#: ``detailed`` at the experiment scales: relative cycle error per run.
#: The replay backend additionally guarantees bit-exact functional
#: results and exact memory-access counts; ``analytic-sampled``
#: executes nothing, so only its (wider) cycle tolerance and the exact
#: instruction-class counts are gated.
BACKEND_CYCLE_TOLERANCES = {
    "batch-replay": 0.02,
    "analytic-sampled": 0.10,
}


def backend_tolerance(backend: str) -> float:
    """The documented cycle tolerance of ``backend`` (0 for detailed)."""
    return BACKEND_CYCLE_TOLERANCES.get(backend, 0.0)


@dataclass(frozen=True)
class BackendValidation:
    """Comparison of one workload under two timing backends."""

    kernel: str
    backend: str
    tolerance: float
    detailed_cycles: float
    candidate_cycles: float
    detailed_vector_mem: int
    candidate_vector_mem: int
    detailed_l2_misses: int
    candidate_l2_misses: int
    timed_instructions: int
    dynamic_instructions: int
    results_bitexact: bool
    #: Capability traits of the candidate backend: a non-functional
    #: backend produces no architectural results (bit-exactness is not
    #: gated), one that does not model memory reports no cache counters
    #: (L2-miss equality is not gated).
    functional: bool = True
    models_memory: bool = True

    @property
    def cycle_error(self) -> float:
        """Relative cycle disagreement of the candidate backend."""
        if not self.detailed_cycles:
            return 0.0
        return abs(self.candidate_cycles - self.detailed_cycles) \
            / self.detailed_cycles

    @property
    def counts_exact(self) -> bool:
        """Vector-memory counts (the Fig. 6 metric) must match exactly
        under every backend; L2 misses only when memory is modeled."""
        return (self.detailed_vector_mem == self.candidate_vector_mem
                and (not self.models_memory
                     or self.detailed_l2_misses == self.candidate_l2_misses))

    @property
    def compression(self) -> float:
        """Dynamic-to-timed instruction ratio of the candidate run."""
        if not self.timed_instructions:
            return float(self.dynamic_instructions) or 1.0
        return self.dynamic_instructions / self.timed_instructions

    @property
    def ok(self) -> bool:
        return ((self.results_bitexact or not self.functional)
                and self.counts_exact
                and self.cycle_error <= self.tolerance)

    def summary(self) -> str:
        status = "ok" if self.ok else "FAIL"
        if self.functional:
            results = ("bit-exact" if self.results_bitexact else "WRONG")
        else:
            results = "n/a"
        return (f"{self.kernel}: cycles {self.candidate_cycles:,.0f} vs "
                f"{self.detailed_cycles:,.0f} "
                f"({self.cycle_error:.2%} <= {self.tolerance:.0%}), "
                f"mem counts {'exact' if self.counts_exact else 'DIFFER'}, "
                f"results {results}"
                f", {self.compression:.1f}x fewer timed instructions "
                f"[{status}]")


def validate_backend(a, b, kernel: str,
                     schedule: Schedule = Schedule(),
                     config=None,
                     backend: str = "batch-replay",
                     tolerance: float | None = None
                     ) -> BackendValidation:
    """Gate a timing backend against ``detailed`` on ``C = A x B``.

    Both backends run the same staged workload from scratch; the
    returned record reports bit-exactness of C (when the candidate is
    functional), exactness of the memory-access counts (L2 only when
    the candidate models memory), the relative cycle error against the
    documented per-backend tolerance (overridable via ``tolerance``),
    and the timed-instruction compression.
    """
    from repro.arch.config import ProcessorConfig
    from repro.arch.processor import DecoupledProcessor
    from repro.arch.timing import get_backend, get_backend_class
    from repro.kernels.layout import read_result, stage_spmm

    cls = get_backend_class(backend)
    if tolerance is None:
        tolerance = backend_tolerance(backend)
    results = {}
    for name in ("detailed", backend):
        proc = DecoupledProcessor(config or ProcessorConfig.scaled_default())
        staged = stage_spmm(proc.mem, a, b)
        trace = compile_trace(kernel, staged, schedule)
        outcome = get_backend(name).run(proc, trace)
        results[name] = (outcome, read_result(proc.mem, staged))
    det, det_c = results["detailed"]
    cand, cand_c = results[backend]
    return BackendValidation(
        kernel=kernel, backend=backend, tolerance=tolerance,
        detailed_cycles=det.stats.cycles,
        candidate_cycles=cand.stats.cycles,
        detailed_vector_mem=det.stats.vector_mem_instrs,
        candidate_vector_mem=cand.stats.vector_mem_instrs,
        detailed_l2_misses=det.stats.l2_misses,
        candidate_l2_misses=cand.stats.l2_misses,
        timed_instructions=cand.timed_instructions,
        dynamic_instructions=cand.dynamic_instructions,
        results_bitexact=(bool(np.array_equal(det_c, cand_c))
                          if cls.functional else False),
        functional=cls.functional,
        models_memory=cls.models_memory,
    )
