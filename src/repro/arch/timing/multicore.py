"""Multicore merge layer: combine per-core cycle streams into one result.

Multi-core simulation runs one single-core :class:`~repro.arch.
processor.DecoupledProcessor` per shard — each core owns a private
cache hierarchy and a private copy of the staged operands, the sharing
model of a scale-out vector-core array working on disjoint output-row
slices.  Any inner timing backend (``detailed``, ``batch-replay``)
produces each core's :class:`~repro.arch.timing.base.BackendResult`;
this module is the *merge* layer on top:

* **cycles** become the makespan — the slowest core bounds the
  parallel execution time (cores run independent traces with no
  cross-core synchronisation until the final join);
* **instruction, memory-system and DRAM counters** are summed — the
  totals equal the work actually executed across the array, so the
  Fig. 6 vector-memory metric and the event-priced energy model
  (:mod:`repro.arch.energy`) aggregate exactly;
* **bookkeeping** (``timed_instructions``/``dynamic_instructions``,
  per-core cycle list, core count) lands in ``stats.extra`` so cached
  results round-trip through JSON and reports can show the imbalance.

The merge composes with every registered backend by construction: it
only consumes :class:`BackendResult` values, never traces.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, fields

from repro.arch.stats import ExecutionStats
from repro.arch.timing.base import BackendResult
from repro.errors import BackendError

#: Marker recorded in ``stats.extra["multicore"]`` by the merge.
MULTICORE = "multicore"


@dataclass(frozen=True)
class MulticoreResult:
    """A merged multi-core execution plus its per-core components."""

    merged: BackendResult
    per_core: tuple[BackendResult, ...]

    @property
    def cores(self) -> int:
        return len(self.per_core)

    @property
    def makespan(self) -> float:
        """Parallel completion time: the slowest core's cycles."""
        return self.merged.stats.cycles

    @property
    def core_cycles(self) -> tuple[float, ...]:
        return tuple(r.stats.cycles for r in self.per_core)

    @property
    def total_core_cycles(self) -> float:
        """Aggregate busy cycles across the array (cost, not time)."""
        return sum(self.core_cycles)

    @property
    def load_balance(self) -> float:
        """Mean-over-max per-core cycles: 1.0 = perfectly balanced."""
        if not self.per_core or not self.makespan:
            return 1.0
        return self.total_core_cycles / (self.cores * self.makespan)


def merge_core_results(results: Sequence[BackendResult],
                       backend: str) -> MulticoreResult:
    """Merge per-core backend results (see module docstring).

    ``backend`` is the *inner* timing backend name that produced every
    per-core result; it is recorded unchanged so cache identities and
    reports keep naming the model that actually assigned cycles.
    """
    results = list(results)
    if not results:
        raise BackendError("merge_core_results needs at least one core")
    stats = ExecutionStats()
    for field_ in fields(ExecutionStats):
        if field_.name in ("cycles", "extra"):
            continue
        total = sum(getattr(r.stats, field_.name) for r in results)
        setattr(stats, field_.name, total)
    stats.cycles = max(r.stats.cycles for r in results)
    timed = sum(r.timed_instructions for r in results)
    dynamic = sum(r.dynamic_instructions for r in results)
    stats.extra = {
        "backend": backend,
        "timed_instructions": timed,
        "dynamic_instructions": dynamic,
        MULTICORE: True,
        "cores": len(results),
        "per_core_cycles": [float(r.stats.cycles) for r in results],
    }
    merged = BackendResult(stats=stats, timed_instructions=timed,
                           dynamic_instructions=dynamic)
    return MulticoreResult(merged=merged, per_core=tuple(results))
