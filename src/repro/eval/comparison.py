"""Baseline-vs-proposed comparison of one layer (the paper's two designs)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.arch.config import ProcessorConfig
from repro.arch.stats import ExecutionStats
from repro.kernels.compiler import Schedule
from repro.nn.layers import GemmShape
from repro.nn.workload import LayerWorkload
from repro.eval.runner import run_layer

BASELINE = "rowwise-spmm"
PROPOSED = "indexmac-spmm"


@dataclass(frozen=True)
class LayerComparison:
    """'Row-Wise-SpMM' vs 'Proposed' on one (scaled) layer GEMM."""

    layer_name: str
    nm: tuple[int, int]
    original: GemmShape
    scaled: GemmShape
    baseline: ExecutionStats
    proposed: ExecutionStats
    multiplicity: int = 1      #: identical-shape layers this stands for
    scale_factor: float = 1.0  #: full-size MACs / simulated MACs

    @property
    def speedup(self) -> float:
        """Execution-time ratio, normalized to the baseline (Fig. 4/5)."""
        return self.baseline.cycles / self.proposed.cycles

    @property
    def mem_ratio(self) -> float:
        """Proposed memory accesses normalized to the baseline (Fig. 6)."""
        return self.proposed.vector_mem_instrs / self.baseline.vector_mem_instrs

    @property
    def mem_reduction(self) -> float:
        return 1.0 - self.mem_ratio

    @property
    def energy_ratio(self) -> float:
        """Proposed / baseline energy under the default event model
        (extension beyond the paper; see ``repro.arch.energy``)."""
        from repro.arch.energy import energy_ratio

        return energy_ratio(self.baseline, self.proposed)

    @property
    def weight(self) -> float:
        """Full-size contribution weight of this unique layer."""
        return self.multiplicity * self.scale_factor


def compare_layer(workload: LayerWorkload,
                  schedule=Schedule(),
                  config: ProcessorConfig | None = None,
                  verify: bool = True,
                  multiplicity: int = 1) -> LayerComparison:
    """Run both designs on one workload under ``schedule``, a
    :class:`Schedule` or a per-layer
    :class:`~repro.eval.schedules.SchedulePolicy`."""
    base = run_layer(workload, BASELINE, schedule, config, verify)
    prop = run_layer(workload, PROPOSED, schedule, config, verify)
    return LayerComparison(
        layer_name=workload.layer_name,
        nm=workload.nm,
        original=workload.original,
        scaled=workload.scaled,
        baseline=base.stats,
        proposed=prop.stats,
        multiplicity=multiplicity,
        scale_factor=workload.scale_factor,
    )


def aggregate_speedup(comparisons: list[LayerComparison]) -> float:
    """Total-execution-time speedup over a set of layers (Fig. 5).

    Layer cycle counts are weighted by multiplicity x scale factor so
    that each unique simulated layer contributes in proportion to its
    full-size cost, like the paper's end-to-end totals.
    """
    base = sum(c.baseline.cycles * c.weight for c in comparisons)
    prop = sum(c.proposed.cycles * c.weight for c in comparisons)
    return base / prop


def aggregate_mem_ratio(comparisons: list[LayerComparison]) -> float:
    """Total normalized memory accesses over a set of layers (Fig. 6)."""
    base = sum(c.baseline.vector_mem_instrs * c.weight for c in comparisons)
    prop = sum(c.proposed.vector_mem_instrs * c.weight for c in comparisons)
    return prop / base
