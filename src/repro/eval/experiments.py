"""Experiment drivers: one per table/figure of the paper + ablations.

Every driver returns a result object with a ``render()`` method that
prints the same rows/series the paper reports.  All simulations are
submitted as :class:`repro.eval.engine.SimJob` batches to the default
:class:`repro.eval.engine.ExperimentEngine`, which deduplicates them,
runs misses in parallel worker processes, and memoises results both
in-process and in an on-disk cache — so Fig. 4, 5 and 6 share their
runs, and a warm cache re-renders every figure without simulating.
Layer comparisons are additionally memoised per (model, sparsity,
policy, config, schedule policy) within the process.  Fig. 6's
full-size column is counted, not simulated: the static profile of each
kernel compiled for every layer at its unscaled size.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from repro.analytic.calibration import profile_trace
from repro.arch.config import ProcessorConfig
from repro.arch.timing import resolve_backend
from repro.eval import paper
from repro.eval.comparison import (
    BASELINE,
    PROPOSED,
    LayerComparison,
    aggregate_mem_ratio,
    aggregate_speedup,
)
from repro.eval.engine import SimJob, get_engine
from repro.eval.report import bar_chart, format_table, pct
from repro.eval.runner import CSR_KERNEL
from repro.eval.schedules import SchedulePolicy, coerce_policy
from repro.kernels.compiler import Schedule, get_trace_kernel, project_schedule
from repro.kernels.dataflow import Dataflow
from repro.kernels.layout import plan_spmm
from repro.nn.models import MODEL_NAMES, get_model, unique_gemm_layers
from repro.nn.workload import FULL, SMALL, ScalePolicy, padded_gemm


#: (kernel, schedule, nm) triples already warned about, so a fig5 run
#: across three models warns once per substitution, not once per layer.
_FALLBACK_WARNED: set = set()


def _applicable_schedule(kernel: str, schedule: Schedule,
                         nm: tuple[int, int]) -> Schedule:
    """The schedule to run ``kernel`` with, given possibly-tuned input.

    A tuned :class:`Schedule` only applies to kernels that can actually
    schedule it — e.g. a rowwise-tuned A-stationary or L=64 winner
    cannot drive the vindexmac kernel (B-stationary by construction,
    L bounded by the vector-register budget).  Incompatible kernels
    fall back to the paper defaults (see :func:`repro.kernels.compiler.
    project_schedule`) with a one-line warning naming the kernel and
    the substituted default, so ``--schedule`` comparisons always run
    instead of crashing.  The ablations sweep their schedules
    deliberately and build their jobs without this projection.
    """
    projected, reason = project_schedule(kernel, schedule, nm)
    if reason is not None:
        key = (kernel, schedule, tuple(nm))
        if key not in _FALLBACK_WARNED:
            _FALLBACK_WARNED.add(key)
            warnings.warn(
                f"schedule [{schedule.describe()}] does not apply to "
                f"kernel {kernel!r} ({reason}); substituting the paper "
                f"default [{projected.describe()}]",
                RuntimeWarning, stacklevel=3)
    return projected


def _resolve_layer_schedule(sched_policy: SchedulePolicy, kernel: str,
                            nm: tuple[int, int], model: str, layer,
                            scale_policy: ScalePolicy) -> Schedule:
    """One layer's effective schedule under ``sched_policy``: the
    schedule the policy resolves, through the per-kernel compatibility
    projection."""
    resolved = sched_policy.resolve(
        kernel, tuple(nm), model=model, layer=layer.name, gemm=layer.gemm,
        scaled=scale_policy.scale(layer.gemm))
    return _applicable_schedule(kernel, resolved, nm)


_COMPARISON_CACHE: dict = {}


def model_comparisons(model: str, nm: tuple[int, int],
                      policy: ScalePolicy = SMALL,
                      config: ProcessorConfig | None = None,
                      options=None,
                      verify: bool = True,
                      backend: str | None = None) -> list[LayerComparison]:
    """Simulate both designs on every unique layer GEMM of ``model``.

    Layers with identical GEMM shapes are simulated once and carry a
    multiplicity (see ``unique_gemm_layers``).  All simulations go
    through the experiment engine (parallel + disk-cached) as one
    batch; the policy travels inside each job by value, so custom
    :class:`ScalePolicy` instances work like the registered ones.
    ``options`` accepts a compiler :class:`Schedule` (e.g. a `repro
    tune` winner), a :class:`~repro.eval.schedules.SchedulePolicy`, or
    None for the paper default — each layer's job
    then runs under the schedule the policy resolves for it, and that
    resolved schedule (not the policy) keys the job's cache identity.
    """
    config = config or ProcessorConfig.scaled_default()
    sched_policy = coerce_policy(options)
    backend = resolve_backend(backend)
    key = (model, nm, policy, config, sched_policy, verify, backend)
    if key in _COMPARISON_CACHE:
        return _COMPARISON_CACHE[key]
    layers = list(unique_gemm_layers(get_model(model)))
    resolved = {
        (layer.name, kernel): _resolve_layer_schedule(
            sched_policy, kernel, nm, model, layer, policy)
        for layer, _ in layers
        for kernel in (BASELINE, PROPOSED)
    }
    jobs = [
        SimJob.for_layer(model, layer.name, nm, policy, kernel,
                         resolved[(layer.name, kernel)], config, verify,
                         backend)
        for layer, _ in layers
        for kernel in (BASELINE, PROPOSED)
    ]
    runs = get_engine().run(jobs)
    result = []
    for (layer, mult), base, prop in zip(layers, runs[0::2], runs[1::2]):
        scaled = padded_gemm(
            layer.gemm, *nm, policy=policy,
            tile_rows=resolved[(layer.name, PROPOSED)].tile_rows)
        result.append(LayerComparison(
            layer_name=layer.name, nm=nm, original=layer.gemm,
            scaled=scaled, baseline=base.stats, proposed=prop.stats,
            multiplicity=mult,
            scale_factor=layer.gemm.macs / scaled.macs))
    _COMPARISON_CACHE[key] = result
    return result


def clear_cache() -> None:
    _COMPARISON_CACHE.clear()


# ======================================================================
# Table I
# ======================================================================
@dataclass(frozen=True)
class Table1Result:
    config: ProcessorConfig

    def render(self) -> str:
        return ("TABLE I — SIMULATED PROCESSOR CONFIGURATION\n"
                + self.config.table())


def run_table1(config: ProcessorConfig | None = None) -> Table1Result:
    return Table1Result(config=config or ProcessorConfig.paper_default())


# ======================================================================
# Fig. 4 — per-layer speedups
# ======================================================================
@dataclass
class Fig4Result:
    model: str
    policy: str
    comparisons: dict[tuple[int, int], list[LayerComparison]]

    def speedups(self, nm: tuple[int, int]) -> list[tuple[str, float]]:
        return [(c.layer_name, c.speedup) for c in self.comparisons[nm]]

    def speedup_range(self, nm: tuple[int, int]) -> tuple[float, float]:
        values = [c.speedup for c in self.comparisons[nm]]
        return min(values), max(values)

    def total_cycles(self, nm: tuple[int, int],
                     kernel: str = "proposed") -> float:
        """Weighted whole-model cycle total (multiplicity x scale
        factor, like Fig. 5) — the quantity the tuned-vs-fixed policy
        gate compares."""
        comps = self.comparisons[nm]
        if kernel == "proposed":
            return sum(c.proposed.cycles * c.weight for c in comps)
        return sum(c.baseline.cycles * c.weight for c in comps)

    def render(self) -> str:
        parts = []
        for nm, comps in sorted(self.comparisons.items()):
            lo, hi = self.speedup_range(nm)
            plo, phi = paper.FIG4_RANGE.get(nm, (float("nan"),) * 2)
            title = (f"Fig. 4 — per-layer speedup, {MODEL_NAMES[self.model]}"
                     f" {nm[0]}:{nm[1]} (paper range {plo:.2f}x-{phi:.2f}x,"
                     f" measured {lo:.2f}x-{hi:.2f}x)")
            labels = [c.layer_name for c in comps]
            values = [c.speedup for c in comps]
            parts.append(bar_chart(labels, values, title=title,
                                   reference=1.0))
        return "\n\n".join(parts)


def run_fig4(model: str = "resnet50", policy: ScalePolicy = SMALL,
             config: ProcessorConfig | None = None,
             options=None,
             sparsities=paper.SPARSITIES, verify: bool = True,
             backend: str | None = None) -> Fig4Result:
    """Per-layer speedups.  ``options`` accepts a tuned
    :class:`Schedule`, a per-layer
    :class:`~repro.eval.schedules.SchedulePolicy`, or None for the
    paper default."""
    comparisons = {
        nm: model_comparisons(model, nm, policy, config, options, verify,
                              backend)
        for nm in sparsities
    }
    return Fig4Result(model=model, policy=policy.name,
                      comparisons=comparisons)


# ======================================================================
# Fig. 5 — total-CNN speedups
# ======================================================================
@dataclass
class Fig5Result:
    policy: str
    #: {(model, nm): total speedup}
    totals: dict[tuple[str, tuple[int, int]], float]

    def average(self, nm: tuple[int, int]) -> float:
        values = [v for (m, s), v in self.totals.items() if s == nm]
        return float(np.mean(values))

    def render(self) -> str:
        parts = []
        sparsities = sorted({nm for _, nm in self.totals})
        for nm in sparsities:
            labels, values = [], []
            for model in paper.MODELS:
                if (model, nm) in self.totals:
                    labels.append(MODEL_NAMES[model])
                    values.append(self.totals[(model, nm)])
            avg = self.average(nm)
            ref = paper.FIG5_AVERAGE.get(nm, float("nan"))
            title = (f"Fig. 5 — total speedup, {nm[0]}:{nm[1]} sparsity "
                     f"(paper avg {ref:.2f}x, measured avg {avg:.2f}x)")
            parts.append(bar_chart(labels, values, title=title,
                                   reference=1.0))
        return "\n\n".join(parts)


def run_fig5(models=paper.MODELS, policy: ScalePolicy = SMALL,
             config: ProcessorConfig | None = None,
             options=None,
             sparsities=paper.SPARSITIES, verify: bool = True,
             backend: str | None = None) -> Fig5Result:
    totals = {}
    for model in models:
        for nm in sparsities:
            comps = model_comparisons(model, nm, policy, config, options,
                                      verify, backend)
            totals[(model, nm)] = aggregate_speedup(comps)
    return Fig5Result(policy=policy.name, totals=totals)


# ======================================================================
# Fig. 6 — normalized total memory accesses
# ======================================================================
@dataclass
class Fig6Result:
    policy: str
    #: {(model, nm): proposed/baseline vector-memory-instruction ratio}
    simulated: dict[tuple[str, tuple[int, int]], float]
    #: same ratio counted exactly by the compiled kernels' static
    #: profiles at FULL layer sizes
    analytic_full: dict[tuple[str, tuple[int, int]], float]

    def average_reduction(self, nm: tuple[int, int],
                          source: str = "analytic") -> float:
        table = self.analytic_full if source == "analytic" else self.simulated
        values = [1 - v for (m, s), v in table.items() if s == nm]
        return float(np.mean(values))

    def render(self) -> str:
        parts = []
        sparsities = sorted({nm for _, nm in self.simulated})
        for nm in sparsities:
            rows = []
            for model in paper.MODELS:
                if (model, nm) not in self.simulated:
                    continue
                sim = self.simulated[(model, nm)]
                ana = self.analytic_full[(model, nm)]
                rows.append([MODEL_NAMES[model], sim, ana,
                             pct(1 - ana)])
            avg = self.average_reduction(nm)
            ref = paper.FIG6_REDUCTION.get(nm, float("nan"))
            title = ("Fig. 6 — normalized memory accesses, "
                     f"{nm[0]}:{nm[1]} (paper avg reduction {pct(ref)}, "
                     f"measured {pct(avg)})")
            parts.append(format_table(
                ["CNN", "simulated ratio", "analytic full-size ratio",
                 "reduction"], rows, title=title))
        return "\n\n".join(parts)


def _analytic_model_mem_ratio(model: str, nm: tuple[int, int],
                              sched_policy: SchedulePolicy,
                              scale_policy: ScalePolicy) -> float:
    """Exact full-size Fig. 6 ratio from the compiled kernels' profiles.

    Each layer's ``FULL``-size GEMM is planned on the Table I machine,
    and both kernels are compiled under the schedule the policy
    resolves for the proposed kernel on that layer (with the same
    incompatibility fallback as the simulated jobs), each in its own
    B-tile residency.  :func:`~repro.analytic.calibration.profile_trace`
    counts their vector memory instructions from the loop tree, without
    expanding the trace.
    """
    config = ProcessorConfig.paper_default()
    totals = {BASELINE: 0, PROPOSED: 0}
    for layer, mult in unique_gemm_layers(get_model(model)):
        schedule = replace(_resolve_layer_schedule(
            sched_policy, PROPOSED, nm, model, layer, scale_policy),
            b_residency="auto")
        gemm = padded_gemm(layer.gemm, *nm, policy=FULL,
                           tile_rows=schedule.tile_rows)
        geometry = plan_spmm(gemm.rows, gemm.k, gemm.n, *nm,
                             config.memory_bytes)
        for kernel in totals:
            profile = profile_trace(
                get_trace_kernel(kernel)(geometry, schedule), config)
            totals[kernel] += mult * (profile.vector_loads
                                      + profile.vector_stores)
    return totals[PROPOSED] / totals[BASELINE]


def run_fig6(models=paper.MODELS, policy: ScalePolicy = SMALL,
             config: ProcessorConfig | None = None,
             options=None,
             sparsities=paper.SPARSITIES, verify: bool = True,
             backend: str | None = None) -> Fig6Result:
    sched_policy = coerce_policy(options)
    simulated, analytic = {}, {}
    for model in models:
        for nm in sparsities:
            comps = model_comparisons(model, nm, policy, config,
                                      sched_policy, verify, backend)
            simulated[(model, nm)] = aggregate_mem_ratio(comps)
            analytic[(model, nm)] = _analytic_model_mem_ratio(
                model, nm, sched_policy, policy)
    return Fig6Result(policy=policy.name, simulated=simulated,
                      analytic_full=analytic)


# ======================================================================
# Multi-core scaling (extension: ROADMAP "Multi-core sharding")
# ======================================================================
#: Core counts of the scaling study (1 is the baseline the speedups
#: are normalized to).
DEFAULT_CORE_COUNTS = (1, 2, 4, 8)


@dataclass
class ScalingResult:
    """Multi-core strong-scaling study of one kernel across CNNs.

    ``totals`` holds weighted whole-model makespan-cycle totals
    (multiplicity x scale factor, like Fig. 5); ``layers`` keeps the
    per-layer makespans for the acceptance gate (every layer's
    N-core makespan must not exceed its single-core cycles).
    """

    policy: str
    kernel: str
    backend: str
    core_counts: tuple[int, ...]
    #: {(model, nm): {cores: weighted total makespan cycles}}
    totals: dict[tuple[str, tuple[int, int]], dict[int, float]]
    #: {(model, nm): [(layer_name, {cores: makespan cycles}), ...]}
    layers: dict[tuple[str, tuple[int, int]], list]
    #: whether every simulated result matched the numpy reference
    all_verified: bool = True

    def speedup(self, model: str, nm: tuple[int, int],
                cores: int) -> float:
        per_cores = self.totals[(model, nm)]
        return per_cores[1] / per_cores[cores]

    def efficiency(self, model: str, nm: tuple[int, int],
                   cores: int) -> float:
        """Parallel efficiency: speedup / cores (1.0 = linear)."""
        return self.speedup(model, nm, cores) / cores

    def check(self) -> list[str]:
        """Gate problems (empty = pass): unverified results, a layer
        whose N-core makespan exceeds its single-core cycles, or a
        model whose top-core-count speedup is not > 1x."""
        problems = []
        if not self.all_verified:
            problems.append("a simulated result failed verification")
        for (model, nm), rows in self.layers.items():
            for layer, per_cores in rows:
                single = per_cores[1]
                for cores, cycles in per_cores.items():
                    if cycles > single:
                        problems.append(
                            f"{model} {nm[0]}:{nm[1]} {layer}: "
                            f"{cores}-core makespan {cycles:,.0f} exceeds "
                            f"single-core {single:,.0f}")
        top = max(self.core_counts)
        if top > 1:
            for model, nm in self.totals:
                if self.speedup(model, nm, top) <= 1.0:
                    problems.append(
                        f"{model} {nm[0]}:{nm[1]}: no speedup at "
                        f"{top} cores")
        return problems

    def render(self) -> str:
        multi = [c for c in self.core_counts if c > 1]
        headers = ["CNN", "N:M", "1-core cycles"]
        headers += [f"{c}-core speedup (eff)" for c in multi]
        rows = []
        for (model, nm), per_cores in sorted(self.totals.items()):
            row = [MODEL_NAMES.get(model, model), f"{nm[0]}:{nm[1]}",
                   per_cores[1]]
            for cores in multi:
                row.append(f"{self.speedup(model, nm, cores):.2f}x "
                           f"({pct(self.efficiency(model, nm, cores))})")
            rows.append(row)
        cores_txt = "/".join(str(c) for c in self.core_counts)
        title = (f"Multi-core scaling — {self.kernel} sharded across "
                 f"{cores_txt} cores [{self.backend}] "
                 f"(row-space sharding, makespan cycles, "
                 f"policy {self.policy!r})")
        return format_table(headers, rows, title=title)


def run_scaling(models=paper.MODELS, policy: ScalePolicy = SMALL,
                config: ProcessorConfig | None = None,
                options=None,
                core_counts=DEFAULT_CORE_COUNTS,
                kernel: str = PROPOSED,
                sparsities=paper.SPARSITIES, verify: bool = True,
                backend: str | None = None) -> ScalingResult:
    """Shard every layer of every model across 1..N simulated cores.

    All (model, nm, layer, cores) simulations go through the engine as
    one batch, so multicore shards fan out across the worker pool and
    re-renders are answered from the cache.  ``options`` accepts a
    :class:`~repro.eval.schedules.SchedulePolicy` like the figure
    drivers; each layer is sharded under its own resolved schedule.
    """
    config = config or ProcessorConfig.scaled_default()
    backend = resolve_backend(backend)
    core_counts = tuple(sorted(set(core_counts) | {1}))
    sched_policy = coerce_policy(options)
    jobs, meta = [], []
    for model in models:
        for nm in sparsities:
            layers = list(unique_gemm_layers(get_model(model)))
            for layer, mult in layers:
                schedule = _resolve_layer_schedule(
                    sched_policy, kernel, nm, model, layer, policy)
                scaled = padded_gemm(layer.gemm, *nm, policy=policy,
                                     tile_rows=schedule.tile_rows)
                weight = mult * (layer.gemm.macs / scaled.macs)
                for cores in core_counts:
                    jobs.append(SimJob.for_layer(
                        model, layer.name, nm, policy, kernel,
                        schedule=replace(schedule, cores=cores),
                        config=config, verify=verify, backend=backend))
                    meta.append((model, nm, layer.name, weight, cores))
    runs = get_engine().run(jobs)
    totals: dict = {}
    layers_out: dict = {}
    all_verified = True
    layer_cycles: dict = {}
    for (model, nm, layer, weight, cores), run in zip(meta, runs):
        key = (model, nm)
        totals.setdefault(key, {c: 0.0 for c in core_counts})
        totals[key][cores] += weight * run.stats.cycles
        layer_cycles.setdefault((key, layer), {})[cores] = run.stats.cycles
        all_verified &= run.verified or not verify
    for (key, layer), per_cores in layer_cycles.items():
        layers_out.setdefault(key, []).append((layer, per_cores))
    return ScalingResult(policy=policy.name, kernel=kernel,
                         backend=backend, core_counts=core_counts,
                         totals=totals, layers=layers_out,
                         all_verified=all_verified)


# ======================================================================
# Ablations (Section IV-A claims and design-space checks)
# ======================================================================
@dataclass
class AblationResult:
    title: str
    headers: list[str]
    rows: list[list]
    extra: dict = field(default_factory=dict)

    def render(self) -> str:
        return format_table(self.headers, self.rows, title=self.title)


def _ablation_job(kernel: str, nm=(1, 4), policy: ScalePolicy = SMALL,
                  config: ProcessorConfig | None = None,
                  schedule: Schedule = Schedule(),
                  verify: bool = True,
                  layer_name: str = "conv3_1_3x3",
                  backend: str | None = None) -> SimJob:
    """A job on a representative ResNet50 layer (default: conv3_x 3x3)."""
    return SimJob.for_layer("resnet50", layer_name, nm, policy,
                            kernel, schedule, config, verify, backend)


def run_dataflow_ablation(nm=(1, 4), policy: ScalePolicy = SMALL,
                          config: ProcessorConfig | None = None,
                          verify: bool = True,
                          backend: str | None = None) -> AblationResult:
    """A1: B-stationary is the best dataflow for Row-Wise-SpMM (IV-A)."""
    config = config or ProcessorConfig.scaled_default()
    # dataflow choice only matters when B exceeds the L2: use the
    # big-B early-network layer for this comparison
    dataflows = list(Dataflow)
    runs = get_engine().run([
        _ablation_job(BASELINE, nm, policy, config,
                      Schedule(dataflow=df), verify,
                      layer_name="conv2_1_3x3", backend=backend)
        for df in dataflows
    ])
    rows = []
    cycles = {}
    for df, run in zip(dataflows, runs):
        cycles[df] = run.stats.cycles
        rows.append([f"{df.value}-stationary", run.stats.cycles,
                     run.stats.vector_mem_instrs,
                     run.stats.l2_misses])
    best = min(cycles, key=cycles.get)
    return AblationResult(
        title=("A1 — Row-Wise-SpMM dataflow comparison "
               f"(best: {best.value}-stationary)"),
        headers=["dataflow", "cycles", "vector mem instrs", "L2 misses"],
        rows=rows,
        extra={"best": best, "cycles": cycles},
    )


def run_unroll_ablation(nm=(1, 4), policy: ScalePolicy = SMALL,
                        config: ProcessorConfig | None = None,
                        verify: bool = True,
                        backend: str | None = None) -> AblationResult:
    """A2: loop unrolling helps both kernels (IV-A uses x4)."""
    config = config or ProcessorConfig.scaled_default()
    unrolls = (1, 2, 4)
    runs = get_engine().run([
        _ablation_job(kernel, nm, policy, config,
                      Schedule(unroll=unroll), verify,
                      backend=backend)
        for unroll in unrolls
        for kernel in (BASELINE, PROPOSED)
    ])
    rows = []
    speedups = {}
    for unroll, base, prop in zip(unrolls, runs[0::2], runs[1::2]):
        speedup = base.stats.cycles / prop.stats.cycles
        speedups[unroll] = (base.stats.cycles, prop.stats.cycles)
        rows.append([f"x{unroll}", base.stats.cycles, prop.stats.cycles,
                     speedup])
    return AblationResult(
        title="A2 — loop unrolling (both kernels benefit; paper uses x4)",
        headers=["unroll", "Row-Wise-SpMM cycles", "Proposed cycles",
                 "speedup"],
        rows=rows,
        extra={"cycles": speedups},
    )


def run_tile_rows_ablation(nm=(1, 4), policy: ScalePolicy = SMALL,
                           config: ProcessorConfig | None = None,
                           verify: bool = True,
                           backend: str | None = None) -> AblationResult:
    """A3: pre-loaded tile height L (the paper uses L=16)."""
    config = config or ProcessorConfig.scaled_default()
    sizes = (4, 8, 16)
    runs = get_engine().run([
        _ablation_job(PROPOSED, nm, policy, config,
                      Schedule(tile_rows=tile_rows), verify,
                      backend=backend)
        for tile_rows in sizes
    ])
    rows = []
    cycles = {}
    for tile_rows, prop in zip(sizes, runs):
        cycles[tile_rows] = prop.stats.cycles
        rows.append([f"L={tile_rows}", prop.stats.cycles,
                     prop.stats.vector_mem_instrs])
    return AblationResult(
        title="A3 — pre-loaded B-tile rows (upper bound L <= M*VL/N)",
        headers=["tile rows", "Proposed cycles", "vector mem instrs"],
        rows=rows,
        extra={"cycles": cycles},
    )


def run_sparsity_sweep(policy: ScalePolicy = SMALL,
                       config: ProcessorConfig | None = None,
                       patterns=((1, 8), (1, 4), (2, 8), (1, 2), (2, 4),
                                 (4, 8)),
                       verify: bool = True,
                       backend: str | None = None) -> AblationResult:
    """A5: speedup and memory savings across N:M patterns.

    Extension beyond the paper (which evaluates 1:4 and 2:4): the
    memory-access reduction grows with density (more B loads replaced
    per row-tile), while the speedup stays in a band because the
    per-non-zero instruction ratio is constant.
    """
    config = config or ProcessorConfig.scaled_default()
    runs = get_engine().run([
        _ablation_job(kernel, nm, policy, config, Schedule(), verify,
                      backend=backend)
        for nm in patterns
        for kernel in (BASELINE, PROPOSED)
    ])
    rows = []
    speedups = {}
    for nm, base, prop in zip(patterns, runs[0::2], runs[1::2]):
        speedup = base.stats.cycles / prop.stats.cycles
        reduction = 1 - prop.stats.vector_mem_instrs \
            / base.stats.vector_mem_instrs
        speedups[nm] = speedup
        rows.append([f"{nm[0]}:{nm[1]}", f"{nm[0] / nm[1]:.0%}",
                     base.stats.cycles, prop.stats.cycles, speedup,
                     pct(reduction)])
    return AblationResult(
        title="A5 — N:M pattern sweep (extension; paper evaluates 1:4, 2:4)",
        headers=["pattern", "density", "Row-Wise cycles", "Proposed cycles",
                 "speedup", "mem saved"],
        rows=rows,
        extra={"speedups": speedups},
    )


def run_csr_ablation(nm=(1, 4), policy: ScalePolicy = SMALL,
                     config: ProcessorConfig | None = None,
                     verify: bool = True,
                     backend: str | None = None) -> AblationResult:
    """A4: unstructured CSR at equal density vs the structured kernels.

    The CSR job re-encodes the identical N:M matrix as plain CSR and
    executes the format's own ``csr-spmm`` kernel (the runner stages it
    by its spec's operand format; see ``repro.eval.runner.run_spmm``).
    """
    config = config or ProcessorConfig.scaled_default()
    base, prop, csr_run = get_engine().run([
        _ablation_job(kernel, nm, policy, config, verify=verify,
                      backend=backend)
        for kernel in (BASELINE, PROPOSED, CSR_KERNEL)
    ])
    csr_stats = csr_run.stats
    rows = [
        ["CSR row-wise (unstructured)", csr_stats.cycles,
         csr_stats.cycles / prop.stats.cycles],
        ["Row-Wise-SpMM (structured)", base.stats.cycles,
         base.stats.cycles / prop.stats.cycles],
        ["Proposed (vindexmac)", prop.stats.cycles, 1.0],
    ]
    return AblationResult(
        title="A4 — unstructured CSR vs structured kernels (equal density)",
        headers=["kernel", "cycles", "vs Proposed"],
        rows=rows,
        extra={"csr": csr_stats.cycles, "rowwise": base.stats.cycles,
               "proposed": prop.stats.cycles},
    )
