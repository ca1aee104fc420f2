"""The benchmark's inputs, generated from the workload seed.

* ``fig4-cold``: the paper's Fig. 4 job set (ResNet-50's unique GEMM
  layers x both kernels x 1:4/2:4 at ``small`` scale) on the
  functional ``batch-replay`` backend; the seed permutes submission
  order.
* ``sweep-cold``: a 4,608-job ``analytic-sampled`` grid (2 shapes x 2
  kernels x 3 N:M x 4 schedules x 6 L2 configs x 16 operand seeds);
  the seed offsets the operand seeds, so every seed gives fresh cache
  keys while the priced results stay the same.
* ``serve-mixed``: a request stream over the sweep at seed 0 (the
  server's pre-populated cache) with skewed popularity, plus a few
  never-seen tiny synthetic jobs on the default ``detailed`` backend.
"""

from __future__ import annotations

import random
from dataclasses import replace
from itertools import accumulate

FIG4_MODEL = "resnet50"
FIG4_SCALE = "small"
FIG4_BACKEND = "batch-replay"

SWEEP_BACKEND = "analytic-sampled"
SWEEP_SHAPES = ((96, 384, 96), (128, 512, 128))
SWEEP_KERNELS = ("rowwise-spmm", "indexmac-spmm")
SWEEP_PATTERNS = ((1, 4), (2, 4), (2, 8))
SWEEP_TILES = ((8, 1), (8, 4), (16, 1), (16, 4))  #: (tile_rows, unroll)
SWEEP_LINE_BYTES = (32, 64, 128)
SWEEP_L2_KIB = (64, 96)
SWEEP_SEEDS = 16
#: The grid point whose 48 trace geometries have a ``detailed``
#: reference (the scaled default processor: 96 KiB L2, 64 B lines).
SWEEP_DETAILED_L2 = (96, 64)

#: Request mix of ``serve-mixed``.
SERVE_RATE = 50.0           #: requests per second (open loop)
SERVE_COLD_EVERY = 25       #: one request in 25 is cold
SERVE_COLD_JOBS = 2         #: never-seen tiny detailed jobs per cold request
SERVE_BATCH_SHARE = 0.1     #: warm small-batch submissions
SERVE_BATCH_SIZES = (2, 4)  #: inclusive range of a small batch
SERVE_ZIPF = 1.1            #: popularity skew over the warm keys


def fig4_label(job) -> str:
    return f"{job.layer}/{job.kernel}/{job.nm[0]}:{job.nm[1]}"


def fig4_jobs(backend: str = FIG4_BACKEND, seed: int | None = None):
    """The Fig. 4 job set; ``seed`` shuffles the submission order."""
    from repro.serve.client import fig4_jobs as paper_fig4_jobs

    jobs = paper_fig4_jobs(FIG4_MODEL, scale=FIG4_SCALE, backend=backend)
    if seed is not None:
        random.Random(seed).shuffle(jobs)
    return jobs


def sweep_label(job) -> str:
    """The job's grid point without its operand seed: the analytic
    backend never reads operand values, so the seed does not change
    the priced result."""
    rows, k, n = job.shape
    return (f"{rows}x{k}x{n}/{job.kernel}/{job.nm[0]}:{job.nm[1]}/"
            f"t{job.schedule.tile_rows}u{job.schedule.unroll}/"
            f"l2-{job.config.l2.size_bytes // 1024}k-"
            f"{job.config.l2.line_bytes}b")


def _sweep_configs():
    from repro.arch.config import ProcessorConfig

    base = ProcessorConfig.scaled_default()
    return [replace(base, l2=replace(base.l2, size_bytes=kib * 1024,
                                     line_bytes=line))
            for kib in SWEEP_L2_KIB for line in SWEEP_LINE_BYTES]


def _sweep_schedules():
    from repro.kernels.compiler.spec import Schedule

    return [Schedule(tile_rows=t, unroll=u) for t, u in SWEEP_TILES]


def sweep_jobs(seed: int, backend: str = SWEEP_BACKEND,
               configs=None, seeds=None):
    """The sweep grid with operand seeds ``16*seed .. 16*seed+15``."""
    from repro.eval.engine import SimJob

    configs = _sweep_configs() if configs is None else configs
    if seeds is None:
        seeds = range(SWEEP_SEEDS * seed, SWEEP_SEEDS * (seed + 1))
    return [
        SimJob.for_shape(rows, k, n, nm, kernel, seed=operand_seed,
                         schedule=schedule, config=config,
                         backend=backend)
        for (rows, k, n) in SWEEP_SHAPES
        for kernel in SWEEP_KERNELS
        for nm in SWEEP_PATTERNS
        for schedule in _sweep_schedules()
        for config in configs
        for operand_seed in seeds
    ]


def sweep_detailed_jobs(backend: str):
    """One job per trace geometry at the reference grid point, operand
    seed 0 (48 jobs)."""
    kib, line = SWEEP_DETAILED_L2
    configs = [c for c in _sweep_configs()
               if (c.l2.size_bytes // 1024, c.l2.line_bytes) == (kib, line)]
    return sweep_jobs(0, backend=backend, configs=configs, seeds=[0])


def cold_job(seed: int, index: int):
    """A never-seen tiny synthetic job on the default backend."""
    from repro.eval.engine import SimJob

    kernel = "indexmac-spmm" if index % 2 else "rowwise-spmm"
    nm = (1, 4) if index % 3 else (2, 4)
    return SimJob.for_shape(8, 32, 16, nm, kernel,
                            seed=1_000_000 + 10_000 * seed + index)


def serve_requests(seed: int, seconds: float, warm_pool):
    """The ``serve-mixed`` request stream: ``(due_s, kind, jobs)``.

    Requests are due at a fixed rate.  Every ``SERVE_COLD_EVERY``-th
    request (from a seeded offset) submits ``SERVE_COLD_JOBS``
    never-seen tiny jobs, so cold work arrives evenly and reaches the
    server's worker pool; the others draw their jobs from
    ``warm_pool`` (jobs already in the server's cache) with
    Zipf-skewed popularity over a seed-permuted ranking.
    """
    rng = random.Random(seed)
    ranking = list(range(len(warm_pool)))
    rng.shuffle(ranking)
    cumulative = list(accumulate(1.0 / (rank + 1) ** SERVE_ZIPF
                                 for rank in range(len(ranking))))
    offset = rng.randrange(SERVE_COLD_EVERY)
    count = max(1, int(SERVE_RATE * seconds))
    requests = []
    cold = 0
    for i in range(count):
        due = i / SERVE_RATE
        if i % SERVE_COLD_EVERY == offset:
            jobs = [cold_job(seed, cold + j) for j in range(SERVE_COLD_JOBS)]
            requests.append((due, "cold", jobs))
            cold += SERVE_COLD_JOBS
            continue
        size = 1
        if rng.random() < SERVE_BATCH_SHARE:
            size = rng.randint(*SERVE_BATCH_SIZES)
        picks = rng.choices(ranking, cum_weights=cumulative, k=size)
        requests.append((due, "warm", [warm_pool[p] for p in picks]))
    return requests
