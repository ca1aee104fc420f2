"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``table1``      print the Table I processor configuration
``fig4``        per-layer ResNet50 speedups (Fig. 4)
``fig5``        total-CNN speedups (Fig. 5)
``fig6``        normalized memory accesses (Fig. 6)
``ablations``   the A1-A5 design-space studies
``tune``        autotune the kernel schedule (tile rows, unroll,
                dataflow, cores; optionally vlmax / init-C) through
                the cached engine
``bench``       regenerate any subset of paper artifacts through the
                experiment engine, with a progress/summary report
``scaling``     multi-core sharding study (1/2/4/8-core speedup and
                efficiency per model and N:M pattern)
``cache``       inspect, vacuum, or clear the on-disk result cache
``serve``       run the shared-cache experiment server (HTTP)
``submit``      submit a job batch to a running experiment server
``layers``      list a model's convolutions and GEMM shapes
``encode``      assemble one instruction and show its encoding
``quickcheck``  30-second end-to-end sanity run (tiny scale)
``crosscheck``  gate ``batch-replay`` against ``detailed``

Per-layer schedule policies
---------------------------
``fig4``/``fig5``/``fig6``/``bench``/``scaling`` accept ``--policy
fixed|heuristic|tuned``: ``fixed`` (default) applies one schedule to
every layer, ``heuristic`` derives a deterministic shape-driven
schedule per layer, and ``tuned`` resolves each layer through a
schedule book (``--schedule-book FILE``, produced by ``repro tune
--per-layer``).  ``--scale tiny|small|medium`` selects the workload
scale policy (scale names passed to ``--policy`` keep working for
backwards compatibility).  The commands also accept ``--schedule
FILE`` to run with one tuned kernel schedule produced by ``repro
tune`` instead of the paper's hand-picked one, and ``--cores N`` to
shard every kernel's output rows across N simulated cores (per-core
traces simulated in parallel by the engine's worker pool, merged into
makespan cycles).

Experiment engine
-----------------
The simulation-backed commands (``fig4``/``fig5``/``fig6``/
``ablations``/``bench``) accept ``--jobs N`` (worker processes, ``0``
meaning one per CPU), ``--no-cache`` (skip the on-disk result cache
at ``$REPRO_CACHE_DIR``, default ``~/.cache/repro/sim``) and
``--backend`` (timing backend; also ``$REPRO_BACKEND``).  Identical
(kernel, workload, config, backend) simulations are executed exactly
once and shared across figures and invocations; see
:mod:`repro.eval.engine` for the cache-invalidation rules.

Each job is answered by the engine's in-memory result LRU, else the
on-disk pack store, else computed: the cold jobs the planner can
price from their geometry alone (most ``analytic-sampled`` jobs) in
one in-process bulk pass, the rest one by one (on the worker pool
when ``--jobs`` is above 1).  The engine's fast paths have their own
knobs: ``$REPRO_POOL_IDLE`` (idle-reap timeout of the persistent
worker pool, seconds, default 60) and ``$REPRO_CACHE_LRU`` (the
engine's result LRU entries, default 256, ``0`` disables it).
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.arch.config import ProcessorConfig
from repro.arch.timing import available_backends, resolve_backend
from repro.errors import KernelError, ReproError, SparseFormatError
from repro.eval.engine import (
    ExperimentEngine,
    SimJob,
    atomic_write_text,
    set_engine,
)
from repro.eval.experiments import (
    run_csr_ablation,
    run_dataflow_ablation,
    run_fig4,
    run_fig5,
    run_fig6,
    run_scaling,
    run_sparsity_sweep,
    run_table1,
    run_tile_rows_ablation,
    run_unroll_ablation,
)
from repro.eval.report import format_table
from repro.eval.tuning import DEFAULT_SWEEP_BACKEND
from repro.isa.assembler import assemble
from repro.isa.encoding import encode
from repro.nn.models import get_model, list_models
from repro.nn.workload import POLICIES


#: Schedule-policy names (``--policy``); scale-policy names remain
#: accepted through the same flag for backwards compatibility.
SCHEDULE_POLICIES = ("fixed", "heuristic", "tuned")

_SCALE_CHOICES = sorted(set(POLICIES) - {"full"})


def _add_policy_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--policy", default=None,
        choices=[*SCHEDULE_POLICIES, *_SCALE_CHOICES],
        help="per-layer schedule policy (fixed|heuristic|tuned; "
             "default: fixed).  Scale-policy names (tiny|small|medium) "
             "are also accepted here for backwards compatibility — "
             "prefer --scale for those")
    parser.add_argument(
        "--scale", default=None, choices=_SCALE_CHOICES,
        help="workload scale policy (default: small)")


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="worker processes (0 = one per CPU; "
                             "default: $REPRO_JOBS or 1)")
    parser.add_argument("--no-cache", action="store_true",
                        help="do not read or write the on-disk "
                             "simulation result cache")
    _add_backend_arg(parser)


def _add_schedule_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--schedule", default=None, metavar="FILE",
                        help="JSON schedule from `repro tune` to use "
                             "instead of the paper default")
    parser.add_argument("--schedule-book", default=None, metavar="FILE",
                        help="per-layer schedule book from `repro tune "
                             "--per-layer` (implies --policy tuned)")
    parser.add_argument("--cores", type=int, default=None, metavar="N",
                        help="shard every kernel's output rows across "
                             "N simulated cores (default: the "
                             "schedule's core count, 1)")


def _schedule(args):
    """The tuned Schedule selected by --schedule, or None."""
    path = getattr(args, "schedule", None)
    if not path:
        return None
    from repro.eval.tuning import load_tuned_schedule

    return load_tuned_schedule(path)


def _fixed_schedule(args, cores):
    """The effective fixed schedule of --schedule/--cores (None =
    paper default single-core)."""
    schedule = _schedule(args)
    if cores is not None:
        from dataclasses import replace

        from repro.kernels import Schedule

        schedule = replace(schedule or Schedule(), cores=cores)
    return schedule


def _schedule_policy(args, cores="auto"):
    """The schedule source selected by --policy / --schedule /
    --schedule-book / --cores.

    Returns ``None`` (paper default) or a tuned :class:`Schedule` for
    the fixed policy, else a :class:`~repro.eval.schedules.
    SchedulePolicy` that the drivers resolve per layer.  ``cores``
    defaults to the command's ``--cores`` value; pass ``None`` for
    commands (``scaling``) that sweep their own core ladder.
    """
    from repro.errors import TuningError

    if cores == "auto":
        cores = getattr(args, "cores", None)
        if cores is not None and cores < 1:
            raise KernelError(f"--cores must be a positive core count, "
                              f"got {cores}")
    explicit = getattr(args, "policy", None)
    name = explicit if explicit in SCHEDULE_POLICIES else None
    book_path = getattr(args, "schedule_book", None)
    schedule_path = getattr(args, "schedule", None)
    if name is None and book_path:
        name = "tuned"
    # conflicting flag combinations must fail loudly, never silently
    # drop a file the user expected to participate in the run
    if name == "heuristic" and (schedule_path or book_path):
        raise TuningError(
            "--policy heuristic derives schedules from layer shapes; "
            "it conflicts with --schedule/--schedule-book")
    if name == "tuned" and schedule_path:
        raise TuningError(
            "--schedule conflicts with --policy tuned; per-layer "
            "schedules come from the book (--schedule-book)")
    if explicit == "fixed" and book_path:
        raise TuningError(
            "--schedule-book needs --policy tuned (or omit --policy)")
    if name == "tuned":
        from repro.eval.schedules import TunedPolicy, load_schedule_book

        if not book_path:
            raise TuningError(
                "--policy tuned needs --schedule-book FILE (create one "
                "with `repro tune --per-layer`)")
        return TunedPolicy(book=load_schedule_book(book_path),
                           cores=cores)
    if name == "heuristic":
        from repro.eval.schedules import HeuristicPolicy

        return HeuristicPolicy(cores=cores or 1)
    return _fixed_schedule(args, cores)


def _add_backend_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", default=None,
                        choices=available_backends(),
                        help="timing backend (default: $REPRO_BACKEND "
                             "or 'detailed')")


def _install_engine(args) -> ExperimentEngine:
    """Build the engine selected by --jobs/--no-cache (env fills gaps)."""
    engine = ExperimentEngine.from_env(
        jobs=getattr(args, "jobs", None),
        cache=False if getattr(args, "no_cache", False) else None)
    set_engine(engine)
    return engine


def _policy_and_config(args):
    """The workload scale policy (--scale, or a legacy scale name
    passed through --policy) and the simulated processor config."""
    name = getattr(args, "scale", None)
    chosen = getattr(args, "policy", None)
    if name is None and chosen in POLICIES:
        name = chosen
    return POLICIES[name or "small"], ProcessorConfig.scaled_default()


def _backend(args) -> str:
    return resolve_backend(getattr(args, "backend", None))


def cmd_table1(args) -> int:
    print(run_table1().render())
    return 0


def cmd_fig4(args) -> int:
    policy, config = _policy_and_config(args)
    engine = _install_engine(args)
    print(run_fig4(model=args.model, policy=policy, config=config,
                   options=_schedule_policy(args),
                   backend=_backend(args)).render())
    print(f"\n[{engine.summary()}]")
    return 0


def cmd_fig5(args) -> int:
    policy, config = _policy_and_config(args)
    engine = _install_engine(args)
    print(run_fig5(policy=policy, config=config, options=_schedule_policy(args),
                   backend=_backend(args)).render())
    print(f"\n[{engine.summary()}]")
    return 0


def cmd_fig6(args) -> int:
    policy, config = _policy_and_config(args)
    engine = _install_engine(args)
    print(run_fig6(policy=policy, config=config, options=_schedule_policy(args),
                   backend=_backend(args)).render())
    print(f"\n[{engine.summary()}]")
    return 0


def cmd_ablations(args) -> int:
    policy, config = _policy_and_config(args)
    engine = _install_engine(args)
    backend = _backend(args)
    for runner in (run_dataflow_ablation, run_unroll_ablation,
                   run_tile_rows_ablation, run_csr_ablation,
                   run_sparsity_sweep):
        print(runner(policy=policy, config=config,
                     backend=backend).render())
        print()
    print(f"[{engine.summary()}]")
    return 0


# ======================================================================
# bench — regenerate paper artifacts through the engine
# ======================================================================
#: name -> (title, results file stem,
#:           driver(policy, config, backend, options) -> result).
#: ``options`` is the tuned Schedule from --schedule (None = paper
#: default); the ablation drivers sweep their own options and ignore it.
ARTIFACTS = {
    "table1": ("Table I", "table1",
               lambda policy, config, backend, options: run_table1()),
    "fig4": ("Fig. 4", "fig4",
             lambda policy, config, backend, options: run_fig4(
                 policy=policy, config=config, backend=backend,
                 options=options)),
    "fig5": ("Fig. 5", "fig5",
             lambda policy, config, backend, options: run_fig5(
                 policy=policy, config=config, backend=backend,
                 options=options)),
    "fig6": ("Fig. 6", "fig6",
             lambda policy, config, backend, options: run_fig6(
                 policy=policy, config=config, backend=backend,
                 options=options)),
    "a1": ("A1 dataflow ablation", "ablation_dataflow",
           lambda policy, config, backend, options: run_dataflow_ablation(
               policy=policy, config=config, backend=backend)),
    "a2": ("A2 unroll ablation", "ablation_unroll",
           lambda policy, config, backend, options: run_unroll_ablation(
               policy=policy, config=config, backend=backend)),
    "a3": ("A3 tile-rows ablation", "ablation_tile_rows",
           lambda policy, config, backend, options: run_tile_rows_ablation(
               policy=policy, config=config, backend=backend)),
    "a4": ("A4 CSR ablation", "ablation_csr",
           lambda policy, config, backend, options: run_csr_ablation(
               policy=policy, config=config, backend=backend)),
    "a5": ("A5 sparsity sweep", "ablation_sparsity",
           lambda policy, config, backend, options: run_sparsity_sweep(
               policy=policy, config=config, backend=backend)),
    "scaling": ("Multi-core scaling", "scaling",
                lambda policy, config, backend, options:
                _scaling_artifact(policy, config, backend, options)),
}


def _scaling_artifact(policy, config, backend, options):
    """The bench `scaling` driver honors --cores: an explicit core
    count narrows the sweep to (1, N) instead of the default ladder."""
    from repro.eval.experiments import DEFAULT_CORE_COUNTS
    from repro.eval.schedules import SchedulePolicy
    from repro.kernels import Schedule

    core_counts = DEFAULT_CORE_COUNTS
    cores = None
    if isinstance(options, Schedule):
        cores = options.cores
    elif isinstance(options, SchedulePolicy):
        cores = getattr(options, "cores", None)
    if cores is not None and cores > 1:
        core_counts = (1, cores)
    return run_scaling(policy=policy, config=config, backend=backend,
                       options=options, core_counts=core_counts)


def cmd_bench(args) -> int:
    policy, config = _policy_and_config(args)
    engine = _install_engine(args)
    names = list(args.artifacts)
    if "all" in names:
        names = list(ARTIFACTS)
    names = list(dict.fromkeys(names))  # dedupe, keep order
    out_dir = Path(args.out)
    start_all = time.perf_counter()
    backend = _backend(args)
    schedule = _schedule_policy(args)
    for i, name in enumerate(names, 1):
        title, stem, driver = ARTIFACTS[name]
        start = time.perf_counter()
        before = engine.counters.snapshot()
        result = driver(policy, config, backend, schedule)
        text = result.render()
        elapsed = time.perf_counter() - start
        delta = engine.counters.since(before)
        if delta.sim_seconds > 0:
            speed = f" ({delta.throughput / 1e3:,.0f}k instr/s simulated)"
        elif delta.simulated == 0 and delta.total:
            # fully-warm artifact: instr/s is meaningless, report the
            # cache instead
            speed = f" ({delta.hit_rate:.0%} cache hits, 0 simulations)"
        else:
            speed = ""
        path = out_dir / f"{stem}.txt"
        atomic_write_text(path, text + "\n")
        print(f"[{i}/{len(names)}] {title} regenerated in "
              f"{elapsed:.1f}s{speed} -> {path}")
        if args.show:
            print(text)
            print()
    total = time.perf_counter() - start_all
    print(f"\n{len(names)} artifact(s) at policy {policy.name!r} "
          f"in {total:.1f}s")
    print(engine.summary())
    return 0


# ======================================================================
# tune — schedule autotuning through the cached engine
# ======================================================================
def _parse_nm(text: str) -> tuple[int, int]:
    try:
        n, m = (int(part) for part in text.split(":"))
    except ValueError:
        raise SparseFormatError(
            f"--nm expects N:M (e.g. 1:4), got {text!r}") from None
    return n, m


def cmd_tune(args) -> int:
    from repro.eval.tuning import save_tuned_schedule, tune

    policy, config = _policy_and_config(args)
    engine = _install_engine(args)
    if args.per_layer:
        return _tune_per_layer(args, policy, config, engine)
    kwargs = dict(policy=policy, layer=args.layer)
    if args.shape is not None:
        kwargs = dict(shape=tuple(args.shape), seed=args.seed)
    result = tune(args.kernel, _parse_nm(args.nm), config=config,
                  backend=_backend(args), engine=engine,
                  cores=tuple(args.cores), sweep_vlmax=args.sweep_vlmax,
                  sweep_init_c=args.sweep_init_c, **kwargs)
    text = result.render()
    # persist artifacts before printing: a closed stdout (broken pipe)
    # must not lose the tuning outcome
    if args.table_out:
        atomic_write_text(Path(args.table_out), text + "\n")
    if args.out:
        save_tuned_schedule(args.out, result)
    print(text)
    print(f"\n[{engine.summary()}]")
    if args.table_out:
        print(f"tuning table -> {args.table_out}")
    if args.out:
        print(f"best schedule -> {args.out}  "
              f"(use it with --schedule on fig4/fig5/fig6/bench)")
    if args.check:
        ok = True
        if not result.all_verified:
            print("FAIL: a sweep point produced an unverified result")
            ok = False
        if not result.best_beats_default:
            print("FAIL: tuned schedule is slower than the paper default")
            ok = False
        if not ok:
            return 1
    return 0


def _tune_per_layer(args, policy, config, engine) -> int:
    """`repro tune --per-layer`: every distinct layer of a model,
    cross-backend, persisted as a schedule book."""
    from repro.eval.schedules import save_schedule_book
    from repro.eval.tuning import tune_per_layer

    result = tune_per_layer(
        args.kernel, _parse_nm(args.nm), model=args.model, policy=policy,
        config=config, backend=_backend(args),
        sweep_backend=args.sweep_backend, top_k=args.top_k,
        cores=tuple(args.cores), sweep_vlmax=args.sweep_vlmax,
        sweep_init_c=args.sweep_init_c, layers=args.layers,
        engine=engine)
    text = result.render()
    # persist artifacts before printing: a closed stdout (broken pipe)
    # must not lose the tuning outcome
    if args.table_out:
        atomic_write_text(Path(args.table_out), text + "\n")
    if args.book_out:
        save_schedule_book(args.book_out, result.to_book())
    print(text)
    print(f"\n[{engine.summary()}]")
    if args.table_out:
        print(f"tuning table -> {args.table_out}")
    if args.book_out:
        print(f"schedule book -> {args.book_out}  (use it with "
              f"--policy tuned --schedule-book on fig4/fig5/fig6/bench/"
              f"scaling)")
    if args.check:
        ok = True
        if not result.all_verified:
            print("FAIL: a sweep point produced an unverified result")
            ok = False
        if not result.best_beats_default:
            print("FAIL: a layer's tuned schedule is slower than the "
                  "paper default")
            ok = False
        if not ok:
            return 1
    return 0


# ======================================================================
# scaling — multi-core sharding study
# ======================================================================
def cmd_scaling(args) -> int:
    policy, config = _policy_and_config(args)
    engine = _install_engine(args)
    result = run_scaling(models=tuple(args.models), policy=policy,
                         config=config, options=_schedule_policy(args, cores=None),
                         core_counts=tuple(args.cores),
                         kernel=args.kernel, backend=_backend(args))
    text = result.render()
    if args.table_out:
        atomic_write_text(Path(args.table_out), text + "\n")
    print(text)
    print(f"\n[{engine.summary()}]")
    if args.table_out:
        print(f"scaling table -> {args.table_out}")
    if args.check:
        problems = result.check()
        for problem in problems:
            print(f"FAIL: {problem}")
        if problems:
            return 1
        top = max(result.core_counts)
        print(f"scaling check ok: all results verified, every layer's "
              f"makespan <= single-core cycles, >1x speedup at "
              f"{top} cores")
    return 0


# ======================================================================
# cache — inspect/clear the on-disk simulation result cache
# ======================================================================
def cmd_cache(args) -> int:
    from repro.eval.engine import CACHE_SCHEMA, ResultCache

    cache = ResultCache()
    count, size = cache.usage()
    print(f"cache dir:    {cache.root}")
    print(f"cache schema: {CACHE_SCHEMA}")
    print(f"entries:      {count}")
    print(f"total size:   {size / 1024:.1f} KiB")
    for backend, entries in cache.backend_counts().items():
        print(f"  {backend + ':':20s}{entries} entries")
    if args.vacuum:
        files_removed, reclaimed = cache.vacuum()
        _, size_after = cache.usage()
        print(f"vacuumed:     {files_removed} old segment(s) removed, "
              f"{reclaimed / 1024:.1f} KiB reclaimed "
              f"(now {size_after / 1024:.1f} KiB)")
    if args.clear:
        removed = cache.clear()
        print(f"cleared:      {removed} entries")
    return 0


# ======================================================================
# serve / submit — the shared-cache experiment server
# ======================================================================
def cmd_serve(args) -> int:
    from repro.serve.http import serve_forever
    from repro.serve.service import ExperimentService, ServeConfig

    engine = ExperimentEngine.from_env(
        jobs=getattr(args, "jobs", None),
        cache=False if getattr(args, "no_cache", False) else None)
    config = ServeConfig.from_env(
        batch_window=args.window, max_batch=args.batch,
        interactive_depth=args.depth, bulk_depth=args.bulk_depth,
        retry_after=args.retry_after)
    service = ExperimentService(engine=engine, config=config)

    def announce(server):
        print(f"serving on {server.url}  "
              f"(window {config.batch_window * 1e3:g}ms, batch "
              f"{config.max_batch}, depth {config.interactive_depth}"
              f"/{config.bulk_depth}, workers {engine.jobs}, cache "
              f"{engine.cache.root if engine.cache else 'off'})",
              flush=True)

    try:
        serve_forever(service, host=args.host, port=args.port,
                      announce=announce)
    except KeyboardInterrupt:
        pass
    print("server stopped")
    return 0


def cmd_submit(args) -> int:
    import json

    from repro.serve.client import ServeClient, fig4_jobs

    with ServeClient(args.url, timeout=args.timeout) as client:
        if args.wait_ready:
            client.wait_until_ready(args.wait_ready)
        if args.shutdown:
            client.shutdown()
            print("server shutdown requested")
            return 0
        if args.stats:
            print(json.dumps(client.stats(), indent=2))
            return 0
        jobs = fig4_jobs(args.model, scale=args.scale,
                         sparsities=[_parse_nm(t) for t in args.nm],
                         backend=args.backend)
        start = time.perf_counter()
        response = client.submit(jobs, lane=args.lane)
        elapsed_ms = 1e3 * (time.perf_counter() - start)
    counts = response["counts"]
    errors = [r for r in response["results"] if "error" in r]
    print(f"batch {response['batch']} ({args.lane}): "
          f"{len(jobs)} job(s) in {elapsed_ms:,.1f}ms -- "
          f"{counts['warm']} warm, {counts['joined']} joined, "
          f"{counts['queued']} queued, {len(errors)} error(s)")
    for result in errors:
        print(f"  job {result['index']}: {result['error']}")
    if args.expect_warm and (errors or counts["warm"] != len(jobs)):
        print(f"FAIL: expected an all-warm batch, got {counts}")
        return 1
    return 1 if errors else 0


def cmd_layers(args) -> int:
    layers = get_model(args.model)
    rows = [[l.name, f"{l.in_channels}->{l.out_channels}",
             f"{l.kernel_h}x{l.kernel_w}/{l.stride}",
             f"{l.in_h}x{l.in_w}", str(l.gemm)] for l in layers]
    print(format_table(
        ["layer", "channels", "kernel", "input", "GEMM (rows x K x N)"],
        rows, title=f"{args.model}: {len(layers)} convolutions"))
    return 0


def cmd_encode(args) -> int:
    program = assemble(args.instruction)
    for instr in program:
        word = encode(instr)
        print(f"{word:#010x}  {word:032b}  {instr.asm()}")
    return 0


def cmd_quickcheck(args) -> int:
    from repro.eval.comparison import BASELINE, PROPOSED

    # sanity runs always re-simulate: a cached quickcheck checks nothing
    engine = ExperimentEngine.from_env(jobs=getattr(args, "jobs", None),
                                       cache=False)
    set_engine(engine)
    config = ProcessorConfig.scaled_default()
    backend = _backend(args)
    patterns = ((1, 4), (2, 4))
    runs = engine.run([
        SimJob.for_shape(16, 64, 32, nm, kernel, seed=0, config=config,
                         backend=backend)
        for nm in patterns
        for kernel in (BASELINE, PROPOSED)
    ])
    ok = True
    for nm, base, prop in zip(patterns, runs[0::2], runs[1::2]):
        speedup = base.cycles / prop.cycles
        saved = 1 - prop.stats.vector_mem_instrs / \
            base.stats.vector_mem_instrs
        status = "ok" if speedup > 1.0 else "FAIL"
        ok &= speedup > 1.0
        # a non-functional backend executes nothing, so nothing is
        # checked against the numpy reference
        results = ("results verified" if base.verified and prop.verified
                   else "results not checked")
        print(f"{nm[0]}:{nm[1]}  speedup {speedup:.2f}x  "
              f"mem saved {saved:.0%}  {results}  "
              f"[{backend}] [{status}]")
    return 0 if ok else 1


def cmd_crosscheck(args) -> int:
    """Gate approximate backends against `detailed` (CI smoke job)."""
    import numpy as np

    from repro.analytic.validation import validate_backend
    from repro.eval.comparison import BASELINE, PROPOSED
    from repro.nn.workload import make_workload

    backends = (args.backend if args.backend != ["all"]
                else [b for b in available_backends() if b != "detailed"])
    ok = True
    for backend in backends:
        print(f"-- {backend} vs detailed --")
        for rows, k, n, nm in ((64, 64, 32, (1, 4)), (64, 128, 32, (2, 4)),
                               (32, 64, 64, (2, 8))):
            rng = np.random.default_rng(0)
            a, b = make_workload(rows, k, n, *nm, rng)
            for kernel in (BASELINE, PROPOSED):
                report = validate_backend(a, b, kernel, backend=backend,
                                          tolerance=args.tolerance)
                print(f"{rows}x{k}x{n} {nm[0]}:{nm[1]}  {report.summary()}")
                ok &= report.ok
    return 0 if ok else 1


def cmd_calibrate(args) -> int:
    """Fit the analytic-sampled calibration table from detailed runs."""
    from pathlib import Path as _Path

    from repro.analytic.calibration import (
        DEFAULT_TABLE_PATH,
        reset_cache,
    )
    from repro.analytic.fit import run_calibration

    policy, config = _policy_and_config(args)
    engine = _install_engine(args)
    table, errors = run_calibration(model=args.model, policy=policy,
                                    config=config)
    out = _Path(args.out) if args.out else DEFAULT_TABLE_PATH
    table.save(out)
    reset_cache()
    abs_errors = sorted(errors, key=lambda e: -abs(e[1]))
    print(f"fitted {len(errors)} samples at policy {policy.name!r}: "
          f"relative RMS error {table.residual:.2%}, "
          f"worst {abs_errors[0][1]:+.2%} ({abs_errors[0][0]})")
    if args.show_errors:
        for label, err in abs_errors:
            print(f"  {label:48s} {err:+.2%}")
    print(f"[{engine.summary()}]")
    print(f"calibration table -> {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="IndexMAC reproduction (DATE 2024, arXiv:2311.07241)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table I configuration").set_defaults(
        fn=cmd_table1)

    p = sub.add_parser("fig4", help="per-layer speedups (Fig. 4)")
    p.add_argument("--model", default="resnet50", choices=list_models())
    _add_policy_arg(p)
    _add_engine_args(p)
    _add_schedule_arg(p)
    p.set_defaults(fn=cmd_fig4)

    p = sub.add_parser("fig5", help="total-CNN speedups (Fig. 5)")
    _add_policy_arg(p)
    _add_engine_args(p)
    _add_schedule_arg(p)
    p.set_defaults(fn=cmd_fig5)

    p = sub.add_parser("fig6", help="memory accesses (Fig. 6)")
    _add_policy_arg(p)
    _add_engine_args(p)
    _add_schedule_arg(p)
    p.set_defaults(fn=cmd_fig6)

    p = sub.add_parser("ablations", help="A1-A5 design-space studies")
    _add_policy_arg(p)
    _add_engine_args(p)
    p.set_defaults(fn=cmd_ablations)

    p = sub.add_parser(
        "bench",
        help="regenerate paper artifacts through the experiment engine")
    p.add_argument("--artifacts", nargs="+", default=["all"],
                   choices=["all", *ARTIFACTS],
                   help="artifact subset (default: all)")
    p.add_argument("--out", default="benchmarks/results", metavar="DIR",
                   help="directory for the rendered *.txt artifacts "
                        "(default: benchmarks/results)")
    p.add_argument("--show", action="store_true",
                   help="also print each rendered artifact")
    _add_policy_arg(p)
    _add_engine_args(p)
    _add_schedule_arg(p)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser(
        "tune",
        help="autotune the kernel schedule through the cached engine")
    p.add_argument("--kernel", default="indexmac-spmm",
                   choices=["rowwise-spmm", "indexmac-spmm"],
                   help="kernel whose schedule to tune")
    p.add_argument("--nm", default="1:4", metavar="N:M",
                   help="sparsity pattern (default: 1:4)")
    p.add_argument("--per-layer", action="store_true",
                   help="tune every distinct layer GEMM of --model "
                        "cross-backend (broad sweep on --sweep-backend, "
                        "top-K finalists re-ranked on --backend) and "
                        "write the per-layer schedule book")
    p.add_argument("--model", default="resnet50", choices=list_models(),
                   help="model whose layers to tune (--per-layer; "
                        "default: resnet50)")
    p.add_argument("--layers", nargs="+", default=None, metavar="NAME",
                   help="restrict --per-layer to these unique layers")
    p.add_argument("--top-k", type=int, default=3, metavar="K",
                   help="finalists per layer re-simulated on the final "
                        "backend (--per-layer; default: 3)")
    p.add_argument("--sweep-backend", default=DEFAULT_SWEEP_BACKEND,
                   choices=available_backends(),
                   help="timing backend of the broad --per-layer sweep "
                        f"(default: {DEFAULT_SWEEP_BACKEND})")
    p.add_argument("--book-out",
                   default="benchmarks/results/schedule_book.json",
                   metavar="FILE",
                   help="where to persist the --per-layer schedule "
                        "book (empty string to skip)")
    p.add_argument("--layer", default="conv3_1_3x3", metavar="NAME",
                   help="representative ResNet50 layer to tune on")
    p.add_argument("--shape", nargs=3, type=int, default=None,
                   metavar=("ROWS", "K", "N"),
                   help="tune on a synthetic GEMM instead of a layer")
    p.add_argument("--seed", type=int, default=0,
                   help="synthetic GEMM seed (with --shape)")
    p.add_argument("--out", default="benchmarks/results/tuned_schedule.json",
                   metavar="FILE",
                   help="where to persist the winning schedule "
                        "(empty string to skip)")
    p.add_argument("--table-out", default="benchmarks/results/tuning.txt",
                   metavar="FILE",
                   help="where to archive the tuning table "
                        "(empty string to skip)")
    p.add_argument("--check", action="store_true",
                   help="exit non-zero unless every sweep point "
                        "verified and the winner beats or matches the "
                        "paper default schedule")
    p.add_argument("--cores", nargs="+", type=int, default=[1],
                   metavar="N",
                   help="core counts to sweep alongside tile/unroll/"
                        "dataflow (default: 1)")
    p.add_argument("--sweep-vlmax", action="store_true",
                   help="also sweep the vector length (vlmax, vlmax/2, "
                        "vlmax/4)")
    p.add_argument("--sweep-init-c", action="store_true",
                   help="also sweep init_c_zero (zero-fill vs load of "
                        "the first k-tile's accumulators)")
    _add_policy_arg(p)
    _add_engine_args(p)
    p.set_defaults(fn=cmd_tune)

    p = sub.add_parser(
        "scaling",
        help="multi-core sharding study (speedup/efficiency per model "
             "and N:M pattern)")
    p.add_argument("--models", nargs="+", default=list(list_models()),
                   choices=list_models(),
                   help="CNN models to scale (default: all)")
    p.add_argument("--kernel", default="indexmac-spmm",
                   choices=["rowwise-spmm", "indexmac-spmm"],
                   help="kernel whose rows are sharded")
    p.add_argument("--cores", nargs="+", type=int, default=[1, 2, 4, 8],
                   metavar="N",
                   help="core counts to compare (1 is always included "
                        "as the baseline; default: 1 2 4 8)")
    p.add_argument("--schedule", default=None, metavar="FILE",
                   help="JSON schedule from `repro tune` to shard "
                        "instead of the paper default")
    p.add_argument("--schedule-book", default=None, metavar="FILE",
                   help="per-layer schedule book from `repro tune "
                        "--per-layer` (implies --policy tuned)")
    p.add_argument("--table-out",
                   default="benchmarks/results/scaling.txt",
                   metavar="FILE",
                   help="where to archive the scaling table "
                        "(empty string to skip)")
    p.add_argument("--check", action="store_true",
                   help="exit non-zero unless every result verified, "
                        "every layer's multicore makespan <= its "
                        "single-core cycles, and the top core count "
                        "yields >1x speedup")
    _add_policy_arg(p)
    _add_engine_args(p)
    p.set_defaults(fn=cmd_scaling)

    p = sub.add_parser(
        "cache",
        help="inspect (or vacuum/clear) the on-disk result cache")
    p.add_argument("--clear", action="store_true",
                   help="delete every cache entry after printing the "
                        "summary")
    p.add_argument("--vacuum", action="store_true",
                   help="compact the pack segments into one, dropping "
                        "superseded entries (reports bytes reclaimed)")
    p.set_defaults(fn=cmd_cache)

    p = sub.add_parser(
        "serve",
        help="run the shared-cache experiment server (HTTP)")
    p.add_argument("--host", default="127.0.0.1",
                   help="bind address (default: 127.0.0.1)")
    p.add_argument("--port", type=int, default=8642,
                   help="TCP port (0 = ephemeral; default: 8642)")
    p.add_argument("--window", type=float, default=None, metavar="SEC",
                   help="batch coalescing window in seconds "
                        "(default: $REPRO_SERVE_WINDOW or 0.005)")
    p.add_argument("--batch", type=int, default=None, metavar="N",
                   help="max jobs per engine batch (default: "
                        "$REPRO_SERVE_BATCH or 128)")
    p.add_argument("--depth", type=int, default=None, metavar="N",
                   help="interactive-lane queue depth before shedding "
                        "(default: $REPRO_SERVE_DEPTH or 256)")
    p.add_argument("--bulk-depth", type=int, default=None, metavar="N",
                   help="bulk-lane queue depth before shedding "
                        "(default: $REPRO_SERVE_BULK_DEPTH or 2048)")
    p.add_argument("--retry-after", type=float, default=None,
                   metavar="SEC",
                   help="Retry-After advertised on a 429 (default: "
                        "$REPRO_SERVE_RETRY_AFTER or 1)")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="engine worker processes (0 = one per CPU)")
    p.add_argument("--no-cache", action="store_true",
                   help="serve without the on-disk result cache")
    p.set_defaults(fn=cmd_serve)

    p = sub.add_parser(
        "submit",
        help="submit a job batch to a running experiment server")
    p.add_argument("--url", default="http://127.0.0.1:8642",
                   help="server URL (default: http://127.0.0.1:8642)")
    p.add_argument("--lane", default="interactive",
                   choices=["interactive", "bulk"],
                   help="priority lane (default: interactive)")
    p.add_argument("--model", default="resnet50", choices=list_models(),
                   help="model whose unique GEMM layers to submit")
    p.add_argument("--scale", default="tiny", choices=_SCALE_CHOICES,
                   help="workload scale policy (default: tiny)")
    p.add_argument("--nm", nargs="+", default=["1:4", "2:4"],
                   metavar="N:M",
                   help="sparsity patterns (default: 1:4 2:4)")
    _add_backend_arg(p)
    p.add_argument("--timeout", type=float, default=600.0,
                   metavar="SEC",
                   help="client socket timeout (default: 600)")
    p.add_argument("--wait-ready", type=float, default=0.0,
                   metavar="SEC",
                   help="poll the health endpoint up to SEC seconds "
                        "before submitting (CI startup races)")
    p.add_argument("--expect-warm", action="store_true",
                   help="exit non-zero unless every job was answered "
                        "from the warm cache (0 simulations)")
    p.add_argument("--stats", action="store_true",
                   help="print the server's /v1/stats JSON and exit")
    p.add_argument("--shutdown", action="store_true",
                   help="ask the server to stop and exit")
    p.set_defaults(fn=cmd_submit)

    p = sub.add_parser("layers", help="list a model's conv layers")
    p.add_argument("model", choices=list_models())
    p.set_defaults(fn=cmd_layers)

    p = sub.add_parser("encode", help="assemble + encode instructions")
    p.add_argument("instruction",
                   help='e.g. "vindexmac.vx v8, v1, t0"')
    p.set_defaults(fn=cmd_encode)

    p = sub.add_parser("quickcheck", help="fast end-to-end sanity run")
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes (0 = one per CPU)")
    _add_backend_arg(p)
    p.set_defaults(fn=cmd_quickcheck)

    p = sub.add_parser(
        "crosscheck",
        help="validate approximate backends against detailed "
             "(tolerance gate)")
    p.add_argument("--backend", nargs="+", default=["batch-replay"],
                   choices=[b for b in available_backends()
                            if b != "detailed"] + ["all"],
                   help="backend(s) to gate (default: batch-replay; "
                        "'all' gates every approximate backend)")
    p.add_argument("--tolerance", type=float, default=None,
                   help="relative cycle tolerance (default: each "
                        "backend's documented tolerance)")
    p.set_defaults(fn=cmd_crosscheck)

    p = sub.add_parser(
        "calibrate",
        help="fit the analytic-sampled calibration table from "
             "detailed runs")
    p.add_argument("--model", default="resnet50", choices=list_models(),
                   help="CNN whose layers form the fit set")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="where to write the table (default: the "
                        "packaged calibration_default.json)")
    p.add_argument("--show-errors", action="store_true",
                   help="print the per-sample fit errors")
    _add_policy_arg(p)
    _add_engine_args(p)
    p.set_defaults(fn=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ReproError as exc:
        # a missing schedule book or corrupt tuned-schedule file is an
        # operator error, not a crash: one clean line, non-zero exit
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
