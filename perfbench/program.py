"""One program run of ``fig4-cold`` or ``sweep-cold``, in a fresh
interpreter started by ``run.py``.

Set-up is the entry imports plus engine construction (and, for
``fig4-cold``, spawning the worker pool); the line ``ready`` on stdout
marks its end.  In ``setup`` mode the process stops there.  In
``full`` mode it then runs the cold batch into the empty cache at
``$REPRO_CACHE_DIR`` (timed in wall and CPU seconds, the pool workers'
CPU included), replays it warm with a fresh engine, reads its memory
peaks and writes everything ``run.py`` checks and reports to
``--out``.  ``populate`` mode only runs the cold batch (the build step
of the ``serve-mixed`` cache).

Usage: python3 perfbench/program.py --workload fig4-cold --seed 1
       --mode full --out result.json [--trace-dir DIR]
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
from dataclasses import asdict  # noqa: E402

import jobsets  # noqa: E402
import measure  # noqa: E402


def _run_payload(job, run, label: str) -> dict:
    return {"label": label, "kernel": run.kernel, "backend": run.backend,
            "verified": run.verified, "seed": job.seed,
            "stats": asdict(run.stats)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True,
                        choices=("fig4-cold", "sweep-cold"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", default="full",
                        choices=("setup", "full", "populate"))
    parser.add_argument("--out")
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    t_import = time.perf_counter()
    import repro.cli  # noqa: F401  the entry imports
    from repro.eval.engine import ExperimentEngine
    import_end = time.perf_counter()

    rec = None
    if args.trace_dir:
        import spans

        rec = spans.Recorder(args.trace_dir, role="program")
        rec.record("import", "import", t_import, import_end)
        spans.install(rec)

    cache_dir = os.environ["REPRO_CACHE_DIR"]
    fig4 = args.workload == "fig4-cold"
    engine = ExperimentEngine(jobs=int(os.environ["REPRO_JOBS"]),
                              cache_dir=cache_dir, pool_idle=0)
    if fig4 and args.mode != "populate":
        engine.warm_pool()
    ready = time.perf_counter()
    print("ready", flush=True)
    if args.mode == "setup":
        engine.shutdown()
        return 0

    if fig4:
        jobs = jobsets.fig4_jobs(seed=args.seed)
        labels = [jobsets.fig4_label(job) for job in jobs]
    else:
        jobs = jobsets.sweep_jobs(args.seed)
        labels = [jobsets.sweep_label(job) for job in jobs]

    pids = [os.getpid(), *measure.child_pids(os.getpid())]
    cpu_start = measure.cpu_seconds(pids)
    start = time.perf_counter()
    runs = engine.run(jobs)
    cold_s = time.perf_counter() - start
    cold_cpu_s = measure.cpu_seconds(pids) - cpu_start
    if rec is not None:
        rec.record("cold", spans.BENCH_LAYER, start, start + cold_s)
    counters = engine.counters
    result = {
        "workload": args.workload,
        "jobs": len(jobs),
        "import_s": import_end - t_import,
        "ready_s": ready - T_START,
        "cold_start": start,
        "cold_s": cold_s,
        "cold_cpu_s": cold_cpu_s,
        "simulated": counters.simulated,
        "stage_seconds": dict(counters.stage_seconds),
        "results": [_run_payload(job, run, label)
                    for job, run, label in zip(jobs, runs, labels)],
    }
    if args.mode == "populate":
        engine.shutdown()
        return _write(args.out, result)

    # warm: a fresh engine replays the whole set, zero simulations
    warm = ExperimentEngine(jobs=1, cache_dir=cache_dir)
    start = time.perf_counter()
    warm_runs = warm.run(jobs)
    warm_s = time.perf_counter() - start
    if rec is not None:
        rec.record("warm", spans.BENCH_LAYER, start, start + warm_s)
    warm_bad = sum(1 for cold, again in zip(runs, warm_runs)
                   if cold.stats != again.stats
                   or cold.verified != again.verified)

    pids = [os.getpid(), *measure.child_pids(os.getpid())]
    result.update({
        "warm_s": warm_s,
        "warm_jobs": len(jobs),
        "warm_simulated": warm.counters.simulated,
        "warm_mismatches": warm_bad,
        "workers": engine.jobs,
        "peak_rss_mb": measure.peak_rss_mb(pids),
        "counters": {name: getattr(engine.counters, name)
                     + getattr(warm.counters, name)
                     for name in ("simulated", "disk_hits", "memo_hits")},
    })
    engine.shutdown(wait=True)
    if rec is not None:
        rec.record("run", spans.BENCH_LAYER, T_START, time.perf_counter())
        rec.dump()
    return _write(args.out, result)


def _write(path, result) -> int:
    with open(path, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
