"""Engine dispatch-path benchmark: cold batches vs the warm store.

Measures, over a full Fig. 4-style job set (every unique ResNet-50
GEMM layer x {baseline, proposed} x N:M patterns):

* **cold** — jobs/s of a first-ever engine batch (simulation plus all
  orchestration overhead: operand generation, trace compilation,
  dispatch, cache stores);
* **warm** — jobs/s of a fresh engine replaying the same set from the
  on-disk pack store, asserted to perform **zero** simulations, with
  bit-identical results and unchanged cache keys;
* **per-hit latency** of each warm layer, both read through a warm
  engine's ``probe`` of the cold batch's job objects (whose keys are
  already computed, so neither includes hashing): the engine's result
  LRU, and the pack store (one seek+read per hit) with the LRU turned
  off.

The measured numbers are archived as ``engine_throughput.json`` (the
CI ``engine-throughput-smoke`` job uploads it), alongside the usual
rendered table.  ``REPRO_BENCH_POLICY`` scales the layer set as in the
other benches.
"""

import json
import sys
import tempfile
import time
from dataclasses import asdict
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from common import (  # noqa: E402
    RESULTS_DIR,
    config_from_env,
    policy_from_env,
    publish,
)

from repro.eval.engine import (
    ExperimentEngine,
    ResultCache,
    SimJob,
    atomic_write_text,
    job_hash,
)
from repro.eval.report import format_table
from repro.nn.models import get_model, unique_gemm_layers

BASELINE, PROPOSED = "rowwise-spmm", "indexmac-spmm"

#: Replay rounds for the latency measurements (enough to average out
#: filesystem jitter without dominating bench runtime).
ROUNDS = 20


def _job_set():
    policy = policy_from_env()
    config = config_from_env()
    return [
        SimJob.for_layer("resnet50", layer.name, nm, policy, kernel,
                         config=config)
        for layer, _ in unique_gemm_layers(get_model("resnet50"))
        for kernel in (BASELINE, PROPOSED)
        for nm in ((1, 4), (2, 4))
    ]


def _stats_identical(a, b) -> bool:
    """Bit-exact result equality (wall_seconds is host metadata)."""
    sa, sb = asdict(a.stats), asdict(b.stats)
    sa["extra"] = {k: v for k, v in sa["extra"].items()
                   if k != "wall_seconds"}
    sb["extra"] = {k: v for k, v in sb["extra"].items()
                   if k != "wall_seconds"}
    return a.kernel == b.kernel and a.verified == b.verified and sa == sb


def _seconds_per_replay(replay, rounds=ROUNDS) -> float:
    """Mean seconds per call of ``replay`` (primed by one call first)."""
    replay()
    t0 = time.perf_counter()
    for _ in range(rounds):
        replay()
    return (time.perf_counter() - t0) / rounds


def bench_engine_throughput(benchmark, capsys, monkeypatch):
    jobs = _job_set()
    keys = [job_hash(job) for job in jobs]
    with tempfile.TemporaryDirectory(prefix="bench-engine-") as tmp:
        cache_dir = Path(tmp)

        # -- cold: first-ever batch, all orchestration overhead ------
        cold_engine = ExperimentEngine.from_env()
        cold_engine.cache = ResultCache(cache_dir)
        t0 = time.perf_counter()
        cold_runs = cold_engine.run(jobs)
        cold_s = time.perf_counter() - t0
        assert cold_engine.counters.simulated == len(jobs)
        cold_engine.shutdown(wait=False)

        # -- warm: fresh engine, zero simulations --------------------
        def warm_replay():
            engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
            runs = engine.run(jobs)
            assert engine.counters.simulated == 0, "warm run simulated!"
            return runs

        t0 = time.perf_counter()
        warm_runs = warm_replay()
        warm_s = time.perf_counter() - t0
        for cold, warm in zip(cold_runs, warm_runs):
            assert _stats_identical(cold, warm), "warm result drifted"
        assert keys == [job_hash(job) for job in jobs], "keys drifted"
        benchmark.pedantic(warm_replay, rounds=3, iterations=1)

        # -- per-hit latency of each warm layer ----------------------
        monkeypatch.setenv("REPRO_CACHE_LRU", str(len(jobs)))
        lru_engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
        lru_s = _seconds_per_replay(lambda: lru_engine.probe(jobs))
        # only the priming probe read the store
        assert lru_engine.counters.disk_hits == len(jobs)
        monkeypatch.setenv("REPRO_CACHE_LRU", "0")
        pack_engine = ExperimentEngine(jobs=1, cache_dir=cache_dir)
        pack_s = _seconds_per_replay(lambda: pack_engine.probe(jobs))
        assert pack_engine.counters.disk_hits == (ROUNDS + 1) * len(jobs)

    report = {
        "policy": policy_from_env().name,
        "jobs": len(jobs),
        "cold_seconds": round(cold_s, 6),
        "cold_jobs_per_s": round(len(jobs) / cold_s, 2),
        "warm_seconds": round(warm_s, 6),
        "warm_jobs_per_s": round(len(jobs) / warm_s, 2),
        "hit_latency_us": {
            "lru": round(1e6 * lru_s / len(keys), 3),
            "pack": round(1e6 * pack_s / len(keys), 3),
        },
    }
    atomic_write_text(RESULTS_DIR / "engine_throughput.json",
                      json.dumps(report, indent=2) + "\n")

    rows = [
        ["cold batch", f"{cold_s:.3f}s",
         f"{len(jobs) / cold_s:,.1f} jobs/s"],
        ["warm replay (engine)", f"{warm_s:.3f}s",
         f"{len(jobs) / warm_s:,.1f} jobs/s"],
        ["warm hit: LRU (probe)",
         f"{1e6 * lru_s / len(keys):.1f} us/hit", ""],
        ["warm hit: pack store (probe, LRU off)",
         f"{1e6 * pack_s / len(keys):.1f} us/hit", ""],
    ]
    publish("engine_throughput",
            format_table(["path", "time", "rate"], rows,
                         title=f"engine dispatch paths "
                               f"({len(jobs)} jobs, "
                               f"{policy_from_env().name} scale)"),
            capsys)
