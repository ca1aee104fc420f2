"""Multi-core sharded simulation benchmark (extension beyond the paper).

Shards the proposed kernel's output rows across 1/2/4/8 simulated
cores on every model of the scaling study and checks the multicore
contract: every result verified against numpy, every layer's makespan
bounded by its single-core cycles, and a real (>1x) speedup at the top
core count.  The per-core traces run through the engine's worker pool,
so ``REPRO_JOBS`` controls how parallel the *simulation* itself is.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from common import (  # noqa: E402
    config_from_env,
    policy_from_env,
    publish,
    setup_engine,
)

from repro.eval import run_scaling


def bench_scaling(benchmark, capsys):
    policy = policy_from_env()
    config = config_from_env()
    setup_engine()

    result = benchmark.pedantic(
        lambda: run_scaling(models=("resnet50",), policy=policy,
                            config=config, core_counts=(1, 2, 4, 8)),
        rounds=1, iterations=1)

    assert result.check() == []  # verified + bounded makespans + >1x
    for nm in ((1, 4), (2, 4)):
        speedup = result.speedup("resnet50", nm, 8)
        assert 1.0 < speedup <= 8.0
    publish("scaling_resnet50", result.render(), capsys)


def bench_scaling_batch_replay(benchmark, capsys):
    """The merge layer composes with batch-replay timing."""
    policy = policy_from_env()
    config = config_from_env()
    setup_engine()

    result = benchmark.pedantic(
        lambda: run_scaling(models=("resnet50",), policy=policy,
                            config=config, core_counts=(1, 4),
                            sparsities=((1, 4),),
                            backend="batch-replay"),
        rounds=1, iterations=1)

    assert result.check() == []
    publish("scaling_resnet50_batch_replay", result.render(), capsys)
