"""E5 — Fig. 6: normalized total memory accesses for the three CNNs.

Paper: the proposed approach cuts memory accesses by 48% on average at
1:4 sparsity and by 65% at 2:4.  The full-size counts are the headline
here: the static profiles of both kernels compiled for every layer at
its unscaled size (exact, no dimension scaling, nothing executed).  The
simulated counts on scaled layers cross-check them.
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

from repro.eval import run_fig6
from repro.eval.paper import FIG6_REDUCTION, MODELS


def bench_fig6(benchmark, capsys):
    policy = policy_from_env()
    config = config_from_env()
    setup_engine()

    result = benchmark.pedantic(
        lambda: run_fig6(policy=policy, config=config),
        rounds=1, iterations=1)

    for nm in ((1, 4), (2, 4)):
        measured = result.average_reduction(nm)
        expected = FIG6_REDUCTION[nm]
        assert abs(measured - expected) < 0.05, (nm, measured, expected)
        for model in MODELS:
            assert 0.0 < result.simulated[(model, nm)] < 1.0
            assert 0.0 < result.analytic_full[(model, nm)] < 1.0
    publish("fig6", result.render(), capsys)
