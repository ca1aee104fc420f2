"""Simulator micro-benchmarks: instruction throughput of the model.

Not a paper artifact — keeps an eye on the simulator's own speed, which
bounds how large a scale policy the harness can afford.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from common import publish  # noqa: E402

from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.isa import I
from repro.kernels import Schedule, compile_trace, stage_spmm
from repro.sparse import random_nm_matrix


def bench_scalar_throughput(benchmark):
    stream = [I.addi("a0", "a0", 1) for _ in range(20_000)]

    def run():
        proc = DecoupledProcessor(ProcessorConfig.paper_default())
        proc.run(stream)
        return proc

    proc = benchmark.pedantic(run, rounds=3, iterations=1)
    assert proc.xrf.values[10] == 20_000


def bench_kernel_simulation(benchmark, capsys):
    rng = np.random.default_rng(0)
    a = random_nm_matrix(16, 128, 1, 4, rng)
    b = rng.standard_normal((128, 64)).astype(np.float32)

    def run():
        proc = DecoupledProcessor(ProcessorConfig.scaled_default())
        staged = stage_spmm(proc.mem, a, b)
        proc.run(compile_trace("indexmac-spmm", staged, Schedule()))
        return proc.stats()

    stats = benchmark.pedantic(run, rounds=3, iterations=1)
    rate = stats.instructions / benchmark.stats.stats.mean
    publish("simulator_throughput",
            f"simulated {stats.instructions:,} instructions per run\n"
            f"~{rate / 1000:,.0f}k simulated instructions/second", capsys)
