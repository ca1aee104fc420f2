#!/usr/bin/env python3
"""Timing backends: the same kernel under `detailed` and `batch-replay`.

The simulation stack is split into a functional core (bit-exact
registers + memory), a loop-annotated Trace IR emitted by the kernel
builders, and pluggable timing backends.  `detailed` times every
dynamic instruction; `batch-replay` times a handful of representative
iterations per steady-state loop, replays the rest through the
functional core + memory hierarchy (results and memory statistics stay
exact), and extrapolates the cycles.

This example runs one tall SpMM both ways and reports the agreement,
the timed-instruction compression and each run's CPU seconds.  Replay
pays off on long loops like these; on the short loops of the scaled
Fig. 4 layers it costs about what `detailed` does.

Run:  python examples/timing_backends.py
"""

import time

import numpy as np

from repro import DecoupledProcessor, ProcessorConfig, Schedule
from repro.arch.timing import available_backends, get_backend
from repro.kernels import get_trace_kernel, read_result, stage_spmm
from repro.nn.workload import make_workload

BACKENDS = ("detailed", "batch-replay")


def main():
    rng = np.random.default_rng(0)
    a, b = make_workload(1024, 128, 32, 1, 4, rng)
    print(f"workload: {a.rows}x{a.cols} (1:4 sparse) x {b.shape}")
    print(f"backends: {', '.join(available_backends())}\n")

    results = {}
    cpu = dict.fromkeys(BACKENDS, 0.0)
    for kernel in ("rowwise-spmm", "indexmac-spmm"):
        for backend in BACKENDS:
            proc = DecoupledProcessor(ProcessorConfig.scaled_default())
            staged = stage_spmm(proc.mem, a, b)
            trace = get_trace_kernel(kernel)(staged, Schedule())
            start = time.process_time()
            outcome = get_backend(backend).run(proc, trace)
            seconds = time.process_time() - start
            cpu[backend] += seconds
            results[(kernel, backend)] = (outcome,
                                          read_result(proc.mem, staged))
            print(f"{kernel:14s} {backend:13s} "
                  f"cycles {outcome.stats.cycles:12,.0f}   "
                  f"timed {outcome.timed_instructions:9,} of "
                  f"{outcome.dynamic_instructions:9,} "
                  f"({outcome.compression:.1f}x)   {seconds:5.2f} CPU-s")

    speedups = {}
    for backend in BACKENDS:
        base, _ = results[("rowwise-spmm", backend)]
        prop, _ = results[("indexmac-spmm", backend)]
        speedups[backend] = base.stats.cycles / prop.stats.cycles
    err = abs(speedups["batch-replay"] - speedups["detailed"]) \
        / speedups["detailed"]
    bitexact = all(
        np.array_equal(results[(k, "detailed")][1],
                       results[(k, "batch-replay")][1])
        for k in ("rowwise-spmm", "indexmac-spmm"))
    print(f"\nspeedup (detailed):     {speedups['detailed']:.3f}x"
          f"   {cpu['detailed']:5.2f} CPU-s")
    print(f"speedup (batch-replay): {speedups['batch-replay']:.3f}x"
          f"   {cpu['batch-replay']:5.2f} CPU-s  ({err:.2%} apart)")
    print(f"results bit-exact under both backends: {bitexact}")


if __name__ == "__main__":
    main()
