"""Regenerate ``golden_stats.json`` — the simulated-statistics oracle.

Run from a revision whose kernel emitters and timing backends are
known-good::

    PYTHONPATH=src python tests/data/capture_golden_stats.py

``golden_streams.json`` pins *what* each kernel executes; this file
pins what the three timing backends make of it.  For every golden-stream
case, plus one case per N:M kernel whose steady row-group loop runs 16
times in each of four tiles (so the replay backend brackets one loop
per tile), it records every :class:`~repro.arch.stats.ExecutionStats`
counter, ``cycles`` and ``extra["timed_instructions"]`` under
``detailed``, ``batch-replay`` and ``analytic-sampled`` (priced with
the packaged calibration table).
``tests/test_golden_stats.py`` replays every entry through
:func:`case_stats` and compares the numbers exactly.
"""

import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from repro.analytic.calibration import DEFAULT_TABLE_PATH, CalibrationTable
from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.arch.stats import ExecutionStats
from repro.arch.timing import get_backend
from repro.kernels.compiler import Schedule, compile_trace
from repro.kernels.dataflow import Dataflow
from repro.kernels.layout import stage_csr, stage_dense, stage_spmm
from repro.sparse import random_nm_matrix
from repro.sparse.csr import CSRMatrix

HERE = Path(__file__).parent
OUT = HERE / "golden_stats.json"

BACKENDS = ("detailed", "batch-replay", "analytic-sampled")

#: Case fields that identify a workload (the golden-stream schema).
CASE_KEYS = ("kernel", "nm", "dataflow", "unroll", "tile_rows",
             "init_c_zero", "rows", "k", "n", "seed")

#: Cases beyond the golden streams: 64 rows at unroll 4 run the
#: row-group loop 16 times per tile, over 2 column x 2 k-tiles.
LOOP_CASES = tuple(
    dict(kernel=kernel, nm=[1, 4], dataflow="B", unroll=4, tile_rows=16,
         init_c_zero=True, rows=64, k=32, n=32, seed=0)
    for kernel in ("rowwise-spmm", "indexmac-spmm"))


def case_trace(case):
    """The processor (operands staged) and compiled trace of one case,
    with the golden-stream capture's RNG and staging discipline."""
    kernel = case["kernel"]
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    if kernel == "csr-spmm":
        rng = np.random.default_rng(case["seed"])
        a_nm = random_nm_matrix(case["rows"], case["k"], 2, 4, rng)
        b = rng.standard_normal((case["k"], case["n"])).astype(np.float32)
        staged = stage_csr(proc.mem, CSRMatrix.from_dense(a_nm.to_dense()),
                           b)
        return proc, compile_trace(kernel, staged)
    rng = np.random.default_rng(0)
    schedule = Schedule(unroll=case["unroll"], tile_rows=case["tile_rows"],
                        init_c_zero=case["init_c_zero"])
    if kernel == "dense-rowwise":
        a = rng.standard_normal((case["rows"], case["k"])).astype(np.float32)
        b = rng.standard_normal((case["k"], case["n"])).astype(np.float32)
        staged = stage_dense(proc.mem, a, b)
        return proc, compile_trace(kernel, staged, schedule)
    a = random_nm_matrix(case["rows"], case["k"], *case["nm"], rng)
    b = rng.standard_normal((case["k"], case["n"])).astype(np.float32)
    staged = stage_spmm(proc.mem, a, b)
    schedule = Schedule(unroll=case["unroll"], tile_rows=case["tile_rows"],
                        init_c_zero=case["init_c_zero"],
                        dataflow=Dataflow(case["dataflow"]))
    return proc, compile_trace(kernel, staged, schedule)


def case_stats(case, backend: str) -> dict:
    """Every counter, ``cycles`` and the timed-instruction count of one
    case under one registered backend."""
    proc, trace = case_trace(case)
    kwargs = {}
    if backend == "analytic-sampled":
        kwargs["table"] = CalibrationTable.load(DEFAULT_TABLE_PATH)
    stats = get_backend(backend, **kwargs).run(proc, trace).stats
    row = {f.name: getattr(stats, f.name) for f in fields(ExecutionStats)
           if f.name != "extra"}
    row["timed_instructions"] = stats.extra["timed_instructions"]
    return row


def main() -> None:
    golden = json.loads((HERE / "golden_streams.json").read_text())
    cases = [{key: case.get(key) for key in CASE_KEYS}
             for case in list(golden) + list(LOOP_CASES)]
    for case in cases:
        case["stats"] = {backend: case_stats(case, backend)
                         for backend in BACKENDS}
    OUT.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"{len(cases)} cases x {len(BACKENDS)} backends -> {OUT}")


if __name__ == "__main__":
    main()
