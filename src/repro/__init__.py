"""IndexMAC reproduction — a custom RISC-V vector instruction for
structured-sparse matrix multiplication.

Reproduction of Titopoulos et al., "IndexMAC: A Custom RISC-V Vector
Instruction to Accelerate Structured-Sparse Matrix Multiplications"
(DATE 2024, arXiv:2311.07241).

Quick start::

    import numpy as np
    from repro import (DecoupledProcessor, ProcessorConfig, Schedule,
                       random_nm_matrix, stage_spmm, read_result,
                       compile_trace)

    rng = np.random.default_rng(0)
    a = random_nm_matrix(16, 64, 2, 4, rng)           # 2:4 sparse weights
    b = rng.standard_normal((64, 64)).astype(np.float32)
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    staged = stage_spmm(proc.mem, a, b)
    proc.run(compile_trace("indexmac-spmm", staged, Schedule()))
    c = read_result(proc.mem, staged)                 # == a @ b
    print(proc.stats().summary())

Subpackages: :mod:`repro.isa` (encodings/assembler), :mod:`repro.sparse`
(N:M + CSR formats), :mod:`repro.arch` (cycle-approximate decoupled
vector processor), :mod:`repro.kernels` (Algorithms 1-3 + CSR),
:mod:`repro.nn` (CNN layer tables, im2col, workloads),
:mod:`repro.analytic` (static trace profiles, the calibrated analytic
backend and the bulk sweep path) and :mod:`repro.eval`
(table/figure reproduction harness).
"""

from repro.arch import (
    DecoupledProcessor,
    ExecutionStats,
    Interpreter,
    ProcessorConfig,
)
from repro.eval import (
    compare_layer,
    run_fig4,
    run_fig5,
    run_fig6,
    run_spmm,
    run_table1,
)
from repro.isa import I, Instr, Op, assemble, decode, disassemble, encode
from repro.kernels import (
    Dataflow,
    Schedule,
    compile_trace,
    read_result,
    stage_spmm,
)
from repro.nn import get_model, make_layer_workload
from repro.sparse import (
    CSRMatrix,
    NMSparseMatrix,
    magnitude_prune,
    prune_to_nm,
    random_nm_matrix,
)

__version__ = "1.0.0"

__all__ = [
    "CSRMatrix",
    "Dataflow",
    "DecoupledProcessor",
    "ExecutionStats",
    "I",
    "Instr",
    "Interpreter",
    "NMSparseMatrix",
    "Op",
    "ProcessorConfig",
    "Schedule",
    "__version__",
    "assemble",
    "compare_layer",
    "compile_trace",
    "decode",
    "disassemble",
    "encode",
    "get_model",
    "magnitude_prune",
    "make_layer_workload",
    "prune_to_nm",
    "random_nm_matrix",
    "read_result",
    "run_fig4",
    "run_fig5",
    "run_fig6",
    "run_spmm",
    "run_table1",
    "stage_spmm",
]
