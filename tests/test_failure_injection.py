"""Failure injection: the library must fail loudly, never silently."""

import numpy as np
import pytest

from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.errors import SimulationError
from repro.eval.runner import run_spmm
from repro.isa import I
from repro.kernels import Schedule, compile_trace, stage_spmm
from repro.sparse import random_nm_matrix


def test_vector_load_out_of_bounds_faults():
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    with pytest.raises(SimulationError):
        proc.run([I.li("a0", proc.mem.size - 8), I.vle32(1, "a0")])


def test_vector_store_out_of_bounds_faults():
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    with pytest.raises(SimulationError):
        proc.run([I.li("a0", -64), I.vse32(1, "a0")])


def test_scalar_load_null_pointer_faults():
    """Address 0 is intentionally unmapped-ish: loads below the heap
    succeed only inside the arena; negative addresses fault."""
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    with pytest.raises(SimulationError):
        proc.run([I.li("a0", -8), I.ld("a1", "a0", 0)])


def test_memory_exhaustion_faults():
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    with pytest.raises(SimulationError):
        proc.mem.allocate(proc.mem.size * 2)


def test_vsetvli_zero_avl_faults():
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    with pytest.raises(SimulationError):
        proc.run([I.li("a0", 0), I.vsetvli("a1", "a0", 0xD0)])


def test_runner_detects_corrupted_result(monkeypatch):
    """If a kernel produced wrong numbers, run_spmm must raise, not
    report a timing win."""
    import repro.eval.runner as runner_mod

    rng = np.random.default_rng(0)
    a = random_nm_matrix(4, 32, 1, 4, rng)
    b = rng.standard_normal((32, 16)).astype(np.float32)

    real_read = runner_mod.read_result

    def corrupted_read(mem, staged):
        out = real_read(mem, staged)
        out[0, 0] += 1000.0
        return out

    monkeypatch.setattr(runner_mod, "read_result", corrupted_read)
    with pytest.raises(SimulationError, match="wrong result"):
        run_spmm(a, b, "indexmac-spmm",
                 config=ProcessorConfig.paper_default())


def test_kernel_on_too_small_memory():
    from repro.arch.memory import FlatMemory

    rng = np.random.default_rng(0)
    a = random_nm_matrix(64, 256, 2, 4, rng)
    b = rng.standard_normal((256, 256)).astype(np.float32)
    proc = DecoupledProcessor(ProcessorConfig.paper_default(),
                              memory=FlatMemory(64 * 1024))
    with pytest.raises(SimulationError):
        stage_spmm(proc.mem, a, b)


def test_unmapped_vindexmac_register_still_defined():
    """vindexmac with an arbitrary scalar value must stay within the
    32-register file (only 5 LSBs are used) — never an index error."""
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    proc.run([I.li("t0", 0x7FF), I.vindexmac_vx(8, 1, "t0")])
    # 0x7FF & 0x1F = 31 -> legal register; no exception raised
    assert proc.stats().vindexmac_count == 1


def test_stage_twice_uses_distinct_buffers():
    """Re-staging on the same memory must not alias the first operands."""
    rng = np.random.default_rng(0)
    a = random_nm_matrix(4, 32, 1, 4, rng)
    b = rng.standard_normal((32, 16)).astype(np.float32)
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    st1 = stage_spmm(proc.mem, a, b)
    st2 = stage_spmm(proc.mem, a, b)
    assert st1.c_addr != st2.c_addr
    proc.run(compile_trace("indexmac-spmm", st1, Schedule()))
    # the second staging's C buffer must still be all zeros
    c2 = proc.mem.read_array(st2.c_addr, np.float32, (4, st2.n_cols))
    assert not c2.any()
