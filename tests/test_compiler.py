"""Unit tests for the schedule-driven kernel compiler and its table.

Covers: KernelSpec/Schedule semantics and serialization (dict
round-trip, cross-process cache-key stability), the lowering passes
(tiling, register allocation, spec/schedule validation), and name
lookup's error reporting.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.arch import DecoupledProcessor, ProcessorConfig
from repro.errors import KernelError
from repro.isa.trace import outer_loops
from repro.kernels import (
    Dataflow,
    Schedule,
    compile_trace,
    get_spec,
    get_trace_kernel,
    stage_spmm,
)
from repro.kernels.compiler import (
    SPECS,
    coerce_schedule,
    lower,
    normalize_schedule,
    parse_dataflow,
)
from repro.sparse import random_nm_matrix


def staged_case(rows=8, k=64, n=32, nm=(1, 4), seed=0):
    rng = np.random.default_rng(seed)
    a = random_nm_matrix(rows, k, *nm, rng)
    b = rng.standard_normal((k, n)).astype(np.float32)
    proc = DecoupledProcessor(ProcessorConfig.paper_default())
    return stage_spmm(proc.mem, a, b)


# ----------------------------------------------------------------------
# Schedule: construction, validation, legacy bridge
# ----------------------------------------------------------------------
def test_schedule_defaults_are_the_paper_point():
    s = Schedule()
    assert (s.tile_rows, s.unroll, s.dataflow, s.vlmax) == \
        (16, 4, Dataflow.B_STATIONARY, 16)


def test_schedule_validation():
    with pytest.raises(KernelError):
        Schedule(unroll=3)
    with pytest.raises(KernelError):
        Schedule(tile_rows=0)
    with pytest.raises(KernelError):
        Schedule(vlmax=0)
    with pytest.raises(KernelError):
        Schedule(b_residency="cache")


def test_schedule_coerces_dataflow_strings():
    assert Schedule(dataflow="A").dataflow is Dataflow.A_STATIONARY
    assert Schedule(dataflow="C_STATIONARY").dataflow is \
        Dataflow.C_STATIONARY
    with pytest.raises(KernelError):
        Schedule(dataflow="D")


def test_parse_dataflow_forms():
    assert parse_dataflow("B") is Dataflow.B_STATIONARY
    assert parse_dataflow("a_stationary") is Dataflow.A_STATIONARY
    assert parse_dataflow(Dataflow.C_STATIONARY) is Dataflow.C_STATIONARY
    with pytest.raises(KernelError):
        parse_dataflow("diagonal")


def test_coerce_schedule_accepts_a_schedule_or_none():
    s = Schedule(tile_rows=8)
    assert coerce_schedule(s) is s
    assert coerce_schedule(None) == Schedule()
    with pytest.raises(KernelError):
        coerce_schedule("L=16")


# ----------------------------------------------------------------------
# Schedule serialization: dict round-trip + stable cache key
# ----------------------------------------------------------------------
@pytest.mark.parametrize("schedule", [
    Schedule(),
    Schedule(tile_rows=8, unroll=2, dataflow=Dataflow.A_STATIONARY,
             vlmax=32, init_c_zero=False),
    Schedule(b_residency="vrf"),
])
def test_schedule_dict_round_trip(schedule):
    payload = schedule.to_dict()
    assert Schedule.from_dict(payload) == schedule
    # the payload is plain JSON data (what the tuner persists)
    import json
    assert json.loads(json.dumps(payload)) == payload


def test_schedule_from_dict_rejects_unknown_fields():
    with pytest.raises(KernelError):
        Schedule.from_dict({"tile_rows": 16, "vector_length": 16})


def test_schedule_cache_key_is_content_sensitive():
    assert Schedule().cache_key() == Schedule().cache_key()
    assert Schedule().cache_key() != Schedule(unroll=2).cache_key()
    assert Schedule().cache_key() != Schedule(vlmax=32).cache_key()


def test_schedule_cache_key_stable_across_processes():
    """Tuned schedules persist to disk and key simulation caches, so
    the key must not depend on process state (PYTHONHASHSEED etc.)."""
    code = (
        "from repro.kernels.compiler import Schedule\n"
        "print(Schedule(tile_rows=8, unroll=2,\n"
        "               dataflow='A', vlmax=32).cache_key())\n")
    expected = Schedule(tile_rows=8, unroll=2, dataflow="A",
                        vlmax=32).cache_key()
    src_dir = str(Path(repro.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src_dir}
    for seed in ("1", "2"):
        env["PYTHONHASHSEED"] = seed
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == expected


# ----------------------------------------------------------------------
# Specs + lowering passes
# ----------------------------------------------------------------------
def test_spec_registry_has_the_four_kernels():
    assert set(SPECS) == {"dense-rowwise", "rowwise-spmm",
                          "indexmac-spmm", "csr-spmm"}
    assert get_spec("indexmac-spmm").b_residency == "vrf"
    with pytest.raises(KernelError):
        get_spec("winograd")


def test_normalize_resolves_auto_residency():
    s = normalize_schedule(get_spec("indexmac-spmm"), Schedule())
    assert s.b_residency == "vrf"
    s = normalize_schedule(get_spec("rowwise-spmm"), Schedule())
    assert s.b_residency == "memory"


def test_normalize_rejects_mismatched_residency_and_dataflow():
    with pytest.raises(KernelError):
        normalize_schedule(get_spec("rowwise-spmm"),
                           Schedule(b_residency="vrf"))
    with pytest.raises(KernelError):
        normalize_schedule(get_spec("indexmac-spmm"),
                           Schedule(b_residency="memory"))
    with pytest.raises(KernelError):
        normalize_schedule(get_spec("indexmac-spmm"),
                           Schedule(dataflow=Dataflow.C_STATIONARY))


def test_lower_exposes_plan_and_registers():
    staged = staged_case()
    ctx = lower("indexmac-spmm", staged, Schedule(tile_rows=8, unroll=2))
    assert ctx.tiles.k_tiles == staged.k // 8
    assert ctx.tiles.col_tiles == staged.n_cols // 16
    assert ctx.tiles.slots_tile == staged.slots_per_tile(8)
    assert ctx.regs.vreg_base == 32 - 8  # B tile at the top of the VRF
    ctx = lower("rowwise-spmm", staged, Schedule(tile_rows=8, unroll=2))
    assert ctx.regs.vreg_base is None


def test_compile_rejects_operand_mismatch():
    staged = staged_case()
    with pytest.raises(KernelError):
        compile_trace("dense-rowwise", staged)  # StagedSpMM, not dense
    with pytest.raises(KernelError):
        compile_trace("csr-spmm", staged)


def test_compile_rejects_vreg_budget_violations():
    staged = staged_case()
    with pytest.raises(KernelError):
        # L=24 leaves only 8 vector registers for the kernel
        compile_trace("indexmac-spmm", staged, Schedule(tile_rows=24))
    # rowwise has no VRF-resident tile: the same L is fine (K=64 % 24
    # != 0 though, so use a dividing L beyond the vreg budget)
    trace = compile_trace("rowwise-spmm", staged, Schedule(tile_rows=32))
    assert trace.dynamic_length > 0


def test_compiled_traces_keep_steady_loops():
    staged = staged_case(rows=32)
    for name in ("rowwise-spmm", "indexmac-spmm"):
        trace = compile_trace(name, staged, Schedule())
        loops = [loop for loop, _ in outer_loops(trace.nodes)]
        assert loops and all(loop.steady for loop in loops)
        assert trace.steady_fraction() > 0.5


def test_schedule_changes_the_emitted_stream():
    staged = staged_case()
    base = compile_trace("indexmac-spmm", staged, Schedule())
    for variant in (Schedule(tile_rows=8), Schedule(unroll=2),
                    Schedule(init_c_zero=False)):
        assert compile_trace("indexmac-spmm", staged,
                             variant).fingerprint() != base.fingerprint()


# ----------------------------------------------------------------------
# Name lookup: consistent error reporting
# ----------------------------------------------------------------------
def test_unknown_kernel_error_lists_every_spec():
    with pytest.raises(KernelError) as err:
        get_trace_kernel("nonexistent")
    for name in SPECS:
        assert name in str(err.value)
