"""Tests for the loop-annotated Trace IR."""

import numpy as np
import pytest

from repro.arch.memory import FlatMemory
from repro.errors import KernelError
from repro.isa import I
from repro.isa.trace import (
    Block,
    Loop,
    TileLoop,
    Trace,
    TraceBuilder,
    li,
    li_addr,
    outer_loops,
)
from repro.kernels import (
    Schedule,
    compile_trace,
    stage_csr,
    stage_dense,
    stage_spmm,
)
from repro.kernels.dataflow import Dataflow
from repro.nn.workload import make_workload
from repro.sparse.csr import CSRMatrix


# ----------------------------------------------------------------------
# Trace primitives
# ----------------------------------------------------------------------
def test_block_and_loop_lengths():
    body = [I.addi("a0", "a0", 1), I.addi("a1", "a1", 1)]
    loop = Loop([Block(body)], repeat=5)
    assert loop.body_length == 2
    assert loop.dynamic_length == 10
    trace = Trace([Block([I.li("a0", 0)]), loop])
    assert trace.dynamic_length == 11
    assert len(list(trace.instructions())) == 11


def test_nested_loop_expansion_order():
    tb = TraceBuilder()
    tb.emit(I.li("a0", 0))
    with tb.loop(2):
        tb.emit(I.addi("a0", "a0", 1))
        with tb.loop(3):
            tb.emit(I.addi("a1", "a1", 1))
    trace = tb.build()
    assert trace.dynamic_length == 1 + 2 * (1 + 3)
    ops = [i.rd for i in trace.instructions()]
    # a0=10, then per outer iter: one a0 bump + three a1 bumps
    assert ops == [10, 10, 11, 11, 11, 10, 11, 11, 11]


def test_zero_repeat_loop_is_discarded():
    tb = TraceBuilder()
    with tb.loop(0):
        tb.emit(I.addi("a0", "a0", 1))
    assert tb.build().dynamic_length == 0


def test_negative_repeat_rejected():
    with pytest.raises(KernelError):
        Loop([Block([I.nop()])], repeat=-1)


def test_unbalanced_builder_rejected():
    tb = TraceBuilder()
    cm = tb.loop(2)
    cm.__enter__()
    tb.emit(I.nop())
    with pytest.raises(KernelError):
        tb.build()


# ----------------------------------------------------------------------
# Tile loops: one template, bound per tile index
# ----------------------------------------------------------------------
def _unrolled_tiles():
    """The stream a 3 x 2 tile nest emits with plain Python loops."""
    tb = TraceBuilder()
    for jt in range(3):
        tb.emit(li_addr(10, 0x10000 + 64 * jt))
        for kt in range(1, 3):
            tb.emit(li_addr(11, 0x20000 + 64 * jt + 4096 * kt))
            tb.emit(li(12, 100 - 10 * kt))
            with tb.loop(2):
                tb.emit(I.addi(11, 11, 4))
    return tb.build()


def _tiled():
    tb = TraceBuilder()
    with tb.tile_loop(0, 3, label="col") as jt:
        tb.li_addr(10, 0x10000 + 64 * jt)
        with tb.tile_loop(1, 3, label="k") as kt:
            tb.li_addr(11, 0x20000 + jt * 64 + kt * 4096)
            tb.li(12, 100 - 10 * kt)
            with tb.loop(2):
                tb.emit(I.addi(11, 11, 4))
    return tb.build()


def test_tile_loop_expands_to_the_unrolled_stream():
    tiled, unrolled = _tiled(), _unrolled_tiles()
    assert len(tiled.nodes) == 1 and type(tiled.nodes[0]) is TileLoop
    assert tiled.dynamic_length == unrolled.dynamic_length == 3 * (2 + 2 * 5)
    assert list(tiled.instructions()) == list(unrolled.instructions())
    assert tiled.fingerprint() == unrolled.fingerprint()


def test_tile_iterations_bind_fresh_loops():
    (tiles,) = _tiled().nodes
    first, second = list(tiles.iterations())[:2]
    assert all(type(node) in (Block, TileLoop) for node in first)
    inner = [list(node.iterations()) for node in (first[1], second[1])]
    loops = [n for body in inner[0] + inner[1] for n in body
             if type(n) is Loop]
    assert len(loops) == 4 and len({id(loop) for loop in loops}) == 4
    assert _tiled().steady_fraction() == _unrolled_tiles().steady_fraction()


def test_tile_loop_rejects_li_form_changes_and_misuse():
    tb = TraceBuilder()
    with tb.tile_loop(0, 3) as kt:
        with pytest.raises(KernelError, match="changes form"):
            tb.li(5, 2000 + 40 * kt)     # 2000, 2040 fit 12 bits; 2080 not
        with pytest.raises(KernelError):
            tb.li_addr(5, kt * -8)        # negative address at kt > 0
        with tb.loop(2):
            with pytest.raises(KernelError, match="inside a Loop"):
                with tb.tile_loop(0, 2):
                    pass
    with pytest.raises(KernelError, match="closed tile index"):
        tb.li_addr(5, 0x1000 + kt)
    with tb.tile_loop(0, 0):
        tb.emit(I.nop())
    assert tb.build().dynamic_length == 0


def test_an_affine_li_keeps_its_opcodes_over_the_range():
    """``li`` of 0 is one ``addi`` and of 4096 one ``lui``: one length,
    two forms, which the tiles' shared compiled code cannot both run."""
    tb = TraceBuilder()
    with tb.tile_loop(0, 2) as jt:
        with pytest.raises(KernelError, match="changes form"):
            tb.li(5, jt * 4096)
        tb.li(6, 4096 + jt * 8192)       # a bare lui at every index
    (tile_loop,) = tb.build().nodes
    assert [[instr.asm() for instr in block.instructions()]
            for (block,) in tile_loop.iterations()] == \
        [["lui t1, 1"], ["lui t1, 3"]]


def _affine_values(rng, addr):
    """Random affine ``li``/``li_addr`` ranges over two tile indices:
    a base and two strides, at the edges of each ``li`` form (12-bit,
    a bare ``lui``, ``lui`` and a negative or positive ``addi``) and of
    the address range."""
    if addr:
        base = int(rng.choice([0, 0x7FF, 0x800, 0xFFF, 0x1000,
                               rng.integers(1 << 31), (1 << 31) - 0x1000]))
    else:
        base = int(rng.choice([-2048, -1, 0, 2047, 2048, -4096, 4096,
                               0x7FFFF000, -(1 << 31) + 0x1000,
                               rng.integers(-(1 << 31), 1 << 31)]))
    strides = [int(rng.choice([0, 1, -1, 4, 64, 4096, -4096, 0x800,
                               rng.integers(-(1 << 20), 1 << 20)]))
               for _ in range(2)]
    return base, strides


def test_a_bound_block_carries_the_immediates_li_emits():
    """Each tile's block shares its template's instructions and carries
    only its immediates; its exact instructions are those ``li`` and
    ``li_addr`` emit for the tile's value, over random ranges of every
    form, and the trace expands to the stream the unrolled nest would
    emit."""
    rng = np.random.default_rng(11)
    checked = 0
    for trial in range(600):
        addr = trial % 2 == 0
        base, (s0, s1) = _affine_values(rng, addr)
        values = [base + s0 * i + s1 * j for i in range(3) for j in range(4)]
        emit = li_addr if addr else li
        try:
            expected = [emit(5, value) for value in values]
        except KernelError:
            continue
        if len({tuple(instr.op for instr in run) for run in expected}) > 1:
            continue  # li changes form: the builder refuses the range
        tb = TraceBuilder()
        with tb.tile_loop(0, 3) as i:
            with tb.tile_loop(0, 4) as j:
                tb.emit(I.addi(6, 6, 1))
                (tb.li_addr if addr else tb.li)(5, base + s0 * i + s1 * j)
                tb.emit(I.addi(7, 5, 2))
        trace = tb.build()
        (outer,) = trace.nodes
        bound = [block for (inner,) in outer.iterations()
                 for (block,) in inner.iterations()]
        template = outer.body[0].body[0]
        assert all(block.instrs is template.instrs for block in bound)
        assert [block.instructions()[1:-1] for block in bound] == \
            [list(run) for run in expected]
        assert list(trace.instructions()) == [
            instr for run in expected
            for instr in [I.addi(6, 6, 1), *run, I.addi(7, 5, 2)]]
        checked += 1
    assert checked > 250


def test_affine_arithmetic():
    tb = TraceBuilder()
    with tb.tile_loop(2, 5) as i:
        value = 3 * (i + 1) - i * 2 + 7
        assert sorted(value.values()) == [12, 13, 14]   # i + 10
        assert value.bounds() == (12, 14)
        assert i - i == 0 and i * 0 == 0


# ----------------------------------------------------------------------
# Iterating a compiled kernel trace yields its expanded stream
# ----------------------------------------------------------------------
def _staged(rows=16, k=64, n=32, nm=(1, 4), seed=3):
    rng = np.random.default_rng(seed)
    a, b = make_workload(rows, k, n, *nm, rng)
    mem = FlatMemory(1 << 24)
    return stage_spmm(mem, a, b), a, b


@pytest.mark.parametrize("kernel", ["indexmac-spmm", "rowwise-spmm"])
def test_spmm_trace_matches_stream(kernel):
    staged, _, _ = _staged()
    opt = Schedule()
    expanded = list(compile_trace(kernel, staged, opt).instructions())
    stream = list(compile_trace(kernel, staged, opt))
    assert expanded == stream


@pytest.mark.parametrize("dataflow", list(Dataflow))
def test_rowwise_trace_matches_stream_all_dataflows(dataflow):
    staged, _, _ = _staged(rows=9, k=32, n=16, nm=(2, 4))
    opt = Schedule(dataflow=dataflow)
    assert list(compile_trace("rowwise-spmm", staged,
                              opt).instructions()) == \
        list(compile_trace("rowwise-spmm", staged, opt))


def test_csr_trace_matches_stream():
    _, a, b = _staged()
    csr = CSRMatrix.from_dense(a.to_dense())
    mem = FlatMemory(1 << 24)
    staged = stage_csr(mem, csr, b)
    assert list(compile_trace("csr-spmm", staged).instructions()) == \
        list(compile_trace("csr-spmm", staged))


def test_dense_trace_matches_stream():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((8, 32)).astype(np.float32)
    b = rng.standard_normal((32, 32)).astype(np.float32)
    mem = FlatMemory(1 << 24)
    staged = stage_dense(mem, a, b)
    assert list(compile_trace("dense-rowwise", staged).instructions()) == \
        list(compile_trace("dense-rowwise", staged))


def test_kernel_traces_have_steady_loops():
    staged, _, _ = _staged(rows=64)
    trace = compile_trace("indexmac-spmm", staged, Schedule())
    loops = [loop for loop, _ in outer_loops(trace.nodes)]
    assert loops, "expected annotated row loops inside the tile loops"
    assert all(loop.steady for loop in loops)
    assert trace.steady_fraction() > 0.5

