"""Every latency the timing code adds to a clock is a ``float``.

The clocks are floats (DRAM's line interval is fractional), and
CPython specialises an addition only when both operands have one type:
``clock + 3`` runs the generic path, ``clock + 3.0`` the float one.  So
the processor binds its latencies as floats (``_constants``), as the
caches and DRAM do theirs, and the timing templates add float literals
to clocks.  Every such value is an ``int`` below 2**53 in the config,
which converts exactly, so no result moves.  These tests pin that:
the bound latencies are floats, no template adds an ``int`` literal to
anything but a count, and after a job of each kernel under both
executing backends every clock is still a float.
"""

import ast
import inspect
import textwrap

import pytest

from repro.arch import DecoupledProcessor, ProcessorConfig, processor
from repro.arch.cache import ACCESS, COUNTERS as CACHE_COUNTERS
from repro.arch.dram import DramModel
from repro.arch.hierarchy import MemoryHierarchy
from repro.eval import runner
from repro.eval.engine import SimJob, execute_job
from repro.isa.instructions import OPCODES
from repro.nn.models import get_model, unique_gemm_layers
from repro.nn.workload import POLICIES

CONFIGS = [ProcessorConfig.paper_default(), ProcessorConfig.scaled_default()]


@pytest.mark.parametrize("config", CONFIGS, ids=["paper", "scaled"])
def test_every_bound_latency_is_a_float(config):
    constants = processor._constants(config)
    assert type(constants.pop("WIDTH")) is int  # a count of slots
    assert {name: type(value) for name, value in constants.items()} == \
        dict.fromkeys(constants, float)
    hierarchy = MemoryHierarchy(config)
    for cache in (hierarchy.l1d, hierarchy.l2):
        assert type(cache.bank_busy) is float
        assert type(cache.hit_latency) is float
    dram = hierarchy.dram
    assert {type(value) for value in
            (dram._per_line, dram._row_hit, dram._row_miss)} == {float}


#: What an ``int`` may be added to: the dispatch slots used, the line a
#: vector access walks, and the counters.
COUNTS = {"used", "line", *CACHE_COUNTERS, *processor._COUNTS,
          "reads", "writes", "row_hits", "row_misses"}


def _int_additions(source: str) -> list:
    """What ``source`` adds an ``int`` literal to, by name (the
    attribute's for ``self.name``), and ``None`` for an expression."""
    def name(node):
        if isinstance(node, ast.Name):
            return node.id
        return node.attr if isinstance(node, ast.Attribute) else None

    def is_int(node):
        return isinstance(node, ast.Constant) and type(node.value) is int
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add) \
                and is_int(node.value):
            found.append(name(node.target))
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add) \
                and (is_int(node.left) or is_int(node.right)):
            found.append(None)
    return found


def test_no_timing_text_adds_an_int_literal_to_a_clock():
    """The timing part of every opcode's text (its semantics left
    out), the cache's access text and DRAM's access."""
    sources = ["\n".join(processor._instruction_source(
        spec, "instr.{}".format, "instr.imm", []))
        for spec in OPCODES.values()]
    sources.append(ACCESS.format(at="at", write=False, done="done",
                                 counts="l2_"))
    sources.append(textwrap.dedent(inspect.getsource(DramModel.access)))
    added = [target for source in sources
             for target in _int_additions(source)]
    assert added and set(added) <= COUNTS


#: A ``tiny`` job of each kernel (no shape), on ResNet-50's first
#: unique layer at 2:4, and one of a shape whose loops ``batch-replay``
#: brackets for each N:M kernel, so that replayed chunks shift the
#: clocks.
CASES = [(kernel, None) for kernel in runner.JOB_KERNELS] + \
    [(kernel, (128, 64, 32)) for kernel in runner.JOB_KERNELS
     if kernel != runner.CSR_KERNEL]


def _job(kernel, shape, backend) -> SimJob:
    if shape:
        return SimJob.for_shape(*shape, (2, 4), kernel, backend=backend)
    (layer, _), *_ = unique_gemm_layers(get_model("resnet50"))
    return SimJob.for_layer(model="resnet50", layer=layer.name, nm=(2, 4),
                            policy=POLICIES["tiny"], kernel=kernel,
                            backend=backend)


def _clocks(proc) -> dict:
    h = proc.hierarchy
    return {
        "ready": proc.x_ready + proc.f_ready + proc.v_ready,
        "queues": [*proc._rob, *proc._viq, *proc._lq, *proc._sq],
        "line stores": list(proc._line_store_done.values()),
        "processor": [proc._cycle, proc._last_commit, proc._last_post,
                      proc._last_issue, proc._end],
        "banks": h.l1d._bank_free + h.l2._bank_free,
        "dram": [h.dram._next_free],
    }


@pytest.mark.parametrize("backend", ["detailed", "batch-replay"])
@pytest.mark.parametrize("kernel, shape", CASES, ids=[
    f"{kernel}-{'x'.join(map(str, shape)) if shape else 'tiny'}"
    for kernel, shape in CASES])
def test_every_clock_is_a_float_after_a_job(monkeypatch, kernel, shape,
                                            backend):
    built = []

    class Recorded(DecoupledProcessor):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(runner, "DecoupledProcessor", Recorded)
    run = execute_job(_job(kernel, shape, backend))
    assert run.verified
    (proc,) = built
    extra = run.stats.extra
    if shape and backend == "batch-replay":
        assert extra["timed_instructions"] < extra["dynamic_instructions"]
    clocks = _clocks(proc)
    assert clocks["line stores"]  # C was stored
    assert {name: {type(t) for t in values}
            for name, values in clocks.items()} == \
        dict.fromkeys(clocks, {float})
    assert type(proc._used) is int
