"""Tracing for the benchmark's traced run, from outside the program.

:func:`install` wraps the public calls into each layer of the stack
(the module name is the layer name) with spans.  A span records its
name, layer, start, end, parent span and the ``job_hash`` of the job
it served (inherited from the parent when the wrapper cannot see the
job).  Spans and counters stay in memory and are written out when the
process ends; forked pool workers reset the parent's buffer and write
their own file at exit.

:func:`self_times` and :func:`covered` turn the written spans into
per-layer self time and the share of a run that no span covers.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from multiprocessing import util
from pathlib import Path

#: Span layer of the benchmark's own phase markers (not a program
#: layer: excluded from self times and coverage).
BENCH_LAYER = "bench"

#: Program layers, reported in this order.
LAYERS = ("import", "nn", "layout", "compiler", "timing", "analytic",
          "planner", "engine", "cache", "serve")


class Recorder:
    """In-memory span and counter store of one process."""

    def __init__(self, out_dir: Path, role: str):
        self.out_dir = Path(out_dir)
        self.role = role
        self._reset()
        util.register_after_fork(self, Recorder._after_fork)

    def _reset(self) -> None:
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _after_fork(self) -> None:
        # a pool worker starts with a copy of the parent's spans and
        # open-span stack: drop both, and write its own spans at exit
        self._reset()
        self.role = "worker"
        util.Finalize(self, Recorder.dump, args=(self,), exitpriority=10)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counts[name] += value

    def record(self, name: str, layer: str, start: float, end: float,
               job: str | None = None) -> None:
        """A span measured by the caller (no parent)."""
        self.spans.append((next(self._ids), 0, name, layer, start, end,
                           job))

    def wrap(self, fn, name: str, layer: str, job_of=None, after=None):
        """``fn`` timed as a span; ``job_of(args, result)`` names the
        job and ``after(args, result)`` updates counters."""
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = rec._stack()
            parent, job = stack[-1] if stack else (0, None)
            sid = next(rec._ids)
            stack.append((sid, job))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            if job_of is not None:
                job = job_of(args, result)
            rec.spans.append((sid, parent, name, layer, start, end, job))
            if after is not None:
                after(args, result)
            return result

        return traced

    def enter_job(self, fn, job_of):
        """``fn`` run with ``job_of(args)`` as the job of every span it
        opens (an unrecorded frame on the span stack)."""
        rec = self

        @functools.wraps(fn)
        def scoped(*args, **kwargs):
            stack = rec._stack()
            parent = stack[-1][0] if stack else 0
            stack.append((parent, job_of(args)))
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()

        return scoped

    def dump(self) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"spans-{self.role}-{os.getpid()}.json"
        path.write_text(json.dumps({
            "pid": os.getpid(), "role": self.role,
            "spans": self.spans, "counts": dict(self.counts)}))
        return path


def install(rec: Recorder, serve: bool = False) -> None:
    """Wrap every layer's public calls (see the module docstring)."""
    import repro.analytic.bulk as bulk
    import repro.analytic.calibration as calibration
    import repro.eval.engine as engine
    import repro.eval.planner as planner
    import repro.eval.runner as runner
    from repro.arch.timing import _BACKENDS
    from repro.arch.timing.analytic import AnalyticSampledBackend

    original_hash = engine.job_hash
    job_hash = rec.wrap(original_hash, "job_hash", "engine",
                        job_of=lambda args, result: result,
                        after=lambda a, r: rec.add("engine.hash_calls"))
    engine.job_hash = job_hash

    # repro.nn: operand generation, timed at the engine's entry to it
    engine.job_operands = rec.wrap(
        engine.job_operands, "job_operands", "nn",
        after=lambda a, r: rec.add("nn.calls"))

    # repro.kernels.layout
    runner.stage_spmm = rec.wrap(
        runner.stage_spmm, "stage_spmm", "layout",
        after=lambda a, r: rec.add("layout.calls"))
    planner.plan_spmm = rec.wrap(
        planner.plan_spmm, "plan_spmm", "layout",
        after=lambda a, r: rec.add("layout.calls"))

    # repro.kernels.compiler: every trace build, plus every request
    # for a trace (answered by the worker memo or by building)
    def traced_registry(lookup):
        @functools.wraps(lookup)
        def get_trace_kernel(name):
            return rec.wrap(lookup(name), "compile", "compiler",
                            after=lambda a, r: rec.add("compiler.calls"))
        return get_trace_kernel

    runner.get_trace_kernel = traced_registry(runner.get_trace_kernel)
    bulk.get_trace_kernel = traced_registry(bulk.get_trace_kernel)
    trace_for = runner._trace_for

    def counted_trace_for(*args, **kwargs):
        rec.add("compiler.requests")
        return trace_for(*args, **kwargs)

    runner._trace_for = counted_trace_for

    def bulk_requests(args, result):
        rec.add("compiler.requests",
                sum(job.schedule.cores for job in args[0]))

    bulk.evaluate_bulk = rec.wrap(
        bulk.evaluate_bulk, "evaluate_bulk", "analytic",
        after=bulk_requests)

    # repro.arch.timing (drives repro.arch)
    def timed_run(args, result):
        rec.add("timing.calls")
        rec.add("timing.sim_instrs", result.stats.instructions)
        rec.add("timing.timed_instrs", result.timed_instructions)

    for backend in set(_BACKENDS.values()):
        if "run" in vars(backend):
            backend.run = rec.wrap(backend.run, "run", "timing",
                                   after=timed_run)

    # repro.analytic
    profile = rec.wrap(calibration.profile_trace, "profile_trace",
                       "analytic",
                       after=lambda a, r: rec.add("analytic.profile_calls"))
    calibration.profile_trace = profile
    bulk.profile_trace = profile
    table = calibration.CalibrationTable
    table.predict_many = rec.wrap(table.predict_many, "predict_many",
                                  "analytic")
    AnalyticSampledBackend.price = rec.wrap(AnalyticSampledBackend.price,
                                            "price", "analytic")

    # repro.eval.planner
    def planned(args, result):
        rec.add("planner.bulk_jobs", len(result.bulk))
        rec.add("planner.pooled_jobs", len(result.pooled))

    engine.plan_batch = rec.wrap(engine.plan_batch, "plan_batch",
                                 "planner", after=planned)

    # repro.eval.engine: batches, probes, pool dispatch and (in the
    # workers) each executed task, tagged with its job's hash
    experiment = engine.ExperimentEngine
    experiment.run = rec.wrap(experiment.run, "run", "engine")
    experiment.probe = rec.wrap(experiment.probe, "probe", "engine")
    experiment._dispatch = rec.wrap(experiment._dispatch, "dispatch",
                                    "engine")
    engine._execute_task = rec.enter_job(
        rec.wrap(engine._execute_task, "task", "engine"),
        job_of=lambda args: original_hash(args[0][0]))

    # ResultCache (repro.eval.engine)
    def loaded_many(args, result):
        wanted = len(set(args[1]))
        rec.add("cache.hits", len(result))
        rec.add("cache.misses", wanted - len(result))

    def loaded(args, result):
        rec.add("cache.hits" if result is not None else "cache.misses")

    cache = engine.ResultCache
    cache.load_many = rec.wrap(cache.load_many, "load_many", "cache",
                               after=loaded_many)
    cache.load = rec.wrap(cache.load, "load", "cache", after=loaded)
    cache.store = rec.wrap(cache.store, "store", "cache",
                           job_of=lambda args, result: args[1],
                           after=lambda a, r: rec.add("cache.store_calls"))

    if serve:
        import repro.serve.http as http
        import repro.serve.service as service

        service.job_hash = job_hash
        service.ExperimentService.submit = rec.wrap(
            service.ExperimentService.submit, "submit", "serve")
        http.job_from_dict = rec.wrap(
            http.job_from_dict, "job_from_dict", "serve")
        http.run_to_dict = rec.wrap(
            http.run_to_dict, "run_to_dict", "serve")


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def load(out_dir: Path) -> list[dict]:
    """Every process's written spans under ``out_dir``."""
    return [json.loads(path.read_text())
            for path in sorted(Path(out_dir).glob("spans-*.json"))]


def union_length(intervals) -> float:
    """Total length covered by ``(start, end)`` intervals, overlaps
    counted once."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans, remote_children=None) -> dict[str, float]:
    """Per-layer self time of one process's spans: each span's
    duration minus the part of it that its child spans cover
    (overlapping children counted once).  ``remote_children`` maps a
    span name to intervals of other processes' spans that run on its
    behalf (pool tasks under the pool dispatch)."""
    children: dict[int, list] = defaultdict(list)
    for sid, parent, name, _layer, start, end, _job in spans:
        if parent:
            children[parent].append((start, end))
        if remote_children and name in remote_children:
            children[sid].extend(remote_children[name])
    totals: dict[str, float] = defaultdict(float)
    for sid, _parent, _name, layer, start, end, _job in spans:
        if layer == BENCH_LAYER:
            continue
        inner = [(max(s, start), min(e, end))
                 for s, e in children.get(sid, ())
                 if min(e, end) > max(s, start)]
        totals[layer] += (end - start) - union_length(inner)
    return dict(totals)


def covered(spans, start: float, end: float) -> float:
    """Seconds of ``[start, end]`` that program spans cover."""
    return union_length(
        (max(s, start), min(e, end))
        for _sid, _parent, _name, layer, s, e, _job in spans
        if layer != BENCH_LAYER and min(e, end) > max(s, start))


def busy(spans, layer: str, names=None) -> float:
    """Summed duration of the ``layer`` spans (optionally by name)."""
    return sum(e - s for _sid, _parent, name, lay, s, e, _job in spans
               if lay == layer and (names is None or name in names))

