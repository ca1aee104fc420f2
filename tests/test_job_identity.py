"""Job identity: one hash per job object, the calibration digest as a
job field, and one canonical text per value.

A job's key is a pure function of its fields, computed once per job
object, and hashes the job's canonical text (``canonical_text``, the
compact key-sorted JSON of ``canonical``).  An ``analytic-sampled``
job takes the active calibration table's digest when it is built, so
changing ``$REPRO_CALIBRATION`` later never moves its key, and pricing
refuses a job whose digest is not the pricing table's: on the bulk
path, on the pooled path and in pool workers that started under
another table.
"""

import asyncio
import hashlib
import json
from dataclasses import MISSING, dataclass, fields, replace
from enum import Enum, IntEnum

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.eval.engine as engine_module
from repro.analytic.calibration import (
    FEATURE_NAMES,
    CalibrationTable,
    active_digest,
)
from repro.arch import ProcessorConfig
from repro.arch.stats import ExecutionStats
from repro.arch.timing import available_backends
from repro.errors import EngineError, KernelError, ServeError, WorkloadError
from repro.eval.comparison import PROPOSED
from repro.eval.engine import (
    CACHE_SCHEMA,
    ExperimentEngine,
    ResultCache,
    SimJob,
    _blob,
    _job_text,
    _manifest_line,
    job_hash,
)
from repro.eval.memo import canonical, canonical_text
from repro.eval.planner import bulk_eligible
from repro.eval.runner import CSR_KERNEL, JOB_KERNELS, KernelRun
from repro.kernels.compiler import Schedule
from repro.kernels.compiler.spec import RESIDENCIES
from repro.kernels.dataflow import Dataflow
from repro.nn.workload import POLICIES, SMALL, TINY, ScalePolicy
from repro.serve import ServeConfig
from repro.serve.protocol import job_from_dict, job_to_dict
from repro.serve.service import ExperimentService

ANALYTIC = "analytic-sampled"


def tiny_job(seed=0, backend=None):
    return SimJob.for_shape(8, 32, 16, (1, 4), PROPOSED, seed=seed,
                            backend=backend)


@pytest.fixture
def other_table(tmp_path):
    """``(path, digest)`` of a calibration table unlike the active one."""
    table = CalibrationTable(weights=tuple(2.0 for _ in FEATURE_NAMES))
    path = tmp_path / "other.json"
    table.save(path)
    assert table.digest() != active_digest()
    return path, table.digest()


@pytest.fixture
def hashed(monkeypatch):
    """Every job :func:`job_hash` is called on, wrapped by name in
    :mod:`repro.eval.engine` as an outside profiler would wrap it."""
    calls = []
    original = engine_module.job_hash

    def counting(job):
        calls.append(job)
        return original(job)

    monkeypatch.setattr(engine_module, "job_hash", counting)
    return calls


# ----------------------------------------------------------------------
# The calibration digest is a job field
# ----------------------------------------------------------------------
def test_only_analytic_jobs_carry_a_digest():
    job = tiny_job(backend=ANALYTIC)
    assert job.calibration == active_digest()
    assert tiny_job().calibration is None
    detailed = replace(job, backend="detailed")
    assert detailed.calibration is None
    assert replace(detailed, backend=ANALYTIC).calibration == active_digest()
    # the digest comes from the table, never from the caller
    with pytest.raises(TypeError):
        SimJob(kernel=PROPOSED, nm=(1, 4), shape=(8, 32, 16), seed=0,
               backend=ANALYTIC, calibration="0" * 16)
    with pytest.raises(ValueError):
        replace(job, calibration="0" * 16)


def test_table_change_after_build_keeps_the_key(other_table, monkeypatch):
    job = tiny_job(backend=ANALYTIC)
    key = job.key
    assert job_hash(job) == key
    monkeypatch.setenv("REPRO_CALIBRATION", str(other_table[0]))
    assert job.key == key
    assert job_hash(job) == key
    assert job.calibration != active_digest()


def test_job_built_under_another_table_hashes_differently(other_table,
                                                          monkeypatch):
    default = tiny_job(backend=ANALYTIC)
    monkeypatch.setenv("REPRO_CALIBRATION", str(other_table[0]))
    other = tiny_job(backend=ANALYTIC)
    assert other.calibration == other_table[1]
    assert job_hash(other) != job_hash(default)
    assert other != default


def analytic_job(kernel=PROPOSED, seed=0):
    """An analytic job; the planner prices it in bulk unless it is the
    CSR baseline, whose trace depends on its operands' values."""
    return SimJob.for_shape(8, 32, 16, (1, 4), kernel, seed=seed,
                            backend=ANALYTIC)


@pytest.mark.parametrize("kernel", [PROPOSED, CSR_KERNEL],
                         ids=["bulk", "pooled"])
def test_job_built_under_another_table_is_refused(kernel, other_table,
                                                  monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CALIBRATION", str(other_table[0]))
    job = analytic_job(kernel)
    monkeypatch.delenv("REPRO_CALIBRATION")
    assert bulk_eligible(job) == (kernel == PROPOSED)
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache")
    with pytest.raises(EngineError) as err:
        engine.run([job])
    assert other_table[1] in str(err.value)
    assert active_digest() in str(err.value)
    assert engine.counters.simulated == 0
    assert engine.probe([job]) == [None]
    assert ResultCache(tmp_path / "cache").indexed_count() == 0


def test_pool_worker_refuses_a_job_built_after_a_table_change(
        other_table, monkeypatch, tmp_path):
    """Pool workers keep the table they started with: a job built
    after the change is refused there, not priced by the old table and
    stored under the new table's key."""
    engine = ExperimentEngine(jobs=2, cache_dir=tmp_path / "cache",
                              pool_idle=0)
    try:
        if not engine.warm_pool():
            pytest.skip("no worker processes in this environment")
        monkeypatch.setenv("REPRO_CALIBRATION", str(other_table[0]))
        jobs = [analytic_job(CSR_KERNEL, seed=s) for s in range(2)]
        with pytest.raises(EngineError) as err:
            engine.run(jobs)
        assert other_table[1] in str(err.value)
        assert ResultCache(tmp_path / "cache").indexed_count() == 0
    finally:
        engine.shutdown()


# ----------------------------------------------------------------------
# One hash per job object
# ----------------------------------------------------------------------
def test_memoised_canonical_parts_hash_like_canonical():
    """The config memo is keyed by object, not equality: ``7`` and
    ``7.0`` compare equal but canonicalise (and hash) differently,
    whichever of them was hashed first."""
    base = ProcessorConfig.scaled_default()
    as_float = replace(base, dram=replace(base.dram, cycles_per_line=7.0))
    as_int = replace(base, dram=replace(base.dram, cycles_per_line=7))
    assert as_float == as_int
    jobs = [SimJob.for_shape(8, 32, 16, (1, 4), PROPOSED, config=config)
            for config in (as_float, as_int, as_float)]
    for job in jobs:
        blob = json.dumps({"schema": CACHE_SCHEMA, "job": canonical(job)},
                          sort_keys=True, separators=(",", ":"))
        assert job_hash(job) == hashlib.sha256(blob.encode()).hexdigest()
    assert job_hash(jobs[0]) != job_hash(jobs[1])


@pytest.mark.parametrize("fields", [
    {"nm": (True, 4)},
    {"nm": (1, 4.0)},
    {"nm": (np.int64(1), 4)},
    {"shape": (True, 32, 16)},
    {"shape": (8, 32.0, 16)},
], ids=repr)
def test_job_refuses_non_integer_workload_fields(fields):
    """A bool (or any non-int) would hash unlike its integer twin and
    store one workload under a second key."""
    spec = {"kernel": PROPOSED, "nm": (1, 4), "shape": (8, 32, 16),
            "seed": 0, **fields}
    with pytest.raises(EngineError):
        SimJob(**spec)
    if "nm" in fields:
        with pytest.raises(EngineError):
            SimJob.for_layer("resnet50", "conv1", fields["nm"],
                             POLICIES["tiny"], PROPOSED)


@pytest.mark.parametrize("part,name,value", [
    ("schedule", "tile_rows", 16.0),
    ("schedule", "unroll", 4.0),
    ("schedule", "cores", True),
    ("schedule", "init_c_zero", 1),
    ("policy", "rows_div", 4.0),
    ("policy", "rows_div", 0),
    ("policy", "rows_div", -4),
    ("policy", "rows_div", True),
    ("policy", "k_range", (32.0, 512)),
    ("job", "verify", 1),
    ("job", "verify", "yes"),
    ("job", "verify", None),
    ("job", "model", 1),
], ids=lambda value: repr(value) if not isinstance(value, str) else value)
def test_job_parts_refuse_values_unlike_their_type(part, name, value):
    """Integer parts take plain ints (positive divisors, ``lo <= hi``
    ranges), flags take bools and names strings: anything else would
    hash unlike its twin (``16.0 == 16``, ``True == 1``) or fail only
    while planning.  Refused when built, and by the wire decoder (a
    400)."""
    wire = job_to_dict(SimJob.for_layer("resnet50", "conv1", (1, 4), TINY,
                                        PROPOSED))
    if part == "schedule":
        with pytest.raises(KernelError):
            Schedule(**{name: value})
        wire["schedule"] = {**wire["schedule"], name: value}
    elif part == "policy":
        with pytest.raises(WorkloadError):
            replace(TINY, **{name: value})
        wire["policy"] = {**wire["policy"], name: value}
    else:
        with pytest.raises(EngineError):
            SimJob(**{"kernel": PROPOSED, "nm": (1, 4), "model": "resnet50",
                      "layer": "conv1", "policy": TINY, name: value})
        wire[name] = value
    with pytest.raises(ServeError):
        job_from_dict(json.loads(json.dumps(wire)))


# ----------------------------------------------------------------------
# The canonical text
# ----------------------------------------------------------------------
class Colour(Enum):
    RED = "r"
    BLUE = 2


class Level(IntEnum):
    LOW = 1
    HIGH = 10


@dataclass(frozen=True)
class Leaf:
    label: str
    weight: float = 0.0


@dataclass(frozen=True)
class Node:
    """Declaration order unlike key order."""

    zulu: object
    alpha: object = None
    mike: tuple = ()


_EDGE_FLOATS = [-0.0, float("inf"), float("-inf"), float("nan"), 1e16]
_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.floats().map(np.float64), st.sampled_from(_EDGE_FLOATS),
    st.sampled_from(_EDGE_FLOATS).map(np.float64),
    st.text(), st.sampled_from(Colour), st.sampled_from(Level),
    st.builds(Leaf, st.text(max_size=4), st.floats()))
#: Values ``canonical`` rejects: a NumPy int, a set, a class, ...
_REJECTED = st.sampled_from([np.int64(3), np.bool_(True), object(),
                             frozenset({1}), b"x", 1j, Leaf])


def _nested(leaves):
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), children, max_size=4),
        st.dictionaries(st.integers(), children, max_size=4),
        st.dictionaries(st.sampled_from(Level), children, max_size=2),
        st.builds(Node, children, children,
                  st.lists(children, max_size=3).map(tuple))),
        max_leaves=16)


def _json_of_canonical(value) -> str:
    return json.dumps(canonical(value), sort_keys=True,
                      separators=(",", ":"))


@settings(max_examples=300, deadline=None)
@given(_nested(_LEAVES))
def test_canonical_text_is_the_json_of_canonical(value):
    assert canonical_text(value) == _json_of_canonical(value)


@settings(max_examples=200, deadline=None)
@given(_nested(st.one_of(_LEAVES, _REJECTED)))
# two rejected values: the error names the one canonical meets first
@example({2: np.int64(1), 10: object()})
@example(Node(zulu=np.int64(1), alpha=object()))
def test_canonical_text_rejects_what_canonical_rejects(value):
    try:
        expected = _json_of_canonical(value)
    except EngineError as exc:
        with pytest.raises(EngineError) as err:
            canonical_text(value)
        assert str(err.value) == str(exc)
    else:
        assert canonical_text(value) == expected


# ----------------------------------------------------------------------
# The spliced texts: keys, payloads and manifest lines
# ----------------------------------------------------------------------
_BASE = ProcessorConfig.scaled_default()
_CONFIGS = st.builds(
    lambda kib, line, cycles: replace(
        _BASE, l2=replace(_BASE.l2, size_bytes=kib * 1024, line_bytes=line),
        dram=replace(_BASE.dram, cycles_per_line=cycles)),
    st.sampled_from((64, 96, 128)), st.sampled_from((32, 64, 128)),
    st.one_of(st.integers(1, 16), st.floats(1, 16)))
_SCHEDULES = st.builds(
    Schedule, tile_rows=st.integers(1, 64), unroll=st.sampled_from((1, 2, 4)),
    dataflow=st.sampled_from(Dataflow), vlmax=st.integers(1, 64),
    b_residency=st.sampled_from(RESIDENCIES), init_c_zero=st.booleans(),
    cores=st.integers(1, 8))
_RANGES = st.lists(st.integers(1, 10**9), min_size=2, max_size=2).map(
    lambda bounds: tuple(sorted(bounds)))
_SCALE_POLICIES = st.one_of(
    st.sampled_from(list(POLICIES.values())),
    st.builds(ScalePolicy, name=st.text(max_size=6),
              rows_div=st.integers(1, 64), rows_range=_RANGES,
              k_div=st.integers(1, 64), k_range=_RANGES,
              n_div=st.integers(1, 64), n_range=_RANGES))
_PATTERNS = st.integers(1, 8).flatmap(
    lambda m: st.tuples(st.integers(1, m), st.just(m)))
_JOB_PARTS = dict(kernel=st.sampled_from(JOB_KERNELS), nm=_PATTERNS,
                  config=_CONFIGS, verify=st.booleans(),
                  backend=st.sampled_from(available_backends()),
                  schedule=_SCHEDULES)
#: Valid jobs of both workload sources; names with escapes and
#: non-ASCII text, which the texts must quote like ``canonical_text``.
_JOBS = st.one_of(
    st.builds(SimJob, model=st.text(max_size=8), layer=st.text(max_size=8),
              policy=_SCALE_POLICIES, **_JOB_PARTS),
    st.builds(SimJob, shape=st.tuples(*[st.integers(8, 512)] * 3),
              seed=st.integers(0, 2**63), **_JOB_PARTS))


def _off_default_jobs():
    """One job per workload source with every other field set off its
    default (and no two fields alike)."""
    config = replace(_BASE, memory_bytes=2**24,
                     l2=replace(_BASE.l2, line_bytes=128))
    schedule = Schedule(tile_rows=8, unroll=2, vlmax=8, cores=3,
                        dataflow=Dataflow.A_STATIONARY,
                        b_residency="memory", init_c_zero=False)
    parts = dict(kernel="rowwise-spmm", nm=(2, 8), config=config,
                 verify=False, backend=ANALYTIC, schedule=schedule)
    return [SimJob(model="resnet50", layer="conv1", policy=SMALL, **parts),
            SimJob(shape=(24, 64, 48), seed=5, **parts)]


def _stored_run(job):
    stats = ExecutionStats(cycles=np.float64(1234.5), instructions=1000,
                           vector_loads=np.float64(2.0e16),
                           extra={"wall_seconds": 0.1 + 0.2,
                                  "scale": np.float64(-0.0),
                                  "per_core": {3: [1.5, None]},
                                  "backend": job.backend})
    return KernelRun(kernel=job.kernel, stats=stats, verified=job.verify,
                     backend=job.backend)


@settings(max_examples=150, deadline=None)
@given(_JOBS)
def test_job_text_is_the_canonical_text(job):
    assert _job_text(job) == canonical_text(job)


def test_job_text_writes_every_field():
    jobs = _off_default_jobs()
    for f in fields(SimJob):
        default = (f.default_factory() if f.default_factory is not MISSING
                   else f.default)
        assert any(getattr(job, f.name) != default for job in jobs), f.name
    for job in jobs:
        assert _job_text(job) == canonical_text(job)


@pytest.mark.parametrize("source", ["layer", "shape"])
def test_blob_is_the_canonical_text_of_its_payload(source):
    job = _off_default_jobs()[source == "shape"]
    run = _stored_run(job)
    payload = {"backend": run.backend, "job": job, "kernel": run.kernel,
               "schema": CACHE_SCHEMA, "stats": run.stats,
               "verified": run.verified}
    assert _blob(job, run) == canonical_text(payload).encode()


@settings(max_examples=100, deadline=None)
@given(key=st.text(), segment=st.text(), offset=st.integers(0, 2**63),
       size=st.integers(0, 2**31), backend=st.text())
def test_manifest_line_is_the_canonical_text_of_its_record(
        key, segment, offset, size, backend):
    record = {"k": key, "s": segment, "o": offset, "n": size,
              "b": backend}
    assert (_manifest_line(key, segment, offset, size, backend)
            == canonical_text(record))


def _serve(cache_dir, scenario):
    async def main():
        service = ExperimentService(
            engine=ExperimentEngine(jobs=1, cache_dir=cache_dir),
            config=ServeConfig(batch_window=0.001))
        await service.start()
        try:
            return await scenario(service)
        finally:
            await service.close()

    return asyncio.run(main())


def test_warm_submit_hashes_once(hashed, tmp_path):
    ExperimentEngine(jobs=1, cache_dir=tmp_path).run([tiny_job(seed=1)])

    async def scenario(service):
        hashed.clear()
        handle = service.submit([tiny_job(seed=1)])  # an equal new object
        assert handle.counts()["warm"] == 1
        await handle.results()

    _serve(tmp_path, scenario)
    assert len(hashed) == 1


def test_cold_submit_hashes_once(hashed, tmp_path):
    async def scenario(service):
        handle = service.submit([tiny_job(seed=2)])
        assert handle.counts()["queued"] == 1
        await handle.results()
        assert service.engine.counters.simulated == 1

    _serve(tmp_path, scenario)
    assert len(hashed) == 1  # submit, dispatch, run and store


def test_repeated_runs_of_the_same_jobs_hash_once(hashed, tmp_path):
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path)
    jobs = [tiny_job(seed=s, backend=ANALYTIC) for s in range(3)]
    engine.run(jobs)
    engine.run(jobs)
    assert engine.probe(jobs) == engine.run(jobs)
    assert len(hashed) == 3
