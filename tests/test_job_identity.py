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
from dataclasses import dataclass, replace
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
from repro.errors import EngineError
from repro.eval.comparison import PROPOSED
from repro.eval.engine import (
    CACHE_SCHEMA,
    ExperimentEngine,
    ResultCache,
    SimJob,
    job_hash,
)
from repro.eval.memo import canonical, canonical_text
from repro.nn.workload import POLICIES
from repro.serve import ServeConfig
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


@pytest.mark.parametrize("bulk", [True, False], ids=["bulk", "pooled"])
def test_job_built_under_another_table_is_refused(bulk, other_table,
                                                  monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CALIBRATION", str(other_table[0]))
    job = tiny_job(backend=ANALYTIC)
    monkeypatch.delenv("REPRO_CALIBRATION")
    engine = ExperimentEngine(jobs=1, cache_dir=tmp_path / "cache",
                              bulk=bulk)
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
                              bulk=False, pool_idle=0)
    try:
        if not engine.warm_pool():
            pytest.skip("no worker processes in this environment")
        monkeypatch.setenv("REPRO_CALIBRATION", str(other_table[0]))
        jobs = [tiny_job(seed=s, backend=ANALYTIC) for s in range(2)]
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
