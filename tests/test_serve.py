"""Tests for the shared-cache experiment server (repro.serve)."""

import asyncio
import json
import socket
import statistics
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import (
    ServeError,
    ServeOverloadedError,
    ServeUnavailableError,
)
import repro.eval.engine as engine_module
import repro.serve.protocol as protocol
from repro.arch import ProcessorConfig
from repro.eval.comparison import BASELINE, PROPOSED
from repro.eval.engine import ExperimentEngine, SimJob, job_hash
from repro.kernels import Schedule
from repro.nn import TINY, ScalePolicy
from repro.serve import ServeClient, ServeConfig, ServerThread, fig4_jobs
from repro.serve.protocol import (
    PART_MEMO_SIZE,
    job_from_dict,
    job_to_dict,
    run_from_dict,
    run_to_dict,
)
from repro.serve.service import ExperimentService
from repro.serve.stats import LatencyStats


def tiny_job(kernel=PROPOSED, nm=(1, 4), seed=0, rows=8):
    return SimJob.for_shape(rows, 32, 16, nm, kernel, seed=seed)


def layer_job(policy=TINY):
    return SimJob.for_layer("resnet50", "conv1", (1, 4), policy,
                            PROPOSED)


# ----------------------------------------------------------------------
# Wire protocol
# ----------------------------------------------------------------------
def test_protocol_round_trip_preserves_job_hash():
    """A spec that crossed the wire must hit the same cache entries as
    the original — the whole serving model depends on it."""
    custom = ScalePolicy(name="custom", rows_div=4,
                         rows_range=(8, 16), k_div=8,
                         k_range=(32, 32), n_div=8,
                         n_range=(16, 16))
    analytic = SimJob.for_shape(8, 32, 16, (1, 4), PROPOSED, seed=3,
                                backend="analytic-sampled")
    for job in (tiny_job(), tiny_job(kernel=BASELINE, nm=(2, 4)),
                layer_job(), layer_job(policy=custom), analytic):
        wire = json.loads(json.dumps(job_to_dict(job)))  # real JSON trip
        rebuilt = job_from_dict(wire)
        assert job_hash(rebuilt) == job_hash(job)
        assert rebuilt == job
    # the digest is not on the wire: the server's own table decides
    assert "calibration" not in job_to_dict(analytic)
    with pytest.raises(ServeError):
        job_from_dict({**job_to_dict(analytic),
                       "calibration": analytic.calibration})


def test_protocol_policy_by_name():
    job = job_from_dict({"kernel": PROPOSED, "nm": [1, 4],
                         "model": "resnet50", "layer": "conv1",
                         "policy": "tiny"})
    assert job.policy == TINY


def _with_config(spec, part=None, **leaves):
    """``spec`` with ``leaves`` set in its config, or in its config's
    nested ``part``."""
    config = json.loads(json.dumps(spec["config"]))
    (config[part] if part else config).update(leaves)
    return {**spec, "config": config}


def test_protocol_rejects_malformed_specs():
    good = job_to_dict(tiny_job())
    layer = job_to_dict(layer_job())
    memory = good["config"]["memory_bytes"]
    bad_specs = [
        "not an object",
        {},  # no kernel/nm
        {**good, "frobnicate": 1},  # unknown field
        {**good, "nm": [1, 4, 4]},  # not a pair
        {**good, "shape": [8, 32]},  # not a triple
        {**good, "policy": "no-such-policy", "model": "resnet50",
         "layer": "conv1"},
        {**layer, "policy": "no-such-policy"},
        {k: v for k, v in good.items() if k not in ("shape", "seed")},
        {**good, "schedule": {"dataflow": "bogus"}},
        {**layer, "layer": None},
        # fields of the other workload source are refused, not dropped
        {**good, "model": "resnet50", "layer": "conv1", "policy": "small"},
        {**good, "layer": "conv1"},
        {**layer, "seed": 0},
        {**good, "kernel": "no-such-kernel"},  # not in the kernel table
        {**good, "kernel": "dense-rowwise"},  # no job workload
        # refused when the job is built, not inside a worker
        {**good, "seed": "x"},
        {**good, "seed": 1.5},
        {**good, "seed": -3},
        {**good, "seed": True},  # default_rng treats it as 1
        {**good, "shape": [0, 32, 16]},
        {**good, "shape": [8, -32, 16]},
        {**good, "nm": [5, 4]},
        {**good, "nm": [0, 4]},
        # a JSON boolean is no integer: it would hash unlike 1
        {**good, "nm": [True, 4]},
        {**good, "shape": [True, 32, 16]},
        {**good, "verify": "false"},  # a JSON boolean only
        {**good, "backend": "compressed-replay"},  # folded into batch
        {**good, "backend": "no-such-backend"},
        # config leaves: plain integers in range, checked when decoded
        _with_config(good, memory_bytes="x"),
        _with_config(good, memory_bytes=True),
        _with_config(good, memory_bytes=1.5),
        # equal to the default, but it would be stored under another key
        _with_config(good, memory_bytes=float(memory)),
        _with_config(good, "l2", ways=True),
        _with_config(good, "scalar", rob_entries=0),
        _with_config(good, "vector", queue_depth=-1),
        _with_config(good, "vector", mac_latency="6"),
        _with_config(good, "l2", line_bytes=0),  # was a ZeroDivisionError
        # too large for a float clock: was an OverflowError in a worker
        _with_config(good, "vector", mac_latency=10**400),
        # sizes an allocation: was an IndexError in a worker, which
        # failed its whole engine batch
        _with_config(good, "vector", num_vregs=8),
        _with_config(good, "scalar", rob_entries=2**31),
    ]
    for spec in bad_specs:
        with pytest.raises(ServeError):
            job_from_dict(spec)


def test_protocol_interns_equal_parts(monkeypatch):
    """Equal config, schedule and policy dicts decode to one object
    each, whatever their key order, and a job built from them is
    hashed without encoding them again."""
    custom = ScalePolicy(name="interned", rows_div=4,
                         rows_range=(8, 16), k_div=8,
                         k_range=(32, 32), n_div=8,
                         n_range=(16, 16))
    wire = job_to_dict(layer_job(policy=custom))
    first = job_from_dict(json.loads(json.dumps(wire)))
    job_hash(first)  # the engine's identity memo keeps each part's text
    reordered = {key: (dict(reversed(list(value.items())))
                       if isinstance(value, dict) else value)
                 for key, value in wire.items()}
    encoded = []
    canonical_text = engine_module.canonical_text

    def spy(value):
        encoded.append(type(value))
        return canonical_text(value)

    monkeypatch.setattr(engine_module, "canonical_text", spy)
    second = job_from_dict(json.loads(json.dumps(reordered)))
    assert second is not first and second == first
    assert second.config is first.config
    assert second.schedule is first.schedule
    assert second.policy is first.policy
    assert job_hash(second) == job_hash(first)
    assert encoded and not {ProcessorConfig, Schedule,
                            ScalePolicy} & set(encoded)


def test_protocol_interning_keys_on_the_json_text():
    """A part is remembered only once it decoded, under its JSON text:
    ``16.0`` and ``true`` stay refused after ``16`` was accepted, and a
    malformed part is refused on every submission."""
    good, layer = job_to_dict(tiny_job()), job_to_dict(layer_job())
    job_from_dict(good)
    job_from_dict(layer)
    schedule, policy = good["schedule"], layer["policy"]
    bad_specs = [
        {**good, "schedule": {**schedule, "tile_rows": 16.0}},
        {**good, "schedule": {**schedule, "tile_rows": True}},
        {**layer, "policy": {**policy, "rows_div": 4.0}},
        {**layer, "policy": {**policy, "rows_div": True}},
        {**good, "config": {**good["config"], "frobnicate": 1}},
        {**good, "config": {**good["config"],
                            "l2": {**good["config"]["l2"], "ways": 7}}},
    ]
    for spec in bad_specs:
        for _ in range(2):
            with pytest.raises(ServeError):
                job_from_dict(spec)


def test_protocol_intern_memo_stays_bounded():
    config = job_to_dict(tiny_job())["config"]
    for i in range(PART_MEMO_SIZE + 8):
        job_from_dict({**job_to_dict(tiny_job()),
                       "config": {**config,
                                  "memory_bytes": (1 << 26) + 64 * i}})
    assert len(protocol._parts) <= PART_MEMO_SIZE


def test_run_payload_round_trip():
    engine = ExperimentEngine(jobs=1, cache=False)
    try:
        run = engine.run([tiny_job()])[0]
    finally:
        engine.shutdown()
    payload = json.loads(json.dumps(run_to_dict(run,
                                                include_stats=True)))
    rebuilt = run_from_dict(payload)
    assert rebuilt.stats.cycles == run.stats.cycles
    assert rebuilt.verified == run.verified
    with pytest.raises(ServeError):
        run_from_dict(run_to_dict(run))  # no stats block


# ----------------------------------------------------------------------
# Latency reservoir
# ----------------------------------------------------------------------
def test_latency_stats_exact_until_capacity():
    stats = LatencyStats(capacity=100)
    for ms in range(1, 101):
        stats.record(ms / 1e3)
    assert stats.count == 100
    assert stats.percentile(0) == pytest.approx(0.001)
    assert stats.percentile(50) == pytest.approx(0.0505)
    assert stats.percentile(100) == pytest.approx(0.100)
    assert stats.max == pytest.approx(0.100)
    summary = stats.summary()
    assert summary["count"] == 100
    assert summary["p50"] == pytest.approx(50.5)


def test_latency_stats_reservoir_stays_bounded():
    stats = LatencyStats(capacity=64)
    for i in range(10_000):
        stats.record(i / 1e6)
    assert stats.count == 10_000
    assert len(stats._samples) == 64
    # the subset is uniform-ish: the median must land mid-range
    assert 0.002 < stats.percentile(50) < 0.008


def test_latency_stats_empty_and_validation():
    stats = LatencyStats()
    assert stats.percentile(99) == 0.0
    assert stats.mean == 0.0
    with pytest.raises(ValueError):
        stats.percentile(101)
    with pytest.raises(ValueError):
        LatencyStats(capacity=0)


# ----------------------------------------------------------------------
# ServeConfig
# ----------------------------------------------------------------------
def test_serve_config_validation_and_env(monkeypatch):
    with pytest.raises(ServeError):
        ServeConfig(batch_window=-1)
    with pytest.raises(ServeError):
        ServeConfig(interactive_depth=0)
    monkeypatch.setenv("REPRO_SERVE_DEPTH", "7")
    monkeypatch.setenv("REPRO_SERVE_WINDOW", "0.5")
    config = ServeConfig.from_env(batch_window=0.25)
    assert config.interactive_depth == 7  # env fills the gap
    assert config.batch_window == 0.25  # explicit override wins
    assert config.depth("interactive") == 7
    assert config.depth("bulk") == config.bulk_depth


# ----------------------------------------------------------------------
# Service semantics (no HTTP): warm path, single-flight, admission
# ----------------------------------------------------------------------
def run_service(coro_fn, config=None, jobs=1):
    """Drive one async service scenario to completion."""

    async def scenario():
        service = ExperimentService(
            engine=ExperimentEngine(jobs=jobs),
            config=config or ServeConfig(batch_window=0.001))
        await service.start()
        try:
            return await coro_fn(service)
        finally:
            await service.close()

    return asyncio.run(scenario())


def test_service_warm_path_answers_without_queueing():
    async def scenario(service):
        jobs = [tiny_job(seed=310), tiny_job(nm=(2, 4), seed=311)]
        first = service.submit(jobs)
        await first.results()
        second = service.submit(jobs)
        assert second.counts() == {"warm": 2, "joined": 0, "queued": 0}
        assert second.done_count() == 2  # no await needed
        runs = await second.results()
        assert all(run.verified for run in runs)
        assert service.counters["warm_hits"] == 2
        assert service.latency["warm"].count == 2

    run_service(scenario)


def test_service_single_flight_simulates_duplicates_once():
    async def scenario(service):
        job = tiny_job(seed=320)
        handles = [service.submit([job]) for _ in range(5)]
        counts = [h.entries[0]["source"] for h in handles]
        assert counts[0] == "queued"
        assert counts[1:] == ["joined"] * 4
        results = [await h.results() for h in handles]
        cycles = {r[0].stats.cycles for r in results}
        assert len(cycles) == 1
        assert service.counters["single_flight_joins"] == 4
        assert service.engine.counters.simulated == 1

    run_service(scenario)


def test_service_dedups_within_one_submission():
    async def scenario(service):
        job = tiny_job(seed=330)
        handle = service.submit([job, job, job])
        assert handle.counts() == {"warm": 0, "joined": 2, "queued": 1}
        await handle.results()
        assert service.engine.counters.simulated == 1

    run_service(scenario)


def test_service_sheds_overload_with_retry_after():
    async def scenario(service):
        jobs = [tiny_job(seed=s) for s in range(400, 403)]
        with pytest.raises(ServeOverloadedError) as excinfo:
            service.submit(jobs, lane="bulk")
        assert excinfo.value.retry_after == pytest.approx(2.5)
        assert service.counters["shed"] == 1
        # the shed was all-or-nothing: nothing leaked into the queue
        assert service.queue_depths()["bulk"] == 0
        # a submission that fits is still admitted afterwards
        handle = service.submit(jobs[:2], lane="bulk")
        runs = await handle.results()
        assert len(runs) == 2

    run_service(scenario, config=ServeConfig(
        batch_window=0.001, bulk_depth=2, retry_after=2.5))


def test_service_warm_and_joined_never_consume_capacity():
    async def scenario(service):
        base = tiny_job(seed=340)
        await service.submit([base]).results()  # make it warm
        # depth 1: one genuinely new job + a warm one + a dup must fit
        fresh = tiny_job(seed=341)
        handle = service.submit([base, fresh, fresh])
        assert handle.counts() == {"warm": 1, "joined": 1, "queued": 1}
        await handle.results()

    run_service(scenario, config=ServeConfig(batch_window=0.001,
                                             interactive_depth=1))


def test_service_rejects_bad_lane_and_empty_submission():
    async def scenario(service):
        with pytest.raises(ServeError):
            service.submit([tiny_job()], lane="express")
        with pytest.raises(ServeError):
            service.submit([])

    run_service(scenario)


def test_service_isolates_poisoned_jobs():
    async def scenario(service):
        good = tiny_job(seed=350)
        # a valid job that fails only when it runs: the scaled config's
        # vector engine has 16 lanes, so vlmax=32 is rejected at run time
        bad = SimJob.for_shape(8, 32, 16, (1, 4), PROPOSED,
                               schedule=Schedule(vlmax=32))
        handle = service.submit([good, bad])
        results = await handle.results()
        assert results[0].verified
        assert isinstance(results[1], Exception)
        assert service.counters["job_errors"] == 1

    run_service(scenario)


def test_service_stats_shape():
    async def scenario(service):
        await service.submit([tiny_job(seed=300)]).results()
        service.submit([tiny_job(seed=300)])  # warm
        stats = service.stats()
        assert stats["jobs"] == 2
        assert stats["warm_hits"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert set(stats["latency_ms"]) == {"warm", "interactive",
                                            "bulk"}
        assert stats["engine"]["simulated"] == 1
        assert stats["engine"]["summary"].startswith("engine:")

    run_service(scenario)


# ----------------------------------------------------------------------
# HTTP end-to-end (embedded server + blocking client)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def server():
    with ServerThread(ServeConfig(batch_window=0.001)) as thread, \
            ServeClient(thread.url) as client:
        client.wait_until_ready(20)
        yield thread


@pytest.fixture
def client(server):
    with ServeClient(server.url) as client:
        yield client


def test_http_cold_then_warm_round_trip(client):
    jobs = [tiny_job(seed=360), tiny_job(seed=361)]
    first = client.submit(jobs)
    assert first["counts"]["queued"] == 2
    assert all("error" not in r for r in first["results"])
    second = client.submit(jobs, include_stats=True)
    assert second["counts"] == {"warm": 2, "joined": 0, "queued": 0}
    for before, after in zip(first["results"], second["results"]):
        assert after["source"] == "warm"
        assert after["cycles"] == before["cycles"]
        assert run_from_dict(after).stats.cycles == after["cycles"]


def test_http_submit_nowait_status_and_stream(client):
    jobs = [tiny_job(seed=370), tiny_job(seed=371), tiny_job(seed=372)]
    handle = client.submit(jobs, wait=False)
    assert handle["total"] == 3
    lines = list(client.stream(handle["batch"]))
    assert len(lines) == 4  # one per job + the summary
    summary = lines[-1]
    assert summary["done"] is True and summary["errors"] == 0
    assert {line["index"] for line in lines[:-1]} == {0, 1, 2}
    status = client.batch_status(handle["batch"])
    assert status["done"] == status["total"] == 3
    assert all(job["state"] == "done" for job in status["jobs"])


def test_http_stats_and_health(client):
    assert client.healthy()
    stats = client.stats()
    assert stats["engine"]["workers"] >= 1
    assert "queue_depth" in stats and "latency_ms" in stats


def test_http_error_mapping(client):
    with pytest.raises(ServeError, match="404"):
        client.batch_status("no-such-batch")
    with pytest.raises(ServeError, match="404"):
        client._json("GET", "/v1/frobnicate")
    with pytest.raises(ServeError, match="400"):
        client._json("POST", "/v1/jobs", {"jobs": []})
    with pytest.raises(ServeError, match="400"):
        client._json("POST", "/v1/jobs",
                     {"jobs": [{"kernel": "x", "nm": [1]}]})
    # the good schedule and policy are decoded (and interned) first
    client.submit([tiny_job(), layer_job()])
    shape, layer = job_to_dict(tiny_job()), job_to_dict(layer_job())
    for spec in ({**shape, "nm": [True, 4]},
                 {**shape, "shape": [8, True, 16]},
                 # refused when decoded, not while the job is planned
                 {**shape, "schedule": {**shape["schedule"],
                                        "tile_rows": 16.0}},
                 {**shape, "schedule": {**shape["schedule"],
                                        "tile_rows": True}},
                 {**layer, "policy": {**layer["policy"], "rows_div": 4.0}},
                 {**layer, "policy": {**layer["policy"], "rows_div": True}},
                 {**shape, "model": "resnet50", "layer": "conv1",
                  "policy": "tiny"}):
        with pytest.raises(ServeError, match="400"):
            client._json("POST", "/v1/jobs", {"jobs": [spec]})
    status, _, _ = client._request("POST", "/v1/healthz")
    assert status == 404  # wrong method


def _raw_exchange(url: str, request: bytes) -> bytes:
    """Send ``request`` on a fresh socket; return what the server
    answered before it closed the connection (it may answer and close
    before it has read the whole request)."""
    host, port = url.split("//", 1)[1].rsplit(":", 1)
    reply = b""
    with socket.create_connection((host, int(port)), timeout=20) as sock:
        try:
            sock.sendall(request)
        except (BrokenPipeError, ConnectionResetError):
            pass
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            reply += chunk
    return reply


@pytest.mark.parametrize("request_bytes", [
    b"POST /v1/jobs HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
    b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\n\r\n",
    b"GET /v1/healthz HTTP/1.1\r\nX-Long: " + b"x" * 70_000
    + b"\r\n\r\n",
], ids=["negative-content-length", "long-request-line", "long-header"])
def test_http_framing_errors_answer_400(server, client, request_bytes):
    """A request the parser cannot frame is answered 400 and its
    connection closed; the server keeps serving."""
    reply = _raw_exchange(server.url, request_bytes)
    assert reply.startswith(b"HTTP/1.1 400 "), reply[:200]
    assert client.healthy()


def test_http_concurrent_identical_cold_jobs_simulate_once(server, client):
    before = client.stats()["engine"]["simulated"]
    job = tiny_job(seed=365, rows=32)
    barrier = threading.Barrier(24, timeout=30)
    results = []

    def submit():
        barrier.wait()
        with ServeClient(server.url) as own:
            results.append(own.submit([job]))

    threads = [threading.Thread(target=submit) for _ in range(24)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
        assert not t.is_alive()
    assert len(results) == 24
    cycles = {r["results"][0]["cycles"] for r in results}
    assert len(cycles) == 1
    sources = [r["results"][0]["source"] for r in results]
    assert sources.count("queued") <= 1  # dupes joined or hit warm
    after = client.stats()["engine"]["simulated"]
    assert after - before == 1  # the single-flight guarantee


def test_http_overload_returns_429():
    config = ServeConfig(batch_window=0.001, bulk_depth=1,
                         retry_after=3.0)
    with ServerThread(config) as thread, ServeClient(thread.url) as client:
        client.wait_until_ready(20)
        with pytest.raises(ServeOverloadedError) as excinfo:
            client.submit([tiny_job(seed=s) for s in range(380, 384)],
                          lane="bulk")
        assert excinfo.value.retry_after == pytest.approx(3.0)


# ----------------------------------------------------------------------
# HTTP under load: one fresh connection per session, on plain threads
# ----------------------------------------------------------------------
#: Whether to assert latency bounds: ``-X dev`` turns on asyncio debug
#: mode, which slows every request.
TIMED = not sys.flags.dev_mode


def _session(url, job, lane="interactive"):
    """One client session: a fresh connection and one submit.  Returns
    ``(seconds, counts, error)``; ``error`` is None on success."""
    start = time.perf_counter()
    try:
        with ServeClient(url, timeout=120.0) as own:
            response = own.submit([job], lane=lane)
    except Exception as exc:
        return time.perf_counter() - start, None, exc
    errors = [r["error"] for r in response["results"] if "error" in r]
    return (time.perf_counter() - start, response["counts"],
            errors[0] if errors else None)


def _hot_jobs(count=16, seed=600):
    return [tiny_job(seed=seed + i) for i in range(count)]


def _cold_job(i):
    return tiny_job(kernel=(BASELINE, PROPOSED)[i % 2], nm=(2, 4),
                    seed=10_000 + i)


def test_http_mixed_load_fails_no_request(server, client):
    """1,000 sessions on 8 threads, nine in ten for a warm job and one
    in ten for a job never seen before."""
    hot = _hot_jobs()
    client.submit(hot)

    def session(i):
        job = _cold_job(i // 10) if i % 10 == 0 else hot[i % len(hot)]
        return _session(server.url, job)

    with ThreadPoolExecutor(max_workers=8) as pool:
        sessions = list(pool.map(session, range(1000)))
    assert [error for _, _, error in sessions if error is not None] == []


def test_http_warm_latency(server, client):
    """200 sequential sessions for warm jobs: every one answered warm,
    with a median under 5 ms."""
    hot = _hot_jobs()
    client.submit(hot)
    seconds = []
    for i in range(200):
        elapsed, counts, error = _session(server.url, hot[i % len(hot)])
        assert error is None and counts["warm"] == 1
        seconds.append(elapsed)
    if TIMED:
        assert statistics.median(seconds) < 5e-3


def test_http_bulk_flood_is_shed_while_interactive_stays_warm():
    """Six threads flood the bulk lane of a tiny-queue server with new
    jobs: it sheds 429s with a positive Retry-After, while 50
    sequential interactive sessions for warm jobs are all answered
    warm, the slowest (their p99) under 250 ms.  The server simulates
    on two worker processes, so its event loop shares the GIL only
    with this test's client threads."""
    config = ServeConfig(batch_window=0.05, max_batch=4, bulk_depth=8,
                         retry_after=0.25)
    engine = ExperimentEngine(jobs=2, pool_idle=0)
    hot = _hot_jobs(4, seed=700)
    retry_afters = []
    stop = threading.Event()

    def flood(url, worker):
        seed = 50_000 + 10_000 * worker
        while not stop.is_set():
            jobs = [_cold_job(seed + j) for j in range(4)]
            seed += 4
            try:
                with ServeClient(url, timeout=60.0) as own:
                    own.submit(jobs, lane="bulk", wait=False)
            except ServeOverloadedError as exc:
                retry_afters.append(exc.retry_after)

    try:
        with ServerThread(config, engine=engine) as thread, \
                ServeClient(thread.url) as client:
            client.wait_until_ready(20)
            client.submit(hot)
            flooders = [threading.Thread(target=flood,
                                         args=(thread.url, w))
                        for w in range(6)]
            for t in flooders:
                t.start()
            try:
                sessions = [_session(thread.url, hot[i % len(hot)])
                            for i in range(50)]
            finally:
                stop.set()
                for t in flooders:
                    t.join(timeout=60)
    finally:
        engine.shutdown()
    assert not any(t.is_alive() for t in flooders)
    assert retry_afters and min(retry_afters) > 0
    assert [(counts, error) for _, counts, error in sessions
            if error is not None or counts["warm"] != 1] == []
    if TIMED:
        assert max(seconds for seconds, _, _ in sessions) < 0.25


def test_client_unavailable_raises_cleanly():
    with ServeClient("http://127.0.0.1:1", timeout=0.5) as client:
        with pytest.raises(ServeUnavailableError):
            client.stats()
        assert not client.healthy()
        with pytest.raises(ServeUnavailableError):
            client.wait_until_ready(timeout=0.3, poll=0.1)


def test_fig4_jobs_shape():
    jobs = fig4_jobs("resnet50", scale="tiny")
    assert len(jobs) == 80  # 20 unique layers x 2 kernels x 2 patterns
    assert len({job_hash(j) for j in jobs}) == len(jobs)
    with pytest.raises(ServeError):
        fig4_jobs("resnet50", scale="no-such-scale")


# ----------------------------------------------------------------------
# CLI verbs
# ----------------------------------------------------------------------
def test_cli_submit_against_embedded_server(capsys, tmp_path,
                                            monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    with ServerThread(ServeConfig(batch_window=0.001)) as thread:
        argv = ["submit", "--url", thread.url, "--wait-ready", "20",
                "--model", "resnet50", "--scale", "tiny", "--nm", "1:4"]
        assert main(argv) == 0
        out_cold = capsys.readouterr().out
        assert "40 job(s)" in out_cold
        assert main([*argv, "--expect-warm"]) == 0
        out_warm = capsys.readouterr().out
        assert "40 warm" in out_warm
        assert main(["submit", "--url", thread.url, "--stats"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["warm_hits"] >= 40


def test_cli_submit_expect_warm_fails_cold(capsys, tmp_path,
                                           monkeypatch):
    from repro.cli import main

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    with ServerThread(ServeConfig(batch_window=0.001)) as thread:
        code = main(["submit", "--url", thread.url, "--wait-ready",
                     "20", "--nm", "2:4", "--expect-warm"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out


def test_cli_submit_unreachable_server_is_operator_error(capsys):
    from repro.cli import main

    code = main(["submit", "--url", "http://127.0.0.1:1",
                 "--timeout", "0.5"])
    assert code == 2
    assert "error:" in capsys.readouterr().err
