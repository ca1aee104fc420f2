"""The repository's benchmark: three workloads on the paper's artifacts.

    python3 perfbench/run.py --workload fig4-cold --seed 1 --seconds 10 \\
        --trace 0
    python3 perfbench/run.py --regen-reference

Workloads (see ``jobsets.py`` and ``README.md``): ``fig4-cold`` (the
Fig. 4 job set, cold, on ``batch-replay`` with a worker pool),
``sweep-cold`` (a 4,608-job ``analytic-sampled`` grid priced in bulk,
then replayed warm) and ``serve-mixed`` (an open-loop request mix
against a fresh ``repro serve`` on a pre-populated cache).

Every run pins the environment (no ambient ``REPRO_*`` variable, a
fresh cache directory), samples the host's speed (``hostspeed.py``) to
scale its timings to a nominal host, checks every result against the
committed references in ``reference/`` and prints each metric by name
and unit, a provenance line and, as the last line, one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once with spans around every layer's public
calls and reports the per-layer metrics.  ``--regen-reference``
recomputes the reference results.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from http.client import HTTPException  # noqa: E402
from pathlib import Path  # noqa: E402

import hostspeed  # noqa: E402
import jobsets  # noqa: E402
import loadgen  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402

WORKLOADS = ("fig4-cold", "sweep-cold", "serve-mixed")

#: End-to-end metrics: name -> unit (the same set for every workload).
END_TO_END = {
    "setup_s": "s", "jobs_per_cpu_s": "jobs/cpu-s", "peak_rss_mb": "MB",
    "cycle_err_pct": "%",
}
#: End-to-end readings some workloads print beside them, left out of
#: the result: wall-clock throughput (it also counts idle pool workers)
#: and the ``serve-mixed`` latencies, whose run-to-run spread on a
#: 2-vCPU VM exceeds any usable bound.
INFORMATIONAL = {
    "jobs_per_s": "jobs/s", "warm_jobs_per_s": "jobs/s",
    "warm_p50_ms": "ms", "warm_p99_ms": "ms",
    "cold_p50_ms": "ms", "cold_p99_ms": "ms",
}

#: Recorded waste counts, so a later change can claim them as
#: counts: (workload, metric) -> value.
BASELINES = {
    ("serve-mixed", "engine.hash_calls_per_job"): 2.0,
    ("sweep-cold", "layout.calls_per_job"): 2.0,
}

#: Fresh-interpreter set-ups per run, beyond the measuring run's own
#: (the median of all of them is ``setup_s``); one more, discarded,
#: warms the interpreter's bytecode cache first.
SETUP_PROBES = 4
#: Cold program runs per benchmark run, at least (their median is
#: reported): a third of ``sweep-cold``'s batch writes the cache, and
#: the file system's speed varies on its own, so it takes two.
MIN_BATCHES = {"fig4-cold": 1, "sweep-cold": 2}
#: Seconds any program process may take before it is killed.
CHILD_TIMEOUT = 150.0
#: ``batch-replay`` cycles must lie this close to ``detailed``.
BATCH_REPLAY_TOLERANCE = 0.02
#: A request not answered within this many seconds has failed; a
#: failed request counts as this latency (it missed every limit).
REQUEST_TIMEOUT = 10.0
#: Tail latency limits of ``serve-mixed`` (reported, per percentile).
WARM_LIMIT_MS = 100.0
COLD_LIMIT_MS = 1000.0
#: The open loop is invalid (one failed operation) when the generator's
#: tail lateness exceeds this: it no longer offered the intended load.
LATE_LIMIT_MS = 50.0
#: Seconds of the request mix sent before the measured window, so the
#: server's memo and cache LRU fill first.
SERVE_WARMUP = 4.0


class BenchError(Exception):
    """A run that cannot produce a result."""


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# child processes
# ----------------------------------------------------------------------
class Child:
    """A program process whose first stdout line marks readiness."""

    def __init__(self, argv, env, ready_prefix: str):
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(argv, env=env, cwd=measure.ROOT,
                                     stdout=subprocess.PIPE, text=True)
        self._killer = threading.Timer(CHILD_TIMEOUT, self.proc.kill)
        self._killer.daemon = True
        self._killer.start()
        line = self.proc.stdout.readline()
        self.ready = time.perf_counter()
        if not line.startswith(ready_prefix):
            self.finish()
            raise BenchError(f"{argv[1]} exited before it was ready")
        self.line = line.strip()

    def finish(self) -> float:
        """Wait for the exit; returns the process's wall seconds."""
        self.proc.stdout.read()
        code = self.proc.wait()
        self._killer.cancel()
        if code != 0:
            raise BenchError(f"program process exited with {code}")
        return time.perf_counter() - self.started


def program(workload: str, seed: int, mode: str, cache: Path, jobs: int,
            work: Path, trace_dir: Path | None = None):
    """One ``program.py`` process: ``(child, result_or_None, wall)``."""
    out = work / f"result-{mode}.json"
    argv = [sys.executable, str(measure.BENCH / "program.py"),
            "--workload", workload, "--seed", str(seed), "--mode", mode,
            "--out", str(out)]
    if trace_dir is not None:
        argv += ["--trace-dir", str(trace_dir)]
    env = measure.pinned_env(cache, jobs, work)
    child = Child(argv, env, "ready")
    wall = child.finish()
    result = None
    if mode != "setup":
        result = json.loads(out.read_text())
        out.unlink()
    return child, result, wall


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------
def load_reference(name: str) -> dict:
    path = measure.REFERENCE / name
    if not path.is_file():
        raise BenchError(f"missing reference {path}; run "
                         "`python3 perfbench/run.py --regen-reference`")
    return json.loads(path.read_text())["results"]


def check_batch(workload: str, results) -> tuple[int, float]:
    """``(failed, largest relative cycle error)`` of one cold batch."""
    failed, worst = 0, 0.0
    if workload == "fig4-cold":
        reference = load_reference("fig4_detailed.json")
        for item in results:
            ref = reference.get(item["label"])
            if ref is None:
                failed += 1
                continue
            ok, error = measure.check_against_detailed(
                item["stats"], ref, BATCH_REPLAY_TOLERANCE)
            worst = max(worst, error)
            failed += not (ok and item["verified"])
        return failed, worst
    priced = load_reference("sweep_priced.json")
    detailed = load_reference("sweep_detailed.json")
    for item in results:
        ref = priced.get(item["label"])
        failed += ref is None or not measure.check_exact(item["stats"], ref)
        if item["label"] in detailed:
            cycles = detailed[item["label"]]["cycles"]
            worst = max(worst,
                        abs(item["stats"]["cycles"] - cycles) / cycles)
    return failed, worst


# ----------------------------------------------------------------------
# fig4-cold and sweep-cold
# ----------------------------------------------------------------------
def workers_for(workload: str) -> int:
    return (os.cpu_count() or 1) if workload == "fig4-cold" else 1


def batch_workload(workload: str, seed: int, seconds: float,
                   work: Path) -> dict:
    """Set-up probes, then cold program runs until ``seconds`` of
    program time have passed (at least :data:`MIN_BATCHES`), with the
    host's speed sampled throughout."""
    jobs = workers_for(workload)
    windows, runs = [], []
    with hostspeed.HostSpeed() as speed:
        for probe in range(SETUP_PROBES + 1):
            child, _, _ = program(workload, seed, "setup", work / "probe",
                                  jobs, work)
            if probe:
                windows.append((child.started, child.ready))
        begin = time.perf_counter()
        while (len(runs) < MIN_BATCHES[workload]
               or time.perf_counter() - begin < seconds):
            cache = work / f"cache-{len(runs)}"
            child, result, _ = program(workload, seed, "full", cache, jobs,
                                       work)
            windows.append((child.started, child.ready))
            shutil.rmtree(cache, ignore_errors=True)
            runs.append(result)
    for run in runs:
        run["host_factor"] = speed.factor(
            run["cold_start"], run["cold_start"] + run["cold_s"])
    setups = [(end - start, speed.factor(start, end))
              for start, end in windows]
    return {"setups": setups, "runs": runs}


def batch_checks(workload: str, runs) -> tuple[int, int, float]:
    """``(attempted, failed, largest relative cycle error)`` of the
    program runs of a batch workload."""
    attempted = failed = 0
    worst = 0.0
    for run in runs:
        bad, error = check_batch(workload, run["results"])
        worst = max(worst, error)
        attempted += run["jobs"] + run["warm_jobs"]
        failed += bad + run["warm_mismatches"] + run["warm_simulated"]
        failed += run["simulated"] != run["jobs"]
    return attempted, failed, worst


def nominal_setup_s(setups) -> float:
    """Median set-up seconds, each scaled to the nominal host speed."""
    return measure.median([seconds / factor for seconds, factor in setups])


def batch_metrics(workload: str, measured: dict) -> tuple[dict, int, int]:
    """End-to-end metrics, attempted and failed of a batch workload."""
    runs = measured["runs"]
    attempted, failed, worst = batch_checks(workload, runs)
    factor = measure.median([run["host_factor"] for run in runs])
    metrics = {
        "setup_s": nominal_setup_s(measured["setups"]),
        "jobs_per_cpu_s": measure.median(
            [run["jobs"] * run["host_factor"] / run["cold_cpu_s"]
             for run in runs]),
        "jobs_per_s": measure.median(
            [run["jobs"] / run["cold_s"] for run in runs]),
        "peak_rss_mb": measure.median([run["peak_rss_mb"] for run in runs]),
        "cycle_err_pct": 100.0 * worst,
    }
    notes = {
        "setup_s": f"median of {len(measured['setups'])} set-ups, at "
                   "nominal host speed",
        "jobs_per_cpu_s": f"{runs[0]['jobs']} cold jobs per CPU-second of "
                          f"the program and its workers at nominal host "
                          f"speed (host ran {factor:.2f}x slower), "
                          f"median of {len(runs)} batch(es)",
        "jobs_per_s": "the same batches per wall-clock second",
        "cycle_err_pct": ("batch-replay vs detailed reference"
                          if workload == "fig4-cold" else
                          "analytic-sampled vs detailed reference"),
    }
    if workload == "sweep-cold":
        metrics["warm_jobs_per_s"] = measure.median(
            [run["jobs"] / run["warm_s"] for run in runs])
        notes["warm_jobs_per_s"] = ("a fresh engine replaying the whole "
                                    "sweep after each batch; median")
    return {"metrics": metrics, "notes": notes}, attempted, failed


# ----------------------------------------------------------------------
# serve-mixed
# ----------------------------------------------------------------------
def serve_template(work: Path) -> Path:
    """The pre-populated cache: the sweep at seed 0, priced once per
    source tree and benchmark input code, kept under ``.bench_build``."""
    digest = hashlib.sha256(measure.source_digest().encode())
    for name in ("jobsets.py", "program.py"):
        digest.update((measure.BENCH / name).read_bytes())
    key = digest.hexdigest()[:16]
    template = measure.BUILD / f"serve-cache-{key}"
    if template.is_dir():
        return template
    log(f"building the serve-mixed cache {template.name}")
    staging = work / "template"
    _, result, _ = program("sweep-cold", 0, "populate", staging, 1, work)
    failed, _ = check_batch("sweep-cold", result["results"])
    if failed or result["simulated"] != result["jobs"]:
        raise BenchError("the serve-mixed cache did not build cleanly")
    for stale in measure.BUILD.glob("serve-cache-*"):
        shutil.rmtree(stale, ignore_errors=True)
    (staging / ".lock").unlink(missing_ok=True)
    try:
        os.replace(staging, template)
    except OSError:
        if not template.is_dir():  # not a concurrent run's build
            raise
    return template


class Server:
    """A ``repro serve`` process on an ephemeral port, with one engine
    worker per CPU."""

    def __init__(self, env, trace_dir: Path | None = None):
        args = ["serve", "--port", "0", "--jobs", env["REPRO_JOBS"]]
        if trace_dir is None:
            argv = [sys.executable, "-m", "repro", *args]
        else:
            argv = [sys.executable, str(measure.BENCH / "serve_launcher.py"),
                    "--trace-dir", str(trace_dir), "--", *args]
        self.child = Child(argv, env, "serving on ")
        url = self.child.line.split()[2]
        host, port = url.split("//", 1)[1].rsplit(":", 1)
        self.poster = loadgen.HttpPoster(host, int(port), REQUEST_TIMEOUT)
        while self.get("/v1/healthz") is None:
            if time.perf_counter() - self.child.started > CHILD_TIMEOUT:
                self.child.proc.kill()
                self.child.proc.wait()
                raise BenchError("server never answered /v1/healthz")
            time.sleep(0.005)
        self.ready = time.perf_counter()
        self.pid = self.child.proc.pid

    def request(self, method: str, path: str, body: bytes | None = None):
        conn = self.poster.connect()
        try:
            return self.poster.request(conn, method, path, body)
        finally:
            conn.close()

    def get(self, path: str):
        try:
            status, data = self.request("GET", path)
        except (OSError, HTTPException):
            return None
        return json.loads(data) if status == 200 else None

    def stop(self) -> None:
        try:
            self.request("POST", "/v1/shutdown")
        except (OSError, HTTPException):
            pass
        self.child.finish()


def _body(jobs) -> bytes:
    from repro.serve.protocol import job_to_dict

    return json.dumps({"jobs": [job_to_dict(job) for job in jobs],
                       "lane": "interactive", "wait": True},
                      separators=(",", ":")).encode()


def serve_pass(seed: int, seconds: float, work: Path, cache: Path,
               probes: int, trace_dir: Path | None = None) -> dict:
    """Set-up probes, then the open-loop mix (an unmeasured warm-up,
    then the measured window) and a reference batch against a fresh
    server, with the host's speed sampled throughout."""
    with hostspeed.HostSpeed() as speed:
        measured = _serve_pass(seed, seconds, work, cache, probes,
                               trace_dir)
    measured["setups"] = [(end - start, speed.factor(start, end))
                          for start, end in measured.pop("setup_windows")]
    measured["load_factor"] = speed.factor(*measured.pop("load_window"))
    return measured


def _serve_pass(seed: int, seconds: float, work: Path, cache: Path,
                probes: int, trace_dir: Path | None) -> dict:
    env = measure.pinned_env(cache, os.cpu_count() or 1, work)
    windows = []
    for probe in range(probes + 1 if probes else 0):
        server = Server(env)
        server.stop()
        if probe:
            windows.append((server.child.started, server.ready))

    warm_pool = jobsets.sweep_jobs(0)
    requests = jobsets.serve_requests(seed, SERVE_WARMUP + seconds,
                                      warm_pool)
    dues = [due for due, _, _ in requests]
    bodies = [_body(jobs) for _, _, jobs in requests]
    skip = sum(1 for due in dues if due < SERVE_WARMUP)
    check_jobs = jobsets.sweep_detailed_jobs(jobsets.SWEEP_BACKEND)

    server = Server(env, trace_dir)
    windows.append((server.child.started, server.ready))
    try:
        rss_ready = measure.proc_status_kb(server.pid, "VmRSS") / 1024.0
        poster = server.poster

        def sender(first):
            def send(conn, i):
                status, data = poster.request(conn, "POST", "/v1/jobs",
                                              bodies[first + i])
                if status != 200:
                    raise BenchError(f"HTTP {status}")
                return data
            return send

        # lazy imports and the pool spawn of the cold path happen
        # once, before timing
        status, _ = server.request("POST", "/v1/jobs", _body(
            [jobsets.cold_job(seed, -1), jobsets.cold_job(seed, -2),
             warm_pool[0]]))
        if status != 200:
            raise BenchError(f"warm-up request failed with HTTP {status}")
        connections = os.cpu_count() or 1
        # the generator's own garbage collector must not stall sends
        gc.collect()
        gc.freeze()
        gc.disable()
        try:
            warmup = loadgen.open_loop(dues[:skip], sender(0),
                                       poster.connect, connections)
            pids = [server.pid, *measure.child_pids(server.pid)]
            cpu_start = measure.cpu_seconds(pids)
            load_start = time.perf_counter()
            outcomes = loadgen.open_loop(
                [due - SERVE_WARMUP for due in dues[skip:]], sender(skip),
                poster.connect, connections)
            load_window = (load_start, time.perf_counter())
            load_cpu = measure.cpu_seconds(pids) - cpu_start
        finally:
            gc.enable()
            gc.unfreeze()
        status, data = server.request("POST", "/v1/jobs", _body(check_jobs))
        checked = json.loads(data) if status == 200 else None
        stats = server.get("/v1/stats")
        peak = measure.peak_rss_mb([server.pid,
                                    *measure.child_pids(server.pid)])
        rss_end = measure.proc_status_kb(server.pid, "VmRSS") / 1024.0
    finally:
        server.stop()
    return {"setup_windows": windows, "requests": requests[skip:],
            "outcomes": outcomes, "checked": checked,
            "warmup_failed": sum(not o.ok for o in warmup),
            "warmup_sent": len(warmup),
            "check_labels": [jobsets.sweep_label(j) for j in check_jobs],
            "stats": stats, "peak_rss_mb": peak,
            "rss_growth_mb": rss_end - rss_ready, "load_cpu_s": load_cpu,
            "load_window": load_window,
            "cache_usage": measure.dir_usage(cache)}


def serve_metrics(measured: dict) -> tuple[dict, int, int]:
    """End-to-end metrics, attempted and failed of ``serve-mixed``."""
    priced = load_reference("sweep_priced.json")
    detailed = load_reference("sweep_detailed.json")
    timeout_ms = REQUEST_TIMEOUT * 1e3
    latency = {"warm": [], "cold": []}
    server_ms = {"warm": [], "cold": []}
    http_ms, late_ms = [], []
    failed = answered = 0
    for (_, kind, jobs), outcome in zip(measured["requests"],
                                        measured["outcomes"]):
        late_ms.append(outcome.late * 1e3)
        good = outcome.ok
        if good:
            body = json.loads(outcome.reply)
            good = len(body["results"]) == len(jobs)
            if kind == "warm":  # answered from the cache, or failed
                good &= body["counts"]["warm"] == len(jobs)
            for job, result in zip(jobs, body["results"]):
                if kind == "cold":
                    good &= "error" not in result and result["verified"]
                else:
                    ref = priced[jobsets.sweep_label(job)]
                    good &= ("error" not in result
                             and result["cycles"] == ref["cycles"]
                             and result["instructions"]
                             == ref["instructions"])
        if good:
            answered += len(jobs)
            latency[kind].append(outcome.latency * 1e3)
            server_ms[kind].append(body["elapsed_ms"])
            if kind == "warm":
                http_ms.append((outcome.done - outcome.sent) * 1e3
                               - body["elapsed_ms"])
        else:
            failed += 1
            latency[kind].append(timeout_ms)
    # the open loop itself is one operation, invalid when the generator
    # fell behind its schedule
    late_tail = measure.tail_rank(len(late_ms))
    late_p = measure.percentile(late_ms, late_tail)
    failed += late_p > LATE_LIMIT_MS

    worst = 0.0
    checked = measured["checked"]
    labels = measured["check_labels"]
    if checked is None:
        failed += len(labels)
    else:
        failed += len(labels) - checked["counts"]["warm"]
        for label, result in zip(labels, checked["results"]):
            ok = "error" not in result and \
                result["cycles"] == priced[label]["cycles"]
            failed += not ok
            ref = detailed[label]["cycles"]
            worst = max(worst, abs(result["cycles"] - ref) / ref)
    # warm-up requests are not timed, but an error there is a failure
    failed += measured["warmup_failed"]
    attempted = (measured["warmup_sent"] + len(measured["outcomes"]) + 1
                 + len(labels))

    warm, cold = latency["warm"], latency["cold"]
    warm_tail = measure.tail_rank(len(warm))
    cold_tail = measure.tail_rank(len(cold))
    metrics = {
        "setup_s": nominal_setup_s(measured["setups"]),
        "jobs_per_cpu_s": (answered * measured["load_factor"]
                           / measured["load_cpu_s"]),
        "warm_p50_ms": measure.percentile(warm, 50),
        "warm_p99_ms": measure.percentile(warm, warm_tail),
        "cold_p50_ms": measure.percentile(cold, 50),
        "cold_p99_ms": measure.percentile(cold, cold_tail),
        "peak_rss_mb": measured["peak_rss_mb"],
        "cycle_err_pct": 100.0 * worst,
    }
    notes = {
        "setup_s": f"median of {len(measured['setups'])} server launches, "
                   "at nominal host speed",
        "jobs_per_cpu_s": f"{answered} jobs answered in the open loop at "
                          f"{jobsets.SERVE_RATE:g} req/s, per CPU-second "
                          f"of the server and its workers at nominal host "
                          f"speed (host ran {measured['load_factor']:.2f}x "
                          f"slower); generator lateness p{late_tail:g} "
                          f"{late_p:.2f} ms (limit {LATE_LIMIT_MS:g})",
        "warm_p50_ms": f"{len(warm)} warm requests from their due time",
        "warm_p99_ms": f"p{warm_tail:g}; limit {WARM_LIMIT_MS:g} ms "
                       + ("met" if metrics["warm_p99_ms"] <= WARM_LIMIT_MS
                          else "MISSED"),
        "cold_p50_ms": f"{len(cold)} cold requests from their due time",
        "cold_p99_ms": f"p{cold_tail:g}; limit {COLD_LIMIT_MS:g} ms "
                       + ("met" if metrics["cold_p99_ms"] <= COLD_LIMIT_MS
                          else "MISSED"),
        "cycle_err_pct": "server's sweep answers vs detailed reference",
    }
    facts = {"server_ms": server_ms, "http_ms": http_ms,
             "late_p99_ms": late_p}
    return ({"metrics": metrics, "notes": notes, "facts": facts},
            attempted, failed)


# ----------------------------------------------------------------------
# traced runs
# ----------------------------------------------------------------------
def layer_metrics(workload: str, dumps, facts: dict) -> dict:
    """The per-layer metrics of one traced pass (see README.md)."""
    main_role = "server" if workload == "serve-mixed" else "program"
    main = next(d for d in dumps if d["role"] == main_role)
    everything = [s for d in dumps for s in d["spans"]]
    worker_spans = [s for d in dumps if d["role"] == "worker"
                    for s in d["spans"]]
    counts: dict[str, float] = {}
    for dump in dumps:
        for name, value in dump["counts"].items():
            counts[name] = counts.get(name, 0.0) + value

    def ratio(a, b):
        return a / b if b else 0.0

    # pool tasks run on behalf of the dispatch that waits for them
    tasks = [(s[4], s[5]) for s in worker_spans if s[2] == "task"]
    out = {}
    selfs: dict[str, float] = {}
    for dump in dumps:
        remote = {"dispatch": tasks} if dump is main else None
        for layer, value in spans.self_times(dump["spans"], remote).items():
            selfs[layer] = selfs.get(layer, 0.0) + value
    out["import.busy_s"] = spans.busy(main["spans"], "import")
    out["nn.calls"] = counts.get("nn.calls", 0)
    out["nn.busy_s"] = spans.busy(everything, "nn")
    layout_calls = counts.get("layout.calls", 0)
    out["layout.calls"] = layout_calls
    out["layout.busy_s"] = spans.busy(everything, "layout")
    out["layout.calls_per_job"] = ratio(layout_calls, facts["cold_jobs"])
    compiles = counts.get("compiler.calls", 0)
    requests = counts.get("compiler.requests", 0)
    out["compiler.calls"] = compiles
    out["compiler.busy_s"] = spans.busy(everything, "compiler")
    out["compiler.reuse_frac"] = ratio(requests - compiles, requests)
    timing_s = spans.busy(everything, "timing")
    instrs = counts.get("timing.sim_instrs", 0)
    out["timing.calls"] = counts.get("timing.calls", 0)
    out["timing.busy_s"] = timing_s
    out["timing.sim_instrs"] = instrs
    out["timing.kips"] = ratio(instrs, timing_s) / 1e3
    out["timing.stepped_frac"] = ratio(counts.get("timing.timed_instrs", 0),
                                       instrs)
    out["analytic.profile_calls"] = counts.get("analytic.profile_calls", 0)
    out["analytic.profile_s"] = spans.busy(everything, "analytic",
                                           {"profile_trace"})
    out["analytic.price_s"] = spans.busy(everything, "analytic",
                                         {"predict_many", "price"})
    out["planner.busy_s"] = spans.busy(everything, "planner")
    out["planner.bulk_jobs"] = counts.get("planner.bulk_jobs", 0)
    out["planner.pooled_jobs"] = counts.get("planner.pooled_jobs", 0)

    hashes = [s for s in main["spans"] if s[2] == "job_hash"]
    if workload == "serve-mixed":
        # every simulated job is stored once, under its key
        cold_keys = {s[6] for s in main["spans"] if s[2] == "store"}
        warm_hashes = sum(1 for s in hashes if s[6] not in cold_keys)
    else:
        start, end = facts["warm_window"]
        warm_hashes = sum(1 for s in hashes if start <= s[4] <= end)
    out["engine.hash_calls_per_job"] = ratio(warm_hashes, facts["warm_jobs"])
    out["engine.hash_s"] = spans.busy(everything, "engine", {"job_hash"})
    pooled_s = spans.busy(main["spans"], "engine", {"dispatch"})
    task_s = spans.busy(worker_spans, "engine", {"task"})
    out["engine.pool_util"] = ratio(task_s, facts["workers"] * pooled_s)
    for name in ("simulated", "disk_hits", "memo_hits"):
        out[f"engine.{name}"] = facts["engine"][name]
    out["cache.load_s"] = spans.busy(everything, "cache",
                                     {"load_many", "load"})
    out["cache.hits"] = counts.get("cache.hits", 0)
    out["cache.misses"] = counts.get("cache.misses", 0)
    out["cache.store_calls"] = counts.get("cache.store_calls", 0)
    out["cache.store_s"] = spans.busy(everything, "cache", {"store"})
    out["cache.files"], out["cache.disk_bytes"] = facts["cache_usage"]
    for name in ("warm_server_ms", "cold_server_ms", "http_ms",
                 "engine_batches", "joins", "shed", "rss_growth_mb"):
        out[f"serve.{name}"] = facts.get(f"serve.{name}", 0.0)
    out["loadgen.late_p99_ms"] = facts.get("loadgen.late_p99_ms", 0.0)
    for layer in spans.LAYERS:
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    run = next(s for s in main["spans"]
               if s[3] == spans.BENCH_LAYER and s[2] == "run")
    window = run[5] - run[4]
    out["trace.uncovered_frac"] = 1.0 - ratio(
        spans.covered(main["spans"], run[4], run[5]), window)
    out["trace.spans"] = len(everything)
    return out


PER_LAYER_UNITS = {
    "import.busy_s": "s", "nn.calls": "count", "nn.busy_s": "s",
    "layout.calls": "count", "layout.busy_s": "s",
    "layout.calls_per_job": "calls/job", "compiler.calls": "count",
    "compiler.busy_s": "s", "compiler.reuse_frac": "ratio",
    "timing.calls": "count", "timing.busy_s": "s",
    "timing.sim_instrs": "count", "timing.kips": "kinstr/s",
    "timing.stepped_frac": "ratio", "analytic.profile_calls": "count",
    "analytic.profile_s": "s", "analytic.price_s": "s",
    "planner.busy_s": "s", "planner.bulk_jobs": "count",
    "planner.pooled_jobs": "count", "engine.hash_calls_per_job": "calls/job",
    "engine.hash_s": "s", "engine.pool_util": "ratio",
    "engine.simulated": "count", "engine.disk_hits": "count",
    "engine.memo_hits": "count", "cache.load_s": "s", "cache.hits": "count",
    "cache.misses": "count", "cache.store_calls": "count",
    "cache.store_s": "s", "cache.disk_bytes": "B", "cache.files": "count",
    "serve.warm_server_ms": "ms", "serve.cold_server_ms": "ms",
    "serve.http_ms": "ms", "serve.engine_batches": "count",
    "serve.joins": "count", "serve.shed": "count",
    "serve.rss_growth_mb": "MB", "loadgen.late_p99_ms": "ms",
    **{f"{layer}.self_s": "s" for layer in spans.LAYERS},
    "trace.uncovered_frac": "ratio", "trace.overhead_s": "s",
    "trace.overhead_frac": "ratio", "trace.spans": "count",
}


def batch_facts(run: dict, trace_dir: Path) -> tuple[list, dict]:
    dumps = spans.load(trace_dir)
    main = next(d for d in dumps if d["role"] == "program")
    warm = next(s for s in main["spans"]
                if s[3] == spans.BENCH_LAYER and s[2] == "warm")
    facts = {
        "cold_jobs": run["jobs"],
        "warm_jobs": run["warm_jobs"],
        "warm_window": (warm[4], warm[5]),
        "workers": run["workers"],
        "engine": run["counters"],
        "cache_usage": run["cache_usage"],
    }
    return dumps, facts


def serve_facts(measured: dict, e2e: dict,
                trace_dir: Path) -> tuple[list, dict]:
    facts = e2e["facts"]
    stats = measured["stats"]
    out = {
        "cold_jobs": stats["engine"]["simulated"],
        "warm_jobs": stats["warm_hits"],
        "workers": stats["engine"]["workers"],
        "engine": stats["engine"],
        "cache_usage": measured["cache_usage"],
        "serve.warm_server_ms": _median_or_zero(facts["server_ms"]["warm"]),
        "serve.cold_server_ms": _median_or_zero(facts["server_ms"]["cold"]),
        "serve.http_ms": _median_or_zero(facts["http_ms"]),
        "serve.engine_batches": stats["engine_batches"],
        "serve.joins": stats["single_flight_joins"],
        "serve.shed": stats["shed"],
        "serve.rss_growth_mb": measured["rss_growth_mb"],
        "loadgen.late_p99_ms": facts["late_p99_ms"],
    }
    return spans.load(trace_dir), out


def _median_or_zero(values) -> float:
    return measure.median(values) if values else 0.0


# ----------------------------------------------------------------------
# the workloads, untraced and traced
# ----------------------------------------------------------------------
def run_untraced(workload: str, seed: int, seconds: float,
                 work: Path) -> tuple[dict, int, int]:
    if workload == "serve-mixed":
        cache = work / "cache"
        shutil.copytree(serve_template(work), cache)
        measured = serve_pass(seed, seconds, work, cache, SETUP_PROBES)
        return serve_metrics(measured)
    measured = batch_workload(workload, seed, seconds, work)
    return batch_metrics(workload, measured)


def run_traced(workload: str, seed: int, seconds: float,
               work: Path) -> tuple[dict, int, int]:
    """The workload once untraced and once traced; per-layer metrics
    from the traced pass, overhead from the difference."""
    trace_dir = work / "spans"
    if workload == "serve-mixed":
        template = serve_template(work)
        walls, results = [], []
        for traced in (None, trace_dir):
            cache = work / f"cache-{'traced' if traced else 'plain'}"
            shutil.copytree(template, cache)
            measured = serve_pass(seed, seconds, work, cache, 0, traced)
            e2e, attempted, failed = serve_metrics(measured)
            walls.append(measured["load_cpu_s"] / measured["load_factor"])
            results.append((measured, e2e, attempted, failed))
        measured, e2e, attempted, failed = results[1]
        dumps, facts = serve_facts(measured, e2e, trace_dir)
        overhead_of = "server CPU seconds during the open loop"
    else:
        jobs = workers_for(workload)
        windows, results = [], []
        with hostspeed.HostSpeed() as speed:
            for traced in (None, trace_dir):
                cache = work / f"cache-{'traced' if traced else 'plain'}"
                child, run, wall = program(workload, seed, "full", cache,
                                           jobs, work, traced)
                run["cache_usage"] = measure.dir_usage(cache)
                windows.append((child.started, child.started + wall))
                results.append(run)
        walls = [(end - start) / speed.factor(start, end)
                 for start, end in windows]
        run = results[1]
        attempted, failed, _ = batch_checks(workload, [run])
        dumps, facts = batch_facts(run, trace_dir)
        overhead_of = "program wall seconds"
    layers = layer_metrics(workload, dumps, facts)
    layers["trace.overhead_s"] = walls[1] - walls[0]
    layers["trace.overhead_frac"] = (walls[1] - walls[0]) / walls[0]
    notes = {"trace.overhead_s": f"traced minus untraced {overhead_of}, "
                                 "at nominal host speed"}
    for (name_workload, name), value in BASELINES.items():
        if name_workload == workload:
            notes[name] = f"recorded baseline {value:g}"
    return {"metrics": layers, "notes": notes}, attempted, failed


# ----------------------------------------------------------------------
# reference regeneration
# ----------------------------------------------------------------------
def regenerate(work: Path) -> int:
    """Recompute ``reference/*.json`` from the current source tree."""
    from dataclasses import asdict

    from repro.eval.engine import ExperimentEngine

    nproc = os.cpu_count() or 1
    stamp = measure.provenance(None, False)

    def save(name, backend, labelled):
        results = {}
        for label, run in labelled:
            stats = measure.result_stats(asdict(run.stats))
            if results.setdefault(label, stats) != stats:
                raise BenchError(f"{name}: {label} differs across seeds")
        path = measure.REFERENCE / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"provenance": stamp, "backend": backend, "results": results},
            indent=1, sort_keys=True) + "\n")
        log(f"wrote {path} ({len(results)} results)")

    engine = ExperimentEngine(jobs=nproc, cache=False, pool_idle=0)
    try:
        jobs = jobsets.fig4_jobs(backend="detailed")
        runs = engine.run(jobs)
        if not all(run.verified for run in runs):
            raise BenchError("a detailed fig4 job did not verify")
        save("fig4_detailed.json", "detailed",
             [(jobsets.fig4_label(j), r) for j, r in zip(jobs, runs)])
        jobs = jobsets.sweep_detailed_jobs("detailed")
        runs = engine.run(jobs)
        save("sweep_detailed.json", "detailed",
             [(jobsets.sweep_label(j), r) for j, r in zip(jobs, runs)])
        jobs = jobsets.sweep_jobs(0)
        runs = ExperimentEngine(jobs=1, cache=False).run(jobs)
        save("sweep_priced.json", jobsets.SWEEP_BACKEND,
             [(jobsets.sweep_label(j), r) for j, r in zip(jobs, runs)])
    finally:
        engine.shutdown()
    return 0


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def report(workload: str, seed: int, traced: bool, result: dict,
           attempted: int, failed: int) -> None:
    units = PER_LAYER_UNITS if traced else END_TO_END
    print(f"{workload}  seed {seed}  "
          f"{'traced (per-layer)' if traced else 'untraced (end-to-end)'}")
    for name, value in result["metrics"].items():
        unit = units.get(name) or INFORMATIONAL[name]
        note = result["notes"].get(name, "")
        if name not in units:
            note = f"(not gated) {note}"
        print(f"  {name:28s} {value:14.6g} {unit:9s} {note}")
    fraction = failed / attempted if attempted else 0.0
    print(f"  {'fail_frac':28s} {fraction:14.6g} {'ratio':9s} "
          f"{failed} of {attempted} operations failed")
    print("provenance " + json.dumps(measure.provenance(seed, traced),
                                     sort_keys=True))
    metrics = {name: {"value": float(value), "unit": units[name]}
               for name, value in result["metrics"].items()
               if name in units}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--regen-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.regen_reference and args.workload is None:
        parser.error("--workload is required")
    if not (measure.SRC / "repro").is_dir():
        log(f"error: no program source at {measure.SRC / 'repro'}")
        return 2
    measure.clear_repro_env()
    sys.path.insert(0, str(measure.SRC))

    work = measure.BUILD / "runs" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if args.regen_reference:
            return regenerate(work)
        run = run_traced if args.trace else run_untraced
        result, attempted, failed = run(args.workload, args.seed,
                                        args.seconds, work)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        log(f"error: {type(exc).__name__}: {exc}")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    report(args.workload, args.seed, bool(args.trace), result, attempted,
           failed)
    log(f"finished in {time.perf_counter() - T_START:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
