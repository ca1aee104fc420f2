"""Tests of the benchmark's own code: the percentile rule, open-loop
timing and its validity, self time, and reference checking.

Run with: PYTHONPATH=src python3 -m pytest perfbench -q
"""

import copy
import json
import time

import hostspeed
import jobsets
import loadgen
import measure
import pytest
import run
import spans


# -- the percentile rule ------------------------------------------------
@pytest.mark.parametrize("n, expected", [
    (2000, 99.0), (1000, 99.0), (100, 90.0), (80, 87.5), (45, 77.7),
    (20, 50.0), (12, 50.0),
])
def test_tail_rank_keeps_ten_samples_beyond(n, expected):
    assert measure.tail_rank(n) == expected
    if n >= 20:
        beyond = n * (1 - measure.tail_rank(n) / 100)
        assert beyond >= measure.MIN_BEYOND - 1e-9


def test_percentile_interpolates():
    samples = list(range(1, 101))
    assert measure.percentile(samples, 50) == pytest.approx(50.5)
    assert measure.percentile(samples, 90) == pytest.approx(90.1)
    assert measure.percentile([3.0], 99) == 3.0


# -- open-loop timing ---------------------------------------------------
class Conn:
    def close(self):
        pass


def test_open_loop_times_from_due_and_reports_lateness():
    service = 0.05

    def send(conn, i):
        time.sleep(service)
        if i == 1:
            raise RuntimeError("refused")
        return i

    dues = [0.0, 0.01, 0.02, 0.03]
    outcomes = loadgen.open_loop(dues, send, connect=Conn, connections=1)
    assert [o.ok for o in outcomes] == [True, False, True, True]
    last = outcomes[-1]
    # one connection: the last request waits for three 50 ms sends
    # that started before it, so it goes out at least 120 ms late ...
    assert last.late >= 3 * service - dues[-1] - 1e-3
    # ... and its latency counts that wait, not just its own 50 ms
    assert last.latency >= last.late + service - 1e-3
    assert all(o.late >= 0 for o in outcomes)


def _serve_measured(late_s: float = 0.0, missed: int = -1) -> dict:
    """A ``serve-mixed`` pass of one cold and 20 warm requests, each
    warm one answered from the cache; ``late_s`` delays every send and
    warm request ``missed`` is answered by simulating instead."""
    priced = run.load_reference("sweep_priced.json")
    cold = {"counts": {"warm": 0}, "elapsed_ms": 10.0,
            "results": [{"verified": True}]}
    requests = [(0.0, "cold", [jobsets.cold_job(0, 0)])]
    replies = [cold]
    for i, job in enumerate(jobsets.sweep_jobs(0, seeds=[0])[:20]):
        ref = priced[jobsets.sweep_label(job)]
        replies.append({"counts": {"warm": int(i != missed)},
                        "elapsed_ms": 1.0,
                        "results": [{"cycles": ref["cycles"],
                                     "instructions": ref["instructions"]}]})
        requests.append((0.02 * (i + 1), "warm", [job]))
    outcomes = []
    for (due, _, _), body in zip(requests, replies):
        sent = due + late_s
        outcomes.append(loadgen.Outcome(due, sent, sent + 0.002, True,
                                        json.dumps(body)))
    return {"setups": [(0.5, 1.0)], "requests": requests,
            "outcomes": outcomes,
            "checked": {"counts": {"warm": 0}, "results": []},
            "check_labels": [], "peak_rss_mb": 100.0, "load_cpu_s": 0.1,
            "load_factor": 1.0, "warmup_sent": 5, "warmup_failed": 0}


def test_open_loop_fails_when_the_generator_falls_behind():
    result, attempted, failed = run.serve_metrics(_serve_measured())
    assert (attempted, failed) == (27, 0)
    assert result["metrics"]["jobs_per_cpu_s"] == pytest.approx(210.0)
    late = run.LATE_LIMIT_MS / 1e3 + 0.01
    result, attempted, failed = run.serve_metrics(_serve_measured(late))
    assert (attempted, failed) == (27, 1)
    # latency still counts from the due time, lateness included
    assert result["metrics"]["warm_p50_ms"] >= 1e3 * late


def test_warm_request_not_answered_from_the_cache_fails():
    result, _, failed = run.serve_metrics(_serve_measured(missed=3))
    assert failed == 1
    assert result["metrics"]["jobs_per_cpu_s"] == pytest.approx(200.0)


def test_host_factor_is_the_window_mean_over_nominal():
    nominal = hostspeed.NOMINAL
    samples = [(0.0, nominal), (1.0, 2 * nominal), (2.0, 4 * nominal)]
    assert hostspeed.window_factor(samples, 0.5, 2.0) == pytest.approx(3.0)
    # a window shorter than the sampling period borrows its neighbours
    assert hostspeed.window_factor(samples, 0.95, 0.96) == 2.0
    with pytest.raises(ValueError):
        hostspeed.window_factor(samples, 5.0, 6.0)


# -- self time ----------------------------------------------------------
def _span(sid, parent, layer, start, end, name="x", job=None):
    return (sid, parent, name, layer, start, end, job)


def test_self_time_counts_overlapping_children_once():
    trace = [
        _span(1, 0, "engine", 0.0, 10.0),
        _span(2, 1, "cache", 1.0, 4.0),
        _span(3, 1, "cache", 3.0, 6.0),    # overlaps its sibling
        _span(4, 1, "layout", 5.0, 12.0),  # runs past its parent
        _span(5, 0, spans.BENCH_LAYER, 0.0, 20.0),
    ]
    selfs = spans.self_times(trace)
    # children cover [1, 10] of the parent once: 10 - 9 = 1
    assert selfs["engine"] == pytest.approx(1.0)
    assert selfs["cache"] == pytest.approx(6.0)
    assert selfs["layout"] == pytest.approx(7.0)
    assert spans.BENCH_LAYER not in selfs
    assert spans.covered(trace, 0.0, 20.0) == pytest.approx(12.0)
    assert spans.union_length([(0, 2), (1, 3), (5, 6)]) == 4


def test_recorder_nests_spans_and_inherits_the_job(tmp_path):
    rec = spans.Recorder(tmp_path, role="program")
    inner = rec.wrap(lambda: None, "inner", "cache")
    outer = rec.enter_job(rec.wrap(lambda job: inner(), "task", "engine"),
                          job_of=lambda args: f"job-{args[0]}")
    outer(7)
    by_name = {s[2]: s for s in rec.spans}
    assert by_name["inner"][1] == by_name["task"][0]
    assert by_name["inner"][6] == by_name["task"][6] == "job-7"
    written = json.loads(rec.dump().read_text())
    assert written["role"] == "program" and len(written["spans"]) == 2


# -- reference checking -------------------------------------------------
def _fig4_item():
    reference = run.load_reference("fig4_detailed.json")
    label, stats = sorted(reference.items())[0]
    return {"label": label, "verified": True,
            "stats": copy.deepcopy(stats)}


def test_matching_fig4_result_passes():
    assert run.check_batch("fig4-cold", [_fig4_item()]) == (0, 0.0)


@pytest.mark.parametrize("field, scale", [
    ("l2_hits", 1.0), ("instructions", 1.0), ("cycles", 1.05)])
def test_reference_mismatch_counts_as_failure(field, scale):
    item = _fig4_item()
    if scale == 1.0:
        item["stats"][field] += 1
    else:
        item["stats"][field] *= scale
    failed, _ = run.check_batch("fig4-cold", [item])
    assert failed == 1


def test_unverified_fig4_result_fails():
    item = _fig4_item()
    item["verified"] = False
    assert run.check_batch("fig4-cold", [item])[0] == 1


def test_sweep_results_must_match_bit_for_bit():
    reference = run.load_reference("sweep_priced.json")
    label, stats = sorted(reference.items())[0]
    item = {"label": label, "stats": copy.deepcopy(stats)}
    item["stats"]["extra"]["wall_seconds"] = 1.0  # host bookkeeping
    assert run.check_batch("sweep-cold", [item])[0] == 0
    item["stats"]["cycles"] = float(stats["cycles"]) + 1e-9
    assert run.check_batch("sweep-cold", [item])[0] == 1
