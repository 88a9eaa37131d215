"""Tests of the benchmark's own statistics, ledger folding and checks.

Run from the root of a checkout::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import os
import statistics
import sys
import time

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import stats  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from ledger import Ledger  # noqa: E402


# ------------------------------------------------------------ statistics

def test_median_and_quartiles_match_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
    assert stats.median(values) == 4.0
    q1, q2, q3 = stats.quartiles(values)
    assert (q1, q2, q3) == tuple(statistics.quantiles(values, n=4))
    assert stats.quartiles([2.5]) == (2.5, 2.5, 2.5)
    with pytest.raises(ValueError):
        stats.median([])


@pytest.mark.parametrize("n, pct", [
    (1000, 99.0),   # exactly ten samples beyond p99
    (999, 95.0),    # 9.99 beyond p99 is too few
    (200, 95.0),
    (100, 90.0),
    (40, 75.0),
    (20, 50.0),
    (19, None),
])
def test_tail_percentile_needs_ten_samples_beyond(n, pct):
    assert stats.tail_percentile(n) == pct


def test_tail_value_and_fallback():
    values = list(range(1, 1001))
    assert stats.tail(values) == (990.0, 99.0)
    assert stats.percentile(values, 50.0) == 500.0
    few = [3.0, 1.0, 100.0]
    assert stats.tail(few) == (3.0, None)   # median, not the outlier


def test_reference_ratio_cancels_a_uniform_slowdown(monkeypatch):
    """A machine that halves its speed doubles a job's wall time and the
    reference reading alike, so the gated nominal time does not move."""
    speed = {"factor": 1.0}
    monkeypatch.setattr(workloads, "reference_s",
                        lambda duration_s: 0.02 * speed["factor"])
    jobs = workloads.Jobs()
    jobs.start()
    jobs.add(1.0)
    speed["factor"] = 2.0
    jobs.add(2.0)       # straddles the change: before 0.02, after 0.04
    jobs.add(2.0)
    assert jobs.wall_s == [1.0, 2.0, 2.0]
    nominal = 1.0 * workloads.REF_NOMINAL_S / 0.02
    assert jobs.nominal_s[0] == pytest.approx(nominal)
    assert jobs.nominal_s[-1] == pytest.approx(nominal)


# ------------------------------------------------- due-time accounting

def test_due_time_log_charges_a_stall_to_the_requests_it_delayed():
    log = stats.DueTimeLog()
    clock = 0.0
    for i in range(100):
        due = i * 0.010
        clock = max(clock, due)
        if i == 10:
            clock += 0.200          # the generator stalls 200 ms
        log.sent(i, due, clock)
        log.done(i, clock + 0.001)  # service itself takes 1 ms
    assert max(log.late_ms) == pytest.approx(200.0)
    assert max(log.latency_ms) == pytest.approx(201.0)
    # Timed from the send instead, every request would read 1 ms.
    assert sum(1 for ms in log.latency_ms if ms > 50.0) >= 10
    assert stats.median(log.latency_ms) == pytest.approx(1.0)


def test_live_open_loop_generator_reports_a_stall():
    """The live workload's real generator, with commits that take 1 ms
    and one 250 ms stall of the event loop: the stall shows in the
    due-time latencies and in ``bench.late_ms``."""
    live = workloads.Live()
    live.loop = asyncio.new_event_loop()
    live.seed = 3
    issued = []

    def begin():
        fut = live.loop.create_future()
        fut.tid = len(issued)
        issued.append(fut)
        if len(issued) == 20:
            time.sleep(0.25)
        live.loop.call_later(0.001, fut.set_result, "committed")
        return fut

    live._begin = begin
    log = stats.DueTimeLog()
    try:
        live.loop.run_until_complete(live._open_loop(1.0, log))
    finally:
        live.loop.close()
    assert len(log.latency_ms) == len(issued) > 50
    assert max(log.latency_ms) >= 240.0
    assert stats.median(log.latency_ms) < 50.0
    result = workloads.RunResult()
    result.jobs.nominal_s.append(1.0)
    result.traced_jobs.nominal_s.append(1.0)
    result.late_ms = log.late_ms
    assert max(log.late_ms) >= 200.0
    late = worker.layer_metrics(Ledger(), result)["bench.late_ms"]
    assert late == stats.tail(log.late_ms)[0] and late > 0.0


# ------------------------------------------------------------- ledger

def test_ledger_folds_self_time_and_reconciles():
    led = Ledger()

    def inner():
        time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        inner_b()
        same_layer()

    def same_layer():
        time.sleep(0.005)

    def gen():
        time.sleep(0.01)
        yield 1
        time.sleep(0.01)

    inner_b = led.wrap(inner, "b", "inner")
    same_layer = led.wrap(same_layer, "a", "same")
    outer_a = led.wrap(outer, "a", "outer")
    gen_b = led.wrap(gen, "b", "gen")

    t0 = time.perf_counter()
    outer_a()
    for _ in gen_b():
        pass
    wall = time.perf_counter() - t0
    assert led.self_s["a"] == pytest.approx(0.015, abs=0.01)
    assert led.self_s["b"] == pytest.approx(0.04, abs=0.015)
    assert sum(led.self_s.values()) <= wall
    # outer, inner, and two generator resumes (plus the final one that
    # raises StopIteration); the same-layer call opened no span.
    assert led.entries["a"] == 1
    assert led.calls["same"][0] == 1
    parents = {sid: parent for _, _, _, sid, parent in led.spans}
    names = {sid: name for name, _, _, sid, _ in led.spans}
    inner_sid = next(s for s, n in names.items() if n == "inner")
    assert names[parents[inner_sid]] == "outer"


# --------------------------------------------- checks: seeded negatives

def test_paper_check_fires_on_changed_output():
    import hashlib
    good = "Figure 4\n42.0\n"
    digest = hashlib.sha256(good.encode()).hexdigest()
    assert workloads.check_paper(good, digest) == []
    assert workloads.check_paper(good.replace("42.0", "42.1"), digest)


def _fingerprint(**change):
    fp = {"txns": 10, "committed": 10, "aborted": 0, "unfinished": 0,
          "measured_tps": 300.0, "mean_ms": 90.0, "p50_ms": 80.0,
          "p95_ms": 150.0, "p99_ms": 200.0, "max_ms": 210.0,
          "peak_in_flight": 7, "counters": {"ipc": 5}}
    fp.update(change)
    return fp


def test_openloop_check_fires_on_abort_unfinished_and_divergence():
    assert workloads.check_openloop([_fingerprint(), _fingerprint()]) == (0, [])
    failed, errors = workloads.check_openloop(
        [_fingerprint(), _fingerprint(committed=9, aborted=1)])
    assert failed == 1 and errors
    failed, errors = workloads.check_openloop(
        [_fingerprint(committed=8, unfinished=2)])
    assert failed == 2 and errors
    failed, errors = workloads.check_openloop(
        [_fingerprint(), _fingerprint(measured_tps=299.0)])
    assert failed == 10 and "measured_tps" in errors[0]


def test_live_check_fires_on_each_kind_of_failure():
    ok = {"t1": "committed", "t2": "committed"}
    views = {"s0": {"t1": "committed"}, "s1": {}}
    assert workloads.check_live(ok, views, views) == (0, [])
    assert workloads.check_live({"t1": None}, {}, {})[0] == 1
    assert workloads.check_live({"t1": "aborted"}, {}, {})[0] == 1
    bad_site = {"s0": {"t1": "aborted"}}
    failed, errors = workloads.check_live(ok, bad_site, {})
    assert failed == 1 and "site s0" in errors[0]
    failed, errors = workloads.check_live(ok, {}, {"s2": {"t2": "aborted"}})
    assert failed == 1 and "wal s2" in errors[0]


def test_lint_check_fires_on_a_finding():
    class Finding:
        rule, file, line = "wallclock", "repro/sim/kernel.py", 7

    assert workloads.check_lint([]) == []
    assert workloads.check_lint([Finding()]) == [
        "lint finding: wallclock repro/sim/kernel.py:7"]


# ------------------------------------------------- benchmark definition

def test_predictions_name_only_declared_metrics():
    import json
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(here, "predictions.json")) as fh:
        predictions = json.load(fh)["predictions"]
    layer_names = {m["name"] for m in spec["per_layer"]}
    targets = {f"{w}.{m['name']}" for w in workloads.NAMES
               for m in spec["end_to_end"]}
    predicted = [name for p in predictions for name in p["metrics"]]
    assert len(predicted) == len(set(predicted))
    assert set(predicted) <= layer_names
    for p in predictions:
        assert set(p["moves"]) | set(p.get("flat", [])) <= targets
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.NAMES)
