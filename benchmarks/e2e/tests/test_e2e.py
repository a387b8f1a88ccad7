"""Tests of the benchmark harness itself (not part of the tier-1 suite).

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests -q
"""

import contextlib
import io
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import jobs
import layers
import run
import worker
from tracing import Tracer
from workloads import WORKLOADS

from repro.bgp.messages import Announcement, Keepalive, UpdateBatch, Withdrawal
from repro.bgp.path import AsPath
from repro.net.trace import MessageTrace

E2E = Path(__file__).resolve().parents[1]
SPEC = json.loads((E2E.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_time_is_duration_minus_children():
    ticks = iter([0.0, 1.0, 2.0, 4.0, 5.0, 6.0, 7.0, 10.0])
    tracer = Tracer(clock=lambda: next(ticks))
    outer = tracer.begin("outer")  # 0
    first = tracer.begin("inner")  # 1
    leaf = tracer.begin("leaf")  # 2
    assert tracer.end(leaf) == 2.0  # 4
    assert tracer.end(first) == 4.0  # 5
    second = tracer.begin("inner")  # 6
    tracer.end(second)  # 7
    assert tracer.end(outer) == 10.0  # 10
    ledger = tracer.ledger()
    assert ledger["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert ledger["inner"] == {"calls": 2, "total_s": 5.0, "self_s": 3.0}
    assert ledger["leaf"] == {"calls": 1, "total_s": 2.0, "self_s": 2.0}
    assert [span[3] for span in tracer.spans] == [-1, 0, 1, 0]


def test_spans_must_close_in_order():
    tracer = Tracer()
    outer = tracer.begin("outer")
    tracer.begin("inner")
    with pytest.raises(RuntimeError):
        tracer.end(outer)


def test_wrapper_records_a_span_when_the_call_raises():
    tracer = Tracer()

    def fails():
        raise ValueError("boom")

    with pytest.raises(ValueError):
        tracer.wrapped(fails, "fails")()
    assert tracer.ledger()["fails"]["calls"] == 1
    assert tracer.begin("next") == 1 and tracer.spans[1][3] == -1


def test_wrappers_are_removed_after_the_traced_pass():
    boundaries = layers.BOUNDARIES + layers.JOURNAL_BOUNDARIES
    timer_init = layers.Timer.__dict__["__init__"]
    before = [owner.__dict__[attribute] for owner, attribute, _name in boundaries]
    document = worker.SimRun(
        WORKLOADS["clique_tdown"], seed=0, smoke=True, meta={}
    ).traced()
    assert document["failed"] == 0
    after = [owner.__dict__[attribute] for owner, attribute, _name in boundaries]
    assert all(a is b for a, b in zip(after, before))
    assert layers.Timer.__dict__["__init__"] is timer_init


@pytest.mark.parametrize("name", ["clique_tdown", "flap_sessions", "tagg_scale"])
def test_staged_replica_reproduces_run_experiment(name):
    """One scenario of each event kind the workloads inject."""
    workload = WORKLOADS[name]
    plain = jobs.run_job(workload, workload.smoke_size, seed=3)
    staged = jobs.staged_job(workload, workload.smoke_size, seed=3)
    assert plain.ok and staged.ok
    assert staged.digest == plain.digest
    assert (staged.events, staged.route_updates) == (plain.events, plain.route_updates)


def test_route_updates_count_prefixes_not_messages():
    path = AsPath.of([7, 1])
    trace = MessageTrace()
    trace.record(0.0, 7, 2, Announcement("p0", path))
    trace.record(0.0, 7, 2, Withdrawal("p0"))
    trace.record(0.0, 7, 2, Keepalive())
    trace.record(
        0.0, 7, 2, UpdateBatch(withdrawn=("p1", "p2"), nlri=(("p3", path), ("p4", path)))
    )
    assert len(trace) == 4
    assert jobs.count_route_updates(trace) == 6


def test_smoke_run_emits_the_named_metrics_and_no_others(tmp_path):
    output = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(E2E / "run.py"), "--smoke", "--output", str(output)],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    named = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    for workload in SPEC["workloads"]:
        emitted = {
            metric.split("/", 1)[1]: reading["unit"]
            for metric, reading in last["metrics"].items()
            if metric.startswith(workload["name"] + "/")
        }
        assert emitted == named
    document = json.loads(output.read_text())
    assert set(document["meta"]) >= {"python", "platform", "nproc", "commit", "seed"}
    assert set(document["workloads"]) == {w["name"] for w in SPEC["workloads"]}


def test_per_layer_names_match_benchmark_json():
    assert [
        (m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]
    ] == layers.PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_a_failed_check_fails_the_run(monkeypatch, capsys):
    """A check patched to fail every odd-seeded job."""

    def in_process(arguments):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            worker.main(arguments + ["--spawned-at", repr(time.time())])
        return json.loads(printed.getvalue().strip().splitlines()[-1])

    check_run = jobs.check_run

    def failing_check(workload, experiment, result, fingerprint):
        check_run(workload, experiment, result, fingerprint)
        if result.seed % 2:
            result.failures.append("forced failure")

    monkeypatch.setattr(run, "run_worker", in_process)
    monkeypatch.setattr(jobs, "check_run", failing_check)
    handler = signal.getsignal(signal.SIGTERM)
    try:
        code = run.main(["--workload", "clique_tdown", "--smoke"])
    finally:
        signal.signal(signal.SIGTERM, handler)
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert not last["correct"]
    assert 0 < last["failed"] <= last["attempted"]
