"""The open-loop client, span self time and the result line."""

import http.server
import math
import os
import threading
import time

import numpy as np
import pytest

import loadclient
from loadclient import OpenLoopClient, max_connections, poisson_schedule
from measure import Checks
from run import END_TO_END, repetitions, result_line, trace_seed
from tracing import SpanRecorder, self_times


class TestSchedule:
    def test_same_seed_same_schedule(self):
        one = poisson_schedule(np.random.default_rng([7, 1]), 400.0, 5.0, [0, 1, 2])
        two = poisson_schedule(np.random.default_rng([7, 1]), 400.0, 5.0, [0, 1, 2])
        assert one == two

    def test_rate_duration_and_zipf_order(self):
        schedule = poisson_schedule(np.random.default_rng(3), 1000.0, 10.0, [10, 11, 12])
        assert 9000 < len(schedule) < 11000
        assert all(0 <= t < 10.0 for t, _ in schedule)
        counts = [sum(1 for _, item in schedule if item == i) for i in (10, 11, 12)]
        assert counts[0] > counts[1] > counts[2]


class _Stalling(http.server.BaseHTTPRequestHandler):
    """Answers every query at once, except that the first one stalls."""

    protocol_version = "HTTP/1.1"
    stalled = threading.Event()

    def do_GET(self):
        if not self.stalled.is_set():
            self.stalled.set()
            time.sleep(0.3)
        body = b"{}"
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_client_times_queries_from_when_they_were_due(monkeypatch):
    """A stall delays every query due during it.  Timed from send, only
    the stalled query would look slow (coordinated omission); timed from
    due, the queries queued behind it are slow too."""
    monkeypatch.setattr(loadclient, "max_connections", lambda: 1)
    server = http.server.HTTPServer(("127.0.0.1", 0), _Stalling)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        schedule = [(i * 0.01, 0) for i in range(60)]
        samples = OpenLoopClient("127.0.0.1", server.server_address[1]).run(schedule)
    finally:
        server.shutdown()
        server.server_close()
        thread.join(5)
    assert [s.status for s in samples] == [200] * 60
    slow_from_send = [s for s in samples if s.service_ms > 100]
    slow_from_due = [s for s in samples if s.latency_ms > 100]
    assert len(slow_from_send) == 1
    assert len(slow_from_due) >= 15
    assert max(s.lateness_ms for s in samples) > 200


def test_client_connections_capped_by_cpus():
    client = OpenLoopClient("127.0.0.1", 1)
    assert client.connections == max_connections() <= (os.cpu_count() or 1)


def test_span_self_time_subtracts_children():
    rec = SpanRecorder("run-1")
    with rec.span("parent"):
        with rec.span("child"):
            time.sleep(0.02)
        time.sleep(0.01)
    times = self_times(rec.spans)
    assert times["child"] == pytest.approx(0.02, abs=0.01)
    assert times["parent"] == pytest.approx(0.01, abs=0.01)
    assert {s["parent"] for s in rec.spans} == {None, 0}


def test_untraced_recorder_times_but_keeps_nothing():
    rec = SpanRecorder("run-1", enabled=False)
    with rec.span("work") as timing:
        time.sleep(0.01)
    assert timing["seconds"] >= 0.01
    assert rec.spans == []


def test_result_line_counts_unmeasured_metrics_as_failures():
    checks = Checks()
    checks.check("score matches", True)
    values = dict.fromkeys(END_TO_END, 1.5)
    values["result_s"] = math.nan
    line = result_line(checks, values, END_TO_END)
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is False
    assert (line["attempted"], line["failed"]) == (1 + len(END_TO_END), 1)
    assert line["metrics"]["result_s"] == {"value": 0.0, "unit": "s"}
    assert line["metrics"]["setup_s"] == {"value": 1.5, "unit": "s"}


def test_trace_seeds_are_deterministic_and_distinct():
    seeds = [trace_seed(5, j) for j in range(10)]
    assert seeds == [trace_seed(5, j) for j in range(10)]
    assert len(set(seeds)) == 10
    assert trace_seed(-1, 0) >= 0
    assert repetitions("community-soa", 0.1) == 3
