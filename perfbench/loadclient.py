"""Open-loop HTTP query client for the live workload.

Queries arrive on a Poisson schedule drawn from the seed, regardless of
how fast the server answers (independent users, not callers waiting in
turn).  Each query is timed from when it was *due*, so a stall that
delays later sends shows in their latency instead of vanishing from the
record (no coordinated omission).  One process, ``nproc``
connections, one thread per connection.
"""

from __future__ import annotations

import http.client
import os
import threading
import time
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.experiments.config import Settings
from repro.service.loadgen import _arrival_offsets
from repro.workloads.popularity import ZipfPopularity

#: seconds one query may take before it counts as failed
QUERY_TIMEOUT_S = 10.0
#: the first query is due this long after :meth:`OpenLoopClient.run` starts
LEAD_S = 0.02
#: Zipf exponent of the query items: the paper's default
ZIPF_S = Settings().zipf_exponent


def max_connections() -> int:
    """The client's connection and thread cap: the CPU count."""
    return max(1, os.cpu_count() or 1)


@dataclass
class QuerySample:
    """One query: when it was due, sent and answered (``perf_counter``
    seconds) and its HTTP status (``0`` for a transport error or
    timeout)."""

    due: float
    sent: float
    done: float
    status: int

    @property
    def latency_ms(self) -> float:
        """From due to answered."""
        return (self.done - self.due) * 1e3

    @property
    def lateness_ms(self) -> float:
        """How far behind schedule the send was."""
        return max(0.0, self.sent - self.due) * 1e3

    @property
    def service_ms(self) -> float:
        """From sent to answered: what a closed-loop client would see."""
        return (self.done - self.sent) * 1e3


def poisson_schedule(rng: np.random.Generator, rate: float, duration: float,
                     items: Sequence[int]) -> list[tuple[float, int]]:
    """``(offset_s, item)`` pairs: Poisson arrivals at ``rate`` per second
    over ``duration`` seconds, items Zipf by rank order; the same arrival
    process and item draw as the program's own load generator."""
    if rate <= 0 or duration <= 0:
        raise ValueError("rate and duration must be positive")
    offsets = _arrival_offsets(rate, duration, rng)
    picks = ZipfPopularity(items, s=ZIPF_S).sample_array(len(offsets), rng)
    return [(float(t), int(i)) for t, i in zip(offsets, picks)]


class OpenLoopClient:
    """Fire a schedule of ``/query?item=N`` requests at one server."""

    def __init__(self, host: str, port: int) -> None:
        self.host = host
        self.port = port
        self.connections = max_connections()
        self._lock = threading.Lock()

    def _connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection(self.host, self.port,
                                          timeout=QUERY_TIMEOUT_S)

    def run(self, schedule: Sequence[tuple[float, int]]) -> list[QuerySample]:
        """Send every query of ``schedule`` (offsets counted from now plus
        :data:`LEAD_S`); returns one sample per query, in schedule order."""
        start = time.perf_counter() + LEAD_S
        # a query still unsent this long after the last one was due
        # fails without being sent, so a hung server cannot hold the run
        deadline = start + (schedule[-1][0] if schedule else 0.0) + QUERY_TIMEOUT_S
        results: list[Optional[QuerySample]] = [None] * len(schedule)
        cursor = [0]

        def worker() -> None:
            conn = self._connect()
            try:
                while True:
                    with self._lock:
                        index = cursor[0]
                        cursor[0] += 1
                    if index >= len(schedule):
                        return
                    offset, item = schedule[index]
                    due = start + offset
                    delay = due - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    sent = time.perf_counter()
                    if sent > deadline:
                        results[index] = QuerySample(due, sent, sent, 0)
                        continue
                    try:
                        conn.request("GET", f"/query?item={item}")
                        response = conn.getresponse()
                        response.read()
                        status = response.status
                    except (OSError, http.client.HTTPException):
                        status = 0
                        conn.close()
                        conn = self._connect()
                    results[index] = QuerySample(due, sent, time.perf_counter(), status)
            finally:
                conn.close()

        threads = [threading.Thread(target=worker, daemon=True)
                   for _ in range(self.connections)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return [sample for sample in results if sample is not None]
