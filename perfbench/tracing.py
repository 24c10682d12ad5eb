"""Spans and a sampling profiler, both in the benchmark's own code.

Spans are recorded around each call the benchmark makes into the
program's public functions: name, start, end, parent, run id and the
calling thread's CPU seconds, kept in memory and written out when the
run ends.  The sampler is a thread
that reads ``sys._current_frames()`` and charges each sample to the
innermost ``repro.<package>.<module>`` frame of the measured thread, so
run-phase self time can be split by module without touching the
program.  Neither is active in an untraced run.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable

#: module key for samples that hit no ``repro.*`` frame
OUTSIDE = "(outside repro)"
#: seconds between two samples of the profiled thread
SAMPLE_INTERVAL_S = 0.001


class SpanRecorder:
    """In-memory span log for one run id.

    ``enabled=False`` makes :meth:`span` a bare timer, so untraced and
    traced runs share one code path and differ only in what is kept.
    """

    def __init__(self, run_id: str, enabled: bool = True) -> None:
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        """Time the with-block; yields a dict whose ``seconds`` (wall) and
        ``cpu_s`` (CPU time of the calling thread) are set on exit,
        traced or not."""
        timing = {"seconds": 0.0, "cpu_s": 0.0}
        index = None
        cpu_start = time.thread_time()
        start = time.perf_counter()
        if self.enabled:
            index = len(self.spans)
            self.spans.append({
                "name": name,
                "run": self.run_id,
                "id": index,
                "parent": self._stack[-1] if self._stack else None,
                "start": start,
                "end": None,
                "cpu_s": None,
            })
            self._stack.append(index)
        try:
            yield timing
        finally:
            end = time.perf_counter()
            timing["seconds"] = end - start
            timing["cpu_s"] = time.thread_time() - cpu_start
            if index is not None:
                self._stack.pop()
                self.spans[index]["end"] = end
                self.spans[index]["cpu_s"] = timing["cpu_s"]

    def add(self, name: str, start: float, end: float) -> None:
        """Record a top-level span timed elsewhere (a query timed by a
        client thread, say)."""
        if self.enabled:
            self.spans.append({
                "name": name, "run": self.run_id, "id": len(self.spans),
                "parent": None, "start": start, "end": end, "cpu_s": None,
            })


def self_times(spans: Iterable[dict]) -> dict[str, float]:
    """Total self time per span name: each span's duration minus the
    part of it that its direct children cover."""
    spans = list(spans)
    children: dict[tuple[str, int], list[dict]] = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault((span["run"], span["parent"]), []).append(span)
    totals: Counter = Counter()
    for span in spans:
        covered = _covered(
            [(c["start"], c["end"])
             for c in children.get((span["run"], span["id"]), [])],
            span["start"], span["end"],
        )
        totals[span["name"]] += (span["end"] - span["start"]) - covered
    return dict(totals)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def write_spans(path: Path, spans: Iterable[dict]) -> int:
    """Write spans as JSONL; returns the number written."""
    path.parent.mkdir(parents=True, exist_ok=True)
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
            count += 1
    return count


class Sampler:
    """Sample the calling thread's innermost ``repro.*`` frame every
    :data:`SAMPLE_INTERVAL_S`.

    Use as a context manager around the code to profile.  ``counts``
    maps module keys (``core.soa``, ``sim.engine``...) to sample counts.
    """

    def __init__(self) -> None:
        self.thread_id = threading.get_ident()
        self.counts: Counter = Counter()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def __enter__(self) -> "Sampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _loop(self) -> None:
        target = self.thread_id
        while not self._stop.wait(SAMPLE_INTERVAL_S):
            frame = sys._current_frames().get(target)
            key = OUTSIDE
            while frame is not None:
                name = frame.f_globals.get("__name__", "")
                if name.startswith("repro."):
                    key = name[len("repro."):]
                    break
                frame = frame.f_back
            self.counts[key] += 1


def group_self_time(by_module: dict[str, float], prefix: str) -> float:
    """Seconds charged to ``prefix`` or any module below it."""
    return sum(
        seconds for key, seconds in by_module.items()
        if key == prefix or key.startswith(prefix + ".")
    )
