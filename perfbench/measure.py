"""Reporting rules shared by every workload of the benchmark.

Three rules live here so that they can be tested on their own:

- a percentile is reported only when at least :data:`MIN_BEYOND`
  samples lie beyond it (:func:`percentile`);
- ``fail_ratio`` counts every correctness check and every operation
  against the number attempted (:class:`Checks`);
- ``sustainable_qps`` is the highest stepped rate that met the latency
  limit with no shed, no failure and no growing backlog
  (:func:`sustainable_rate`).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Optional, Sequence

#: a percentile needs this many samples strictly beyond it to be reported
MIN_BEYOND = 10


def percentile(samples: Sequence[float], pct: float) -> Optional[float]:
    """Nearest-rank ``pct``-th percentile, or ``None`` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it.

    >>> percentile(range(1, 1001), 99)
    990
    >>> percentile(range(1, 1000), 99) is None
    True
    """
    if not 0 < pct < 100:
        raise ValueError(f"percentile must be in (0, 100), got {pct}")
    ordered = sorted(samples)
    n = len(ordered)
    rank = math.ceil(pct / 100.0 * n)
    if rank < 1 or n - rank < MIN_BEYOND:
        return None
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no values")
    return float(statistics.median(values))


@dataclass
class Checks:
    """Attempted and failed operations of one run.

    Every correctness check and every measured operation (an HTTP
    query, say) is one attempt; ``fail_ratio`` is failed over attempted.
    The names of failed checks are kept so a run can say what failed.
    """

    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)

    def check(self, name: str, ok: bool) -> bool:
        """Count one named check; returns ``ok``."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(name)
        return ok

    def operations(self, attempted: int, failed: int, name: str) -> None:
        """Count a batch of operations, ``failed`` of which failed."""
        if failed < 0 or failed > attempted:
            raise ValueError(f"{name}: {failed} failed of {attempted}")
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{name}: {failed} of {attempted} failed")

    def merge(self, other: "Checks") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0


@dataclass
class StepResult:
    """One offered rate of the ``sustainable_qps`` step test."""

    rate: float
    #: per-query latency from when the query was due (ms)
    latencies_ms: list[float]
    #: per-query send lateness behind schedule (ms), in due order
    lateness_ms: list[float]
    failed: int = 0
    shed: int = 0

    @property
    def p99_ms(self) -> Optional[float]:
        return percentile(self.latencies_ms, 99.0)

    def backlog_growing(self, limit_ms: float) -> bool:
        """Whether the client ended the step still behind schedule: the
        median lateness of the step's last tenth of queries exceeds the
        latency limit."""
        tail = self.lateness_ms[-max(1, len(self.lateness_ms) // 10):]
        return bool(tail) and median(tail) > limit_ms

    def meets(self, limit_ms: float) -> bool:
        p99 = self.p99_ms
        return (
            p99 is not None
            and p99 <= limit_ms
            and self.failed == 0
            and self.shed == 0
            and not self.backlog_growing(limit_ms)
        )


def sustainable_rate(steps: Sequence[StepResult], limit_ms: float) -> float:
    """Highest offered rate that met the limit, stepping up from the
    lowest rate and stopping at the first step that missed it (a step
    whose p99 is not reportable misses it).  ``0.0`` when the lowest
    step already missed."""
    best = 0.0
    for step in sorted(steps, key=lambda s: s.rate):
        if not step.meets(limit_ms):
            break
        best = step.rate
    return best
