"""The benchmark's reporting rules: percentiles, fail_ratio, step rule."""

import pytest

from measure import (
    MIN_BEYOND,
    Checks,
    StepResult,
    median,
    percentile,
    sustainable_rate,
)


class TestPercentile:
    def test_p99_needs_ten_samples_beyond(self):
        assert percentile(range(1, 1001), 99.0) == 990
        assert percentile(range(1, 1000), 99.0) is None

    def test_p50_of_small_sample(self):
        values = list(range(1, 2 * MIN_BEYOND + 1))
        assert percentile(values, 50.0) == MIN_BEYOND
        assert percentile(values[:-1], 50.0) is None

    def test_order_does_not_matter(self):
        values = [5.0, 1.0, 3.0] * 400
        assert percentile(values, 99.0) == percentile(sorted(values), 99.0) == 5.0

    def test_empty_and_out_of_range(self):
        assert percentile([], 50.0) is None
        with pytest.raises(ValueError):
            percentile([1.0], 100.0)

    def test_median(self):
        assert median([3.0, 1.0, 2.0]) == 2.0
        with pytest.raises(ValueError):
            median([])


class TestChecks:
    def test_named_checks_count_failures(self):
        checks = Checks()
        assert checks.check("fine", True)
        assert not checks.check("broken", False)
        assert (checks.attempted, checks.failed) == (2, 1)
        assert checks.failures == ["broken"]
        assert checks.fail_ratio == 0.5

    def test_operations_and_merge(self):
        queries = Checks()
        queries.operations(1000, 3, "queries")
        checks = Checks()
        checks.check("score matches", True)
        checks.merge(queries)
        assert (checks.attempted, checks.failed) == (1001, 3)
        assert checks.fail_ratio == pytest.approx(3 / 1001)
        assert checks.failures == ["queries: 3 of 1000 failed"]

    def test_impossible_counts_are_rejected(self):
        with pytest.raises(ValueError):
            Checks().operations(2, 3, "queries")

    def test_nothing_attempted(self):
        assert Checks().fail_ratio == 0.0


def _step(rate, latency_ms, n=1000, lateness_ms=0.0, failed=0, shed=0):
    return StepResult(rate=rate, latencies_ms=[latency_ms] * n,
                      lateness_ms=[lateness_ms] * n, failed=failed, shed=shed)


class TestSustainableRate:
    LIMIT = 25.0

    def test_highest_passing_rate(self):
        steps = [_step(500, 2.0), _step(1000, 5.0), _step(2000, 60.0)]
        assert sustainable_rate(steps, self.LIMIT) == 1000

    def test_stops_at_first_failure(self):
        steps = [_step(500, 2.0), _step(1000, 60.0), _step(2000, 5.0)]
        assert sustainable_rate(steps, self.LIMIT) == 500

    def test_steps_are_taken_in_rate_order(self):
        steps = [_step(2000, 60.0), _step(500, 2.0), _step(1000, 5.0)]
        assert sustainable_rate(steps, self.LIMIT) == 1000

    def test_unreportable_p99_misses(self):
        assert sustainable_rate([_step(500, 2.0, n=999)], self.LIMIT) == 0.0

    def test_shed_or_failed_queries_miss(self):
        assert sustainable_rate([_step(500, 2.0, shed=1)], self.LIMIT) == 0.0
        assert sustainable_rate([_step(500, 2.0, failed=1)], self.LIMIT) == 0.0

    def test_growing_backlog_misses(self):
        behind = _step(500, 2.0)
        behind.lateness_ms[-100:] = [self.LIMIT + 1.0] * 100
        assert behind.backlog_growing(self.LIMIT)
        assert sustainable_rate([behind], self.LIMIT) == 0.0
        # a late stretch early in the step is not a growing backlog
        caught_up = _step(500, 2.0)
        caught_up.lateness_ms[:100] = [self.LIMIT + 1.0] * 100
        assert not caught_up.backlog_growing(self.LIMIT)

    def test_no_steps(self):
        assert sustainable_rate([], self.LIMIT) == 0.0
