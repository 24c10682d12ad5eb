"""The rescaling of CPU times to the reference speed (``speed.py``)."""

import pytest

import speed
from speed import REFERENCE_S, ScaledClock, reference_cpu_s


def test_reference_loop_takes_some_cpu_time():
    assert 0.0 < reference_cpu_s() < 1.0


def test_each_phase_is_scaled_by_the_references_around_it(monkeypatch):
    # the machine runs at full speed, then at half speed, then recovers
    samples = iter([REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S, REFERENCE_S])
    monkeypatch.setattr(speed, "reference_cpu_s", lambda: next(samples))
    clock = ScaledClock()
    # slowing down during the phase: the mean of 1x and 2x is 1.5x
    assert clock.scale(3.0) == pytest.approx(2.0)
    # a phase wholly at half speed takes half as long at the reference speed
    assert clock.scale(4.0) == pytest.approx(2.0)
    assert clock.scale(1.5) == pytest.approx(1.0)
    assert clock.reference_wall_s >= 0.0
