"""Traffic pattern base class."""

import numpy as np
import pytest

from repro.traffic.base import NO_ARRIVAL, TrafficPattern


class _TwoDestinations(TrafficPattern):
    """Minimal pattern exercising the base-class empirical rate matrix:
    always sends, alternating deterministically between two outputs."""

    name = "_test_two"

    def next_slot(self) -> np.ndarray:
        dst = self.rng.integers(0, 2, size=self.n)  # outputs 0 or 1 only
        return dst.astype(np.int64)


class TestBaseValidation:
    def test_invalid_load_rejected(self):
        with pytest.raises(ValueError):
            _TwoDestinations(4, 1.5)

    def test_invalid_ports_rejected(self):
        with pytest.raises(ValueError):
            _TwoDestinations(0, 0.5)


class TestEmpiricalRateMatrix:
    def test_estimates_only_used_destinations(self):
        pattern = _TwoDestinations(4, 1.0, seed=3)
        rate = pattern.rate_matrix()
        # Columns 2 and 3 never receive traffic.
        assert rate[:, 2:].sum() == 0.0
        # Each input sends one packet per slot, split between 0 and 1.
        assert rate.sum(axis=1) == pytest.approx(np.ones(4), abs=0.02)

    def test_estimation_does_not_disturb_the_stream(self):
        a = _TwoDestinations(4, 1.0, seed=9)
        b = _TwoDestinations(4, 1.0, seed=9)
        a.rate_matrix()  # must save/restore the RNG state
        for _ in range(10):
            assert (a.arrivals() == b.arrivals()).all()


class TestReset:
    def test_reset_restores_construction_stream(self):
        pattern = _TwoDestinations(4, 1.0, seed=5)
        first = [pattern.arrivals().tolist() for _ in range(5)]
        pattern.reset()
        assert [pattern.arrivals().tolist() for _ in range(5)] == first
