"""Online estimators: EWMA rate lazy decay and P² quantile accuracy."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.estimators import P2Quantile, RateEstimator, StreamingQuantiles


# ---------------------------------------------------------------------------
# RateEstimator
# ---------------------------------------------------------------------------


def naive_ewma(events: list[tuple[int, int, int]], n: int, alpha: float,
               horizon: int) -> np.ndarray:
    """Reference: apply the EWMA recurrence slot by slot, no laziness."""
    value = np.zeros((n, n))
    hits = np.zeros((n, n), dtype=bool)
    by_slot: dict[int, list[tuple[int, int]]] = {}
    for i, j, slot in events:
        by_slot.setdefault(slot, []).append((i, j))
    for slot in range(horizon + 1):
        hits[:] = False
        for i, j in by_slot.get(slot, []):
            hits[i, j] = True
        value = (1.0 - alpha) * value + alpha * hits
    return value


class TestRateEstimator:
    def test_converges_to_true_rate(self):
        est = RateEstimator(2, alpha=0.05)
        # Pair (0, 1) served every slot: rate must approach 1.0.
        for slot in range(400):
            est.observe(0, 1, slot)
        assert est.rate(0, 1, 399) == pytest.approx(1.0, abs=1e-6)
        # Untouched pairs stay at exactly zero.
        assert est.rate(1, 0, 399) == 0.0

    def test_half_rate_alternating(self):
        est = RateEstimator(1, alpha=0.02)
        for slot in range(0, 1000, 2):
            est.observe(0, 0, slot)
        assert est.rate(0, 0, 999) == pytest.approx(0.5, rel=0.1)

    def test_decay_during_outage_then_recovery(self):
        """The ROADMAP's 'watch a faulted switch heal' signal."""
        est = RateEstimator(1, alpha=0.05)
        for slot in range(200):
            est.observe(0, 0, slot)
        healthy = est.rate(0, 0, 199)
        faulted = est.rate(0, 0, 300)  # 100 silent slots
        assert faulted < 0.01 * healthy
        for slot in range(300, 500):
            est.observe(0, 0, slot)
        assert est.rate(0, 0, 499) == pytest.approx(healthy, rel=0.01)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3), st.integers(0, 3), st.integers(0, 60)
            ),
            max_size=40,
        )
    )
    def test_lazy_decay_matches_naive_reference(self, raw_events):
        """Lazy one-power decay == slot-by-slot recurrence, any pattern.

        At most one event per (pair, slot) — the crossbar forwards at
        most one packet per pair per slot — and events are applied in
        slot order, as the switch does.
        """
        events = sorted(set(raw_events), key=lambda e: e[2])
        seen = set()
        events = [
            e for e in events
            if (e[0], e[1], e[2]) not in seen and not seen.add((e[0], e[1], e[2]))
        ]
        alpha, horizon = 0.1, 60
        est = RateEstimator(4, alpha=alpha)
        for i, j, slot in events:
            est.observe(i, j, slot)
        expected = naive_ewma(events, 4, alpha, horizon)
        np.testing.assert_allclose(est.matrix(horizon), expected, atol=1e-12)

    def test_aggregates_and_top_pairs(self):
        est = RateEstimator(3, alpha=0.1)
        for slot in range(100):
            est.observe(0, 2, slot)
            if slot % 2 == 0:
                est.observe(1, 1, slot)
        at = 99
        matrix = est.matrix(at)
        np.testing.assert_allclose(est.input_rates(at), matrix.sum(axis=1))
        np.testing.assert_allclose(est.output_rates(at), matrix.sum(axis=0))
        assert est.total_rate(at) == pytest.approx(matrix.sum())
        top = est.top_pairs(at, k=2)
        assert [(i, j) for i, j, _ in top] == [(0, 2), (1, 1)]
        assert est.events == 150

    def test_reset_and_validation(self):
        est = RateEstimator(2)
        est.observe(0, 0, 5)
        est.reset()
        assert est.rate(0, 0, 10) == 0.0 and est.events == 0
        with pytest.raises(ValueError):
            RateEstimator(0)
        with pytest.raises(ValueError):
            RateEstimator(2, alpha=0.0)
        with pytest.raises(ValueError):
            RateEstimator(2, alpha=1.5)


# ---------------------------------------------------------------------------
# P² streaming quantiles
# ---------------------------------------------------------------------------


class TestP2Quantile:
    def test_empty_is_nan(self):
        assert math.isnan(P2Quantile(0.5).value)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=5,
        ),
        st.sampled_from([0.25, 0.5, 0.9]),
    )
    def test_warmup_matches_exact_quantile(self, xs, q):
        """For <= 5 samples the estimate is the exact interpolated
        quantile of the buffer (numpy 'linear' convention)."""
        cell = P2Quantile(q)
        for x in xs:
            cell.add(x)
        assert cell.value == pytest.approx(
            float(np.quantile(xs, q)), rel=1e-9, abs=1e-9
        )

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=6,
            max_size=200,
        ),
        st.sampled_from([0.5, 0.9, 0.99]),
    )
    def test_estimate_always_within_observed_range(self, xs, q):
        """Whatever the stream, a marker estimate cannot escape
        [min, max] of the observations."""
        cell = P2Quantile(q)
        for x in xs:
            cell.add(x)
        assert min(xs) <= cell.value <= max(xs)
        assert cell.count == len(xs)

    @pytest.mark.parametrize("q", [0.5, 0.9, 0.99])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_accuracy_on_continuous_uniform(self, q, seed):
        rng = np.random.default_rng(seed)
        xs = rng.uniform(0.0, 1.0, 3000)
        cell = P2Quantile(q)
        for x in xs:
            cell.add(float(x))
        assert cell.value == pytest.approx(float(np.quantile(xs, q)), abs=0.03)

    def test_accuracy_on_lognormal(self):
        rng = np.random.default_rng(7)
        xs = rng.lognormal(0.0, 0.5, 5000)
        for q in (0.5, 0.9):
            cell = P2Quantile(q)
            for x in xs:
                cell.add(float(x))
            exact = float(np.quantile(xs, q))
            assert cell.value == pytest.approx(exact, rel=0.05)

    def test_validation(self):
        for bad in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                P2Quantile(bad)

    def test_reset(self):
        cell = P2Quantile(0.5)
        for x in range(100):
            cell.add(float(x))
        cell.reset()
        assert cell.count == 0 and math.isnan(cell.value)


class TestStreamingQuantiles:
    def test_default_bank_and_summary(self):
        bank = StreamingQuantiles()
        rng = np.random.default_rng(3)
        for x in rng.uniform(0, 100, 2000):
            bank.add(float(x))
        values = bank.values()
        assert set(values) == {0.5, 0.9, 0.99}
        assert values[0.5] < values[0.9] < values[0.99]
        summary = bank.summary()
        assert "p50=" in summary and "p99=" in summary
        bank.reset()
        assert bank.count == 0
        with pytest.raises(ValueError):
            StreamingQuantiles(())


# ---------------------------------------------------------------------------
# The ISSUE's acceptance property: P² tracks exact percentiles on the
# registry schedulers' delay streams.
# ---------------------------------------------------------------------------


@settings(max_examples=4, deadline=None)
@given(
    st.sampled_from(["lcf_central", "lcf_central_rr", "lcf_dist", "islip"]),
    st.sampled_from([0.7, 0.9]),
    st.integers(1, 1000),
)
def test_p2_tracks_exact_delay_percentiles_on_registry_schedulers(
    scheduler, load, seed
):
    """The switch's live P² delay percentiles must stay within tolerance
    of the exact percentiles over the same forwarded-delay stream.

    ``warmup_slots=0`` so the estimator and the exact sample list cover
    the identical window. Delays are small discrete ints with long
    plateaus, where P²'s parabolic interpolation can sit a few slots
    off the exact order statistic (observed up to ~19% at p90 on
    saturated lcf_dist streams) — tolerance is three packet slots or
    25%, whichever is larger.
    """
    from repro.obs.metrics import MetricsRegistry
    from repro.sim.config import SimConfig
    from repro.sim.simulator import build_switch
    from repro.traffic.base import make_traffic

    config = SimConfig(
        n_ports=8, warmup_slots=0, measure_slots=600, seed=seed
    )
    metrics = MetricsRegistry()
    switch = build_switch(
        config, scheduler, collect_latencies=True, seed=seed, metrics=metrics
    )
    switch.measuring = True
    pattern = make_traffic("bernoulli", 8, load, seed=seed)
    for slot in range(config.measure_slots):
        switch.step(slot, pattern.arrivals())

    samples = np.asarray(switch.latency_samples)
    if len(samples) < 100:  # pragma: no cover - ultra-low-load draw
        return
    live = switch.delay_quantiles.values()
    for q in (0.5, 0.9):
        exact = float(np.quantile(samples, q))
        tolerance = max(3.0, 0.25 * exact)
        assert abs(live[q] - exact) <= tolerance, (
            f"{scheduler} load={load} seed={seed}: p{q * 100:g} "
            f"estimate {live[q]:.2f} vs exact {exact:.2f}"
        )


# ---------------------------------------------------------------------------
# Checkpoint round-trip
# ---------------------------------------------------------------------------


class TestP2CheckpointRoundTrip:
    """A P² estimator restored from its serialised markers continues
    the stream exactly where the original left off."""

    def _drain(self, estimator: P2Quantile, xs: list[float]) -> list[float]:
        out = []
        for x in xs:
            estimator.add(x)
            out.append(estimator.value)
        return out

    @given(
        prefix=st.lists(st.floats(-1e6, 1e6), min_size=0, max_size=60),
        suffix=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
        q=st.sampled_from((0.5, 0.9, 0.99)),
    )
    @settings(max_examples=40, deadline=None)
    def test_restore_from_markers_is_bit_identical(self, prefix, suffix, q):
        from repro.checkpoint import restore_state, snapshot_state

        original = P2Quantile(q)
        for x in prefix:
            original.add(x)
        snapshot = snapshot_state(original)

        restored = P2Quantile(q)
        restore_state(restored, snapshot)
        assert restored.count == original.count
        assert restored._heights == original._heights
        assert restored._positions == original._positions
        assert restored._desired == original._desired

        # Identical continuation: every post-restore estimate matches
        # the uninterrupted estimator bit for bit (NaN-safe compare).
        a = self._drain(original, suffix)
        b = self._drain(restored, suffix)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x == y or (math.isnan(x) and math.isnan(y))

    def test_snapshot_is_json_safe(self):
        import json

        from repro.checkpoint import snapshot_state

        estimator = P2Quantile(0.9)
        for x in range(50):
            estimator.add(float(x))
        json.dumps(snapshot_state(estimator))  # must not raise

    def test_streaming_bank_round_trips(self):
        from repro.checkpoint import restore_state, snapshot_state

        bank = StreamingQuantiles()
        for x in range(1, 200):
            bank.add(float(x % 37))
        snapshot = snapshot_state(bank)
        twin = StreamingQuantiles()
        restore_state(twin, snapshot)
        assert twin.values() == bank.values()


# ---------------------------------------------------------------------------
# Batched updates (the crossbar's fast block loop flushes per block)
# ---------------------------------------------------------------------------


def split(stream: list, cuts: list[int]) -> list[list]:
    """``stream`` cut into consecutive chunks at the (sorted) ``cuts``."""
    bounds = [0, *sorted(min(c, len(stream)) for c in cuts), len(stream)]
    return [stream[a:b] for a, b in zip(bounds, bounds[1:])]


def textbook_p2(q: float, stream: list) -> tuple[list, list, list]:
    """Reference P² (Jain & Chlamtac's per-sample update, list-based):
    the final ``(heights, positions, desired)`` after ``stream``."""
    heights: list[float] = []
    positions = [1.0, 2.0, 3.0, 4.0, 5.0]
    desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
    increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]
    for x in stream:
        if len(heights) < 5:
            heights.append(float(x))
            heights.sort()
            continue
        if x < heights[0]:
            heights[0] = float(x)
            k = 0
        elif x >= heights[4]:
            heights[4] = float(x)
            k = 3
        else:
            k = 0
            while k < 3 and not (heights[k] <= x < heights[k + 1]):
                k += 1
        for index in range(k + 1, 5):
            positions[index] += 1.0
        for index in range(5):
            desired[index] += increments[index]
        h, p = heights, positions
        for i in (1, 2, 3):
            delta = desired[i] - p[i]
            if (delta >= 1.0 and p[i + 1] - p[i] > 1.0) or (
                delta <= -1.0 and p[i] - p[i - 1] > 1.0
            ):
                d = 1.0 if delta >= 1.0 else -1.0
                candidate = h[i] + d / (p[i + 1] - p[i - 1]) * (
                    (p[i] - p[i - 1] + d) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                    + (p[i + 1] - p[i] - d) * (h[i] - h[i - 1]) / (p[i] - p[i - 1])
                )
                if h[i - 1] < candidate < h[i + 1]:
                    h[i] = candidate
                else:
                    s = int(d)
                    h[i] = h[i] + d * (h[i + s] - h[i]) / (p[i + s] - p[i])
                p[i] += d
    return heights, positions, desired


class TestBatchedUpdates:
    @given(
        stream=st.lists(
            st.one_of(st.integers(1, 40), st.floats(-1e6, 1e6)), max_size=300
        ),
        cuts=st.lists(st.integers(0, 300), max_size=8),
        q=st.sampled_from((0.5, 0.9, 0.99, 0.25)),
    )
    @settings(max_examples=200, deadline=None)
    def test_p2_add_many_over_any_split_equals_per_sample_add(
        self, stream, cuts, q
    ):
        single = P2Quantile(q)
        for x in stream:
            single.add(x)
        batched = P2Quantile(q)
        for chunk in split(stream, cuts):
            batched.add_many(chunk)
        assert batched.count == single.count == len(stream)
        assert batched._heights == single._heights
        assert batched._positions == single._positions
        assert batched._desired == single._desired
        heights, positions, desired = textbook_p2(q, stream)
        assert [repr(h) for h in single._heights] == [repr(h) for h in heights]
        assert (single._positions, single._desired) == (positions, desired)

    @given(
        stream=st.lists(st.integers(1, 40), max_size=200),
        cuts=st.lists(st.integers(0, 200), max_size=6),
    )
    @settings(max_examples=50, deadline=None)
    def test_streaming_bank_add_many_equals_add(self, stream, cuts):
        single, batched = StreamingQuantiles(), StreamingQuantiles()
        for x in stream:
            single.add(x)
        for chunk in split(stream, cuts):
            batched.add_many(chunk)
        assert batched.count == single.count
        for q, cell in single.cells.items():
            twin = batched.cells[q]
            assert (twin._heights, twin._positions, twin._desired) == (
                cell._heights, cell._positions, cell._desired
            )

    @given(
        steps=st.lists(
            st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 40)),
            max_size=120,
        ),
        cuts=st.lists(st.integers(0, 120), max_size=6),
        alpha=st.sampled_from((0.02, 0.1, 0.5, 1.0)),
    )
    @settings(max_examples=100, deadline=None)
    def test_observe_many_equals_observe_bitwise(self, steps, cuts, alpha):
        # Slots are non-decreasing (the crossbar's contract); the steps
        # are gaps, so long silences exercise large decay powers.
        events, slot = [], 0
        for i, j, gap in steps:
            slot += gap
            events.append((i, j, slot))
        single = RateEstimator(4, alpha=alpha)
        for event in events:
            single.observe(*event)
        batched = RateEstimator(4, alpha=alpha)
        for chunk in split(events, cuts):
            batched.observe_many(chunk)
        assert batched._value.tobytes() == single._value.tobytes()
        assert np.array_equal(batched._slot, single._slot)
        assert batched.events == single.events
