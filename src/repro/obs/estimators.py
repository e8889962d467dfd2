"""Online estimators: per-pair EWMA rates and P² streaming quantiles.

The serving layer (:mod:`repro.obs.serve`) exposes *live* values while a
simulation is still running, which rules out anything that stores
samples. Two estimators cover what an operator watching a long soak run
actually needs:

* :class:`RateEstimator` — an exponentially weighted moving average of
  the per-slot service rate for every (input, output) pair, the online
  counterpart of the post-hoc :class:`~repro.sim.metrics.ServiceMatrix`.
  Updates are *lazy*: a pair's value decays only when it is touched or
  read, so a slot's cost is O(forwards), never O(n²). During a port
  outage the affected row/column visibly decays toward zero and climbs
  back as the switch heals — the signal the ROADMAP's "watch a faulted
  switch heal" item asks for.
* :class:`P2Quantile` — the Jain–Chlamtac P² algorithm: one quantile
  estimate from five markers, O(1) per observation, no sample storage.
  :class:`StreamingQuantiles` bundles the standard p50/p90/p99 delay
  set. Accuracy against exact percentiles is property-tested in
  ``tests/obs/test_estimators.py``.

Both are pure Python/numpy state machines with no export opinion; the
switch wires them into its :class:`~repro.obs.metrics.MetricsRegistry`
as collector-refreshed gauges (see ``docs/OBSERVABILITY.md``). Both
also take whole batches (``observe_many`` / ``add_many``), bit-identical
to per-sample updates; the crossbar's fast block loop flushes its
forwards through them once per block.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["RateEstimator", "P2Quantile", "StreamingQuantiles"]


class RateEstimator:
    """Per-(input, output) EWMA of events per slot, with lazy decay.

    The underlying recurrence is the standard per-slot EWMA

        ``r[t] = (1 - alpha) * r[t-1] + alpha * x[t]``

    where ``x[t]`` is the number of events the pair saw in slot ``t``
    (0 or 1 for crossbar forwards). Slots with no events only multiply
    by ``(1 - alpha)``, so they are applied in one power at the next
    touch or read instead of one at a time — ``observe`` and ``rate``
    are O(1) and a full :meth:`matrix` read is one vectorised
    expression. The estimate converges to the pair's true service rate
    (events/slot) with time constant ``~1/alpha`` slots.
    """

    def __init__(self, n: int, alpha: float = 0.02):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        self.n = n
        self.alpha = alpha
        self._value = np.zeros((n, n), dtype=np.float64)
        self._slot = np.zeros((n, n), dtype=np.int64)
        self.events = 0

    def reset(self) -> None:
        self._value[:] = 0.0
        self._slot[:] = 0
        self.events = 0

    def observe(self, input: int, output: int, slot: int) -> None:
        """Record one event for a pair at ``slot`` (non-decreasing)."""
        decay = (1.0 - self.alpha) ** (slot - self._slot[input, output])
        self._value[input, output] = (
            self._value[input, output] * decay + self.alpha
        )
        self._slot[input, output] = slot
        self.events += 1

    def observe_many(self, events) -> None:
        """Record ``(input, output, slot)`` events in order.

        Bit-identical to calling :meth:`observe` once per event: each
        decay is the same numpy power ``(1 - alpha) ** np.int64(gap)``
        (a Python ``float ** int`` can differ in the last bit), cached
        per gap, and the state is updated in plain Python floats and
        written back in place once.
        """
        n = self.n
        alpha = self.alpha
        base = 1.0 - alpha
        values = self._value.ravel().tolist()
        slots = self._slot.ravel().tolist()
        decays: dict[int, float] = {}
        count = 0
        for input, output, slot in events:
            key = input * n + output
            gap = slot - slots[key]
            decay = decays.get(gap)
            if decay is None:
                decay = decays[gap] = float(base ** np.int64(gap))
            values[key] = values[key] * decay + alpha
            slots[key] = slot
            count += 1
        self._value[...] = np.array(values).reshape(n, n)
        self._slot[...] = np.array(slots, dtype=np.int64).reshape(n, n)
        self.events += count

    def rate(self, input: int, output: int, at_slot: int) -> float:
        """The pair's estimated events/slot as of ``at_slot``."""
        decay = (1.0 - self.alpha) ** (at_slot - self._slot[input, output])
        return float(self._value[input, output] * decay)

    def matrix(self, at_slot: int) -> np.ndarray:
        """The full ``(n, n)`` rate matrix decayed to ``at_slot``."""
        return self._value * (1.0 - self.alpha) ** (at_slot - self._slot)

    def input_rates(self, at_slot: int) -> np.ndarray:
        """Per-input total service rate (row sums) at ``at_slot``."""
        return self.matrix(at_slot).sum(axis=1)

    def output_rates(self, at_slot: int) -> np.ndarray:
        """Per-output total service rate (column sums) at ``at_slot``."""
        return self.matrix(at_slot).sum(axis=0)

    def total_rate(self, at_slot: int) -> float:
        """Estimated switch-wide forwards per slot at ``at_slot``."""
        return float(self.matrix(at_slot).sum())

    def top_pairs(self, at_slot: int, k: int = 3) -> list[tuple[int, int, float]]:
        """The ``k`` hottest (input, output, rate) pairs, hottest first."""
        matrix = self.matrix(at_slot)
        flat = np.argsort(matrix, axis=None)[::-1][:k]
        return [
            (int(index // self.n), int(index % self.n), float(matrix.flat[index]))
            for index in flat
            if matrix.flat[index] > 0.0
        ]


def _p2_height(h_lo: float, h: float, h_hi: float,
               p_lo: float, p: float, p_hi: float, d: float) -> float:
    """A P² marker's new height after moving ``d`` (±1) positions: the
    parabolic prediction, or the linear one when the parabola would
    leave the neighbouring markers' bracket."""
    candidate = h + d / (p_hi - p_lo) * (
        (p - p_lo + d) * (h_hi - h) / (p_hi - p)
        + (p_hi - p - d) * (h - h_lo) / (p - p_lo)
    )
    if h_lo < candidate < h_hi:
        return candidate
    if d > 0.0:
        return h + d * (h_hi - h) / (p_hi - p)
    return h + d * (h_lo - h) / (p_lo - p)


class P2Quantile:
    """One streaming quantile via the P² algorithm (Jain & Chlamtac '85).

    Five markers track the minimum, the q/2, q, and (1+q)/2 quantiles,
    and the maximum; marker heights move by parabolic (falling back to
    linear) interpolation as observations stream in. Until five samples
    have arrived the estimate is read off the sorted warm-up buffer, so
    :attr:`value` is always defined once anything was observed.
    """

    def __init__(self, q: float):
        if not 0.0 < q < 1.0:
            raise ValueError(f"quantile must be in (0, 1), got {q}")
        self.q = q
        self.count = 0
        self._heights: list[float] = []
        # Marker positions (1-based, per the paper) and desired positions.
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0]
        self._increments = [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0]

    def reset(self) -> None:
        self.count = 0
        self._heights = []
        self._positions = [1.0, 2.0, 3.0, 4.0, 5.0]
        self._desired = [1.0, 1.0 + 2.0 * self.q, 1.0 + 4.0 * self.q,
                         3.0 + 2.0 * self.q, 5.0]

    def add(self, x: float) -> None:
        self.add_many((x,))

    def add_many(self, xs) -> None:
        """Observe every sample of ``xs`` in order.

        Bit-identical to calling :meth:`add` once per sample (``add`` is
        its one-sample case); the marker state lives in locals for the
        whole batch and is written back once.
        """
        count = self.count
        heights = self._heights
        xs = iter(xs)
        if count < 5:
            # Warm-up: the first five samples become the sorted markers.
            for x in xs:
                count += 1
                heights.append(float(x))
                heights.sort()
                if count == 5:
                    break
            if count < 5:
                self.count = count
                return

        h0, h1, h2, h3, h4 = heights
        p0, p1, p2, p3, p4 = self._positions
        d0, d1, d2, d3, d4 = self._desired
        # increments[0] is 0.0: the minimum's desired position never moves.
        _, i1, i2, i3, i4 = self._increments
        for x in xs:
            count += 1
            # Find the cell k such that heights[k] <= x < heights[k+1]
            # (stretching the extreme markers when x falls outside them)
            # and shift the positions of markers k+1..4.
            if x < h0:
                h0 = float(x)
                p1 += 1.0
                p2 += 1.0
                p3 += 1.0
            elif x >= h4:
                h4 = float(x)
            elif h0 <= x < h1:
                p1 += 1.0
                p2 += 1.0
                p3 += 1.0
            elif h1 <= x < h2:
                p2 += 1.0
                p3 += 1.0
            elif h2 <= x < h3:
                p3 += 1.0
            p4 += 1.0
            d1 += i1
            d2 += i2
            d3 += i3
            d4 += i4

            # Move each interior marker one step toward its desired
            # position when it is off by >= 1 and has room to move.
            delta = d1 - p1
            if (delta >= 1.0 and p2 - p1 > 1.0) or (delta <= -1.0 and p1 - p0 > 1.0):
                d = 1.0 if delta >= 1.0 else -1.0
                h1 = _p2_height(h0, h1, h2, p0, p1, p2, d)
                p1 += d
            delta = d2 - p2
            if (delta >= 1.0 and p3 - p2 > 1.0) or (delta <= -1.0 and p2 - p1 > 1.0):
                d = 1.0 if delta >= 1.0 else -1.0
                h2 = _p2_height(h1, h2, h3, p1, p2, p3, d)
                p2 += d
            delta = d3 - p3
            if (delta >= 1.0 and p4 - p3 > 1.0) or (delta <= -1.0 and p3 - p2 > 1.0):
                d = 1.0 if delta >= 1.0 else -1.0
                h3 = _p2_height(h2, h3, h4, p2, p3, p4, d)
                p3 += d
        heights[:] = (h0, h1, h2, h3, h4)
        self._positions[:] = (p0, p1, p2, p3, p4)
        self._desired[:] = (d0, d1, d2, d3, d4)
        self.count = count

    @property
    def value(self) -> float:
        """The current quantile estimate (NaN before any observation)."""
        if self.count == 0:
            return math.nan
        if self.count <= 5:
            # Exact quantile of the warm-up buffer (nearest-rank blend).
            rank = self.q * (len(self._heights) - 1)
            low = int(rank)
            high = min(low + 1, len(self._heights) - 1)
            frac = rank - low
            return self._heights[low] * (1.0 - frac) + self._heights[high] * frac
        return self._heights[2]


class StreamingQuantiles:
    """A bank of :class:`P2Quantile` cells fed from one stream.

    The default quantile set is the delay dashboard's p50/p90/p99.
    """

    DEFAULT_QS = (0.5, 0.9, 0.99)

    def __init__(self, qs: tuple[float, ...] = DEFAULT_QS):
        if not qs:
            raise ValueError("need at least one quantile")
        self.cells = {q: P2Quantile(q) for q in qs}
        self.count = 0

    def add(self, x: float) -> None:
        self.add_many((x,))

    def add_many(self, xs) -> None:
        """Feed a batch of samples (a sequence) to every cell, in order."""
        self.count += len(xs)
        for cell in self.cells.values():
            cell.add_many(xs)

    def reset(self) -> None:
        self.count = 0
        for cell in self.cells.values():
            cell.reset()

    def values(self) -> dict[float, float]:
        """``{quantile: estimate}`` for every tracked quantile."""
        return {q: cell.value for q, cell in self.cells.items()}

    def summary(self) -> str:
        parts = [
            f"p{q * 100:g}={cell.value:.2f}" for q, cell in sorted(self.cells.items())
        ]
        return "  ".join(parts)
