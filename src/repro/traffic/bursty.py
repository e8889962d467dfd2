"""Bursty on/off traffic (two-state Markov-modulated arrivals).

Each input alternates between an *on* state — one packet every slot, all
to the same destination — and an idle *off* state. Burst (on-period)
lengths are geometric with mean ``mean_burst``; off-period lengths are
geometric with the mean required to hit the requested long-run load:

``load = E[on] / (E[on] + E[off])  =>  E[off] = E[on] * (1 - load) / load``

Correlated arrivals like these are what real packet traces look like
after segmentation into fixed-size cells; they inflate queueing delay
relative to Bernoulli traffic at the same load and are the standard
robustness check for schedulers tuned on i.i.d. arrivals.
"""

from __future__ import annotations

import numpy as np

from repro.traffic.base import NO_ARRIVAL, TrafficPattern


class BurstyOnOff(TrafficPattern):
    """Per-input on/off Markov source with per-burst fixed destination."""

    name = "bursty"

    def __init__(self, n: int, load: float, seed: int = 0, mean_burst: float = 16.0):
        super().__init__(n, load, seed)
        if mean_burst < 1.0:
            raise ValueError(f"mean burst length must be >= 1, got {mean_burst}")
        self.mean_burst = mean_burst
        # Per-slot probability of ending the current on/off period.
        self._p_end_on = 1.0 / mean_burst
        if load >= 1.0:
            self._p_end_off = 1.0  # bursts run back to back, no idle slot
        elif load <= 0.0:
            self._p_end_off = 0.0  # never leaves off
        else:
            # Off periods are geometric with support {1, 2, ...}: at least
            # one idle slot separates bursts, so the achievable load is
            # capped at mean_burst / (mean_burst + 1); the mean is clamped
            # accordingly.
            mean_off = max(1.0, mean_burst * (1.0 - load) / load)
            self._p_end_off = 1.0 / mean_off
        self._on = np.zeros(n, dtype=bool)
        self._dst = np.zeros(n, dtype=np.int64)

    def reset(self) -> None:
        super().reset()
        self._on[:] = False
        self._dst[:] = 0

    def next_slot(self) -> np.ndarray:
        n = self.n
        # State transitions happen at slot boundaries, before generation.
        end = self.rng.random(n)
        turn_off = self._on & (end < self._p_end_on)
        turn_on = ~self._on & (end < self._p_end_off)
        if self.load >= 1.0:
            # Full load: a finished burst rolls straight into a new one
            # (fresh destination) with no idle slot.
            turn_on |= turn_off
        self._on = (self._on & ~turn_off) | turn_on
        # A fresh burst picks a new uniform destination and holds it.
        new_dst = self.rng.integers(0, n, size=n)
        self._dst = np.where(turn_on, new_dst, self._dst)
        return np.where(self._on, self._dst, NO_ARRIVAL).astype(np.int64)

    def rate_matrix(self) -> np.ndarray:
        return np.full((self.n, self.n), self.load / self.n)
