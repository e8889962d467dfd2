"""Nonuniform traffic patterns from the input-queued switching literature.

These go beyond the paper's uniform-traffic evaluation; they are the
standard stress cases (cf. McKeown's iSLIP paper and the BookSim
workload set) used by ``benchmarks/bench_nonuniform.py`` to probe where
least-choice prioritisation helps or hurts.
"""

from __future__ import annotations

import numpy as np

from repro.traffic.base import NO_ARRIVAL, TrafficPattern


class Hotspot(TrafficPattern):
    """A fraction of all traffic converges on one hot output; the rest is
    uniform. ``fraction=1`` is a pure single-server queue on the hotspot."""

    name = "hotspot"

    def __init__(
        self,
        n: int,
        load: float,
        seed: int = 0,
        hotspot: int = 0,
        fraction: float = 0.5,
    ):
        super().__init__(n, load, seed)
        if not 0 <= hotspot < n:
            raise ValueError(f"hotspot port {hotspot} out of range for n={n}")
        if not 0.0 <= fraction <= 1.0:
            raise ValueError(f"fraction must be in [0, 1], got {fraction}")
        self.hotspot = hotspot
        self.fraction = fraction

    def next_slot(self) -> np.ndarray:
        active = self.rng.random(self.n) < self.load
        uniform_dst = self.rng.integers(0, self.n, size=self.n)
        hot = self.rng.random(self.n) < self.fraction
        dst = np.where(hot, self.hotspot, uniform_dst)
        return np.where(active, dst, NO_ARRIVAL).astype(np.int64)

    def rate_matrix(self) -> np.ndarray:
        rate = np.full((self.n, self.n), self.load * (1 - self.fraction) / self.n)
        rate[:, self.hotspot] += self.load * self.fraction
        return rate


class Diagonal(TrafficPattern):
    """Two-destination diagonal traffic: input ``i`` sends 2/3 of its
    packets to output ``i`` and 1/3 to output ``(i+1) mod n``.

    Harsh for round-robin schedulers because per-output contention is
    concentrated on two inputs with very unequal demands.
    """

    name = "diagonal"

    def next_slot(self) -> np.ndarray:
        active = self.rng.random(self.n) < self.load
        second = self.rng.random(self.n) < (1.0 / 3.0)
        ports = np.arange(self.n)
        dst = np.where(second, (ports + 1) % self.n, ports)
        return np.where(active, dst, NO_ARRIVAL).astype(np.int64)

    def rate_matrix(self) -> np.ndarray:
        rate = np.zeros((self.n, self.n))
        ports = np.arange(self.n)
        rate[ports, ports] = self.load * 2.0 / 3.0
        rate[ports, (ports + 1) % self.n] = self.load / 3.0
        return rate


class LogDiagonal(TrafficPattern):
    """Exponentially decaying diagonal: ``P(dst = (i+k) mod n) ∝ 2^{-k}``.

    Every input has some demand for every output, but heavily skewed —
    a middle ground between uniform and diagonal.
    """

    name = "logdiagonal"

    def __init__(self, n: int, load: float, seed: int = 0):
        super().__init__(n, load, seed)
        weights = 2.0 ** -np.arange(n)
        self._offsets_p = weights / weights.sum()

    def next_slot(self) -> np.ndarray:
        active = self.rng.random(self.n) < self.load
        offsets = self.rng.choice(self.n, size=self.n, p=self._offsets_p)
        dst = (np.arange(self.n) + offsets) % self.n
        return np.where(active, dst, NO_ARRIVAL).astype(np.int64)

    def rate_matrix(self) -> np.ndarray:
        rate = np.zeros((self.n, self.n))
        for i in range(self.n):
            for k in range(self.n):
                rate[i, (i + k) % self.n] = self.load * self._offsets_p[k]
        return rate


class Permutation(TrafficPattern):
    """Fixed random permutation traffic: input ``i`` always sends to
    ``perm[i]``. Contention free — any work-conserving scheduler should
    sustain load 1.0, which makes this a good correctness canary."""

    name = "permutation"

    def __init__(
        self, n: int, load: float, seed: int = 0, permutation: np.ndarray | None = None
    ):
        super().__init__(n, load, seed)
        if permutation is None:
            # Derived, fixed permutation: independent of the arrival stream
            # so that reset() does not change the traffic matrix.
            permutation = np.random.default_rng(seed + 7919).permutation(n)
        permutation = np.asarray(permutation, dtype=np.int64)
        if sorted(permutation.tolist()) != list(range(n)):
            raise ValueError("permutation must be a permutation of 0..n-1")
        self.permutation = permutation

    def next_slot(self) -> np.ndarray:
        active = self.rng.random(self.n) < self.load
        return np.where(active, self.permutation, NO_ARRIVAL).astype(np.int64)

    def rate_matrix(self) -> np.ndarray:
        rate = np.zeros((self.n, self.n))
        rate[np.arange(self.n), self.permutation] = self.load
        return rate
