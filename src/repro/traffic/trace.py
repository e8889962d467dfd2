"""Trace recording and replay.

``TraceReplay`` feeds a pre-recorded arrival trace into the simulator —
useful for regression tests (bit-exact workloads), for replaying a
workload against several schedulers, and as the substitution point where
a user with real packet traces would plug them in. ``record_trace``
captures any pattern's output into a replayable array.
"""

from __future__ import annotations

import numpy as np

from repro.traffic.base import NO_ARRIVAL, TrafficPattern


class TraceReplay(TrafficPattern):
    """Replay a ``(slots, n)`` destination trace; wraps around at the end."""

    name = "trace"

    def __init__(self, trace: np.ndarray, wrap: bool = True):
        trace = np.asarray(trace, dtype=np.int64)
        if trace.ndim != 2:
            raise ValueError(f"trace must be 2-D (slots, n), got shape {trace.shape}")
        n = trace.shape[1]
        mask = trace != NO_ARRIVAL
        if mask.any() and (trace[mask].min() < 0 or trace[mask].max() >= n):
            raise ValueError("trace contains destinations out of range")
        load = float(mask.mean()) if trace.size else 0.0
        super().__init__(n, load, seed=0)
        self.trace = trace
        self.wrap = wrap
        self._cursor = 0

    def reset(self) -> None:
        super().reset()
        self._cursor = 0

    def next_slot(self) -> np.ndarray:
        if self._cursor >= len(self.trace):
            if not self.wrap:
                return np.full(self.n, NO_ARRIVAL, dtype=np.int64)
            self._cursor = 0
        row = self.trace[self._cursor]
        self._cursor += 1
        return row.copy()

    def rate_matrix(self) -> np.ndarray:
        counts = np.zeros((self.n, self.n), dtype=np.int64)
        for row in self.trace:
            mask = row != NO_ARRIVAL
            np.add.at(counts, (np.flatnonzero(mask), row[mask]), 1)
        slots = max(len(self.trace), 1)
        return counts / slots


def record_trace(pattern: TrafficPattern, slots: int) -> np.ndarray:
    """Capture ``slots`` slots of arrivals from ``pattern`` into a trace
    array suitable for :class:`TraceReplay`."""
    return pattern.arrivals(slots)
