"""Uniform Bernoulli i.i.d. traffic — the Figure 12 workload.

Each slot, each input generates a packet with probability ``load``; the
destination is uniform over all ``n`` outputs (the paper's hosts may
send to themselves in simulation, and so may ours — ``self_traffic``
can be disabled to model the ``n-1``-queue variant mentioned in
Section 2).

One slot is drawn as ``rng.random(n) < load`` and ``rng.integers(0, n,
n)`` (plus ``rng.integers(1, n, n)`` offsets without self traffic).
Because arrivals are i.i.d. per slot, :meth:`BernoulliUniform.arrivals`
serves a whole block of ``k`` slots from one ``random_raw`` call and
numpy's own transforms, so a block holds exactly the values — and
leaves exactly the generator state — that ``k`` per-slot draws would:

* a double is ``(word >> 11) * 2**-53``, one 64-bit word each;
* a bounded integer is 32-bit Lemire (``(half * bound) >> 32``) on the
  next 32-bit half: the low half of a fresh word first, then its high
  half, which the bit generator carries across calls (and slots) in
  ``has_uint32``/``uinteger``;
* a one-value range (``n == 1``, or the offsets at ``n == 2``) draws
  nothing.

A Lemire draw is rejected when ``(half * bound) mod 2**32`` falls below
``2**32 mod bound`` (never for a power-of-two ``bound``, probability
below ``bound / 2**32`` otherwise); a block that would reject is
replayed slot by slot from its saved state. The contract holds for the
numpy version the stream-exactness tests run against: they compare every
block size with the per-slot draw and fail loudly if numpy changes a
transform.
"""

from __future__ import annotations

import numpy as np

from repro.traffic.base import NO_ARRIVAL, TrafficPattern

_LOW_HALF = np.uint64(0xFFFFFFFF)


class BernoulliUniform(TrafficPattern):
    """I.i.d. Bernoulli arrivals with uniformly distributed destinations."""

    name = "bernoulli"

    def __init__(self, n: int, load: float, seed: int = 0, self_traffic: bool = True):
        super().__init__(n, load, seed)
        self.self_traffic = self_traffic
        if not self_traffic and n < 2:
            raise ValueError("self_traffic=False needs at least 2 ports")

    def next_slot(self) -> np.ndarray:
        n = self.n
        active = self.rng.random(n) < self.load
        dst = self.rng.integers(0, n, size=n)
        if not self.self_traffic:
            # Redraw destinations uniformly over the other n-1 ports by
            # shifting: pick an offset in [1, n-1] from self.
            offsets = self.rng.integers(1, n, size=n)
            dst = (np.arange(n) + offsets) % n
        return np.where(active, dst, NO_ARRIVAL).astype(np.int64)

    def arrivals(self, slots: int | None = None) -> np.ndarray:
        pcg64 = type(self.rng.bit_generator) is np.random.PCG64
        if slots is not None and slots > 0 and pcg64:
            block = self._draw_block(slots)
            if block is not None:
                return block
        return super().arrivals(slots)

    def _draw_block(self, slots: int) -> np.ndarray | None:
        """``slots`` slots from one ``random_raw`` call, or ``None`` (with
        the generator untouched) when a Lemire draw would reject."""
        n = self.n
        bitgen = self.rng.bit_generator
        saved = bitgen.state
        carry = saved["has_uint32"]
        # Bounded-integer ranges one slot draws, in draw order.
        bounds = [n] if n > 1 else []
        if not self.self_traffic and n > 2:
            bounds.append(n - 1)
        halves = n * len(bounds)  # 32-bit halves one slot consumes

        # Slot s consumes n double words, then the fresh words its
        # integers need beyond the carried half it starts with.
        index = np.arange(slots)
        carried = (carry + index * halves) & 1
        fresh = (halves - carried + 1) >> 1
        ends = np.cumsum(fresh + n)
        raw = bitgen.random_raw(int(ends[-1]))
        double_at = (ends - fresh - n)[:, np.newaxis] + np.arange(n)
        active = (raw[double_at] >> 11) * 2.0**-53 < self.load
        if not halves:
            return np.where(active, np.arange(n), NO_ARRIVAL)

        is_int = np.ones(raw.size, dtype=bool)
        is_int[double_at] = False
        words = raw[is_int]
        stream = np.empty(carry + 2 * words.size, dtype=np.uint64)
        if carry:
            stream[0] = saved["uinteger"]
        stream[carry::2] = words & _LOW_HALF
        stream[carry + 1 :: 2] = words >> 32
        stream = stream[: slots * halves].reshape(slots, halves)
        values = []
        for part, bound in enumerate(bounds):
            scaled = stream[:, part * n : (part + 1) * n] * np.uint64(bound)
            threshold = (1 << 32) % bound
            if threshold and ((scaled & _LOW_HALF) < threshold).any():
                bitgen.state = saved
                return None
            values.append((scaled >> 32).astype(np.int64))

        state = bitgen.state
        state["has_uint32"] = (carry + slots * halves) & 1
        # numpy leaves the last fresh word's high half in ``uinteger``
        # even after handing it out.
        state["uinteger"] = int(words[-1] >> 32)
        bitgen.state = state
        if self.self_traffic:
            dst = values[0]
        else:
            offsets = values[1] + 1 if len(values) > 1 else 1
            dst = (np.arange(n) + offsets) % n
        return np.where(active, dst, NO_ARRIVAL)

    def rate_matrix(self) -> np.ndarray:
        if self.self_traffic:
            return np.full((self.n, self.n), self.load / self.n)
        rate = np.full((self.n, self.n), self.load / (self.n - 1))
        np.fill_diagonal(rate, 0.0)
        return rate
