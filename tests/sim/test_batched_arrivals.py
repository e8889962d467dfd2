"""Block arrival drawing is stream-exact.

``BernoulliUniform.arrivals(k)`` serves ``k`` slots from one
``random_raw`` call; every chunking of the stream into blocks must
return exactly the values — and leave exactly the ``bit_generator``
state, carried 32-bit half included — of the per-slot draw. Golden
traces, sweep cache keys and every seeded experiment depend on it, and
these tests are also the guard against a numpy release that changes a
transform: the comparison fails loudly instead of the sample path
shifting silently.
"""

import random

import numpy as np
import pytest

from repro.traffic.base import NO_ARRIVAL
from repro.traffic.bernoulli import BernoulliUniform

SIZES = (1, 2, 3, 5, 7, 12, 16, 63, 64, 65, 128)
CASES = [
    (n, self_traffic)
    for n in SIZES
    for self_traffic in (True, False)
    if self_traffic or n > 1
]


def legacy_slot(rng, n, load, self_traffic):
    """The per-slot draw, reproduced verbatim."""
    active = rng.random(n) < load
    dst = rng.integers(0, n, size=n)
    if not self_traffic:
        offsets = rng.integers(1, n, size=n)
        dst = (np.arange(n) + offsets) % n
    return np.where(active, dst, NO_ARRIVAL).astype(np.int64)


def legacy_arrivals(n, load, seed, self_traffic, slots):
    rng = np.random.default_rng(seed)
    return [legacy_slot(rng, n, load, self_traffic) for _ in range(slots)]


class TestStreamCompatibility:
    @pytest.mark.parametrize("self_traffic", [True, False])
    def test_batch_one_matches_the_legacy_stream(self, self_traffic):
        # One slot at a time (no block size) is the per-slot draw itself.
        pattern = BernoulliUniform(8, 0.7, seed=17, self_traffic=self_traffic)
        for expected in legacy_arrivals(8, 0.7, 17, self_traffic, slots=200):
            assert np.array_equal(pattern.arrivals(), expected)

    @pytest.mark.parametrize(
        "n,self_traffic", CASES, ids=[f"n{n}-{'self' if s else 'noself'}" for n, s in CASES]
    )
    def test_any_chunking_matches_the_per_slot_stream(self, n, self_traffic):
        # Every block size 1..64 once, in a shuffled order, after a
        # per-slot prefix of 0..2 slots so blocks start with and without
        # a carried 32-bit half; the generator state must be equal as a
        # dict (has_uint32 and the stale uinteger included) after every
        # block.
        seed = 1000 * n + self_traffic
        sizes = list(range(1, 65))
        random.Random(seed).shuffle(sizes)
        for prefix in range(3):
            pattern = BernoulliUniform(n, 0.6, seed=seed, self_traffic=self_traffic)
            rng = np.random.default_rng(seed)
            for _ in range(prefix):
                assert np.array_equal(
                    pattern.arrivals(), legacy_slot(rng, n, 0.6, self_traffic)
                )
            for k in sizes[prefix::3]:
                block = pattern.arrivals(k)
                expected = np.stack(
                    [legacy_slot(rng, n, 0.6, self_traffic) for _ in range(k)]
                )
                assert block.shape == (k, n) and block.dtype == np.int64
                assert np.array_equal(block, expected), (n, self_traffic, k)
                assert pattern.rng.bit_generator.state == rng.bit_generator.state

    def test_empty_block_draws_nothing(self):
        pattern = BernoulliUniform(4, 0.5, seed=2)
        before = pattern.rng.bit_generator.state
        assert pattern.arrivals(0).shape == (0, 4)
        assert pattern.rng.bit_generator.state == before


# -- Lemire rejections -------------------------------------------------------
#
# A bounded draw rejects when (half * bound) mod 2**32 < 2**32 mod bound:
# probability ~ bound / 2**32, so no seeded run hits one. PCG64's step
# (an affine map mod 2**128) and XSL-RR output are invertible, so a
# state whose upcoming raw word forces a rejection can be built exactly.

_MULT = (2549297995355413924 << 64) + 4865540595714422341
_MULT_INV = pow(_MULT, -1, 1 << 128)
_M64 = (1 << 64) - 1
_M128 = (1 << 128) - 1


def forced_state(seed, position, word):
    """A PCG64 state dict (no carried half) whose ``position``-th next
    raw word (1-based) is ``word``."""
    inc = np.random.default_rng(seed).bit_generator.state["state"]["inc"]
    high = random.Random(seed).getrandbits(64)  # any upper state half works
    rot = high >> 58
    xored = ((word << rot) | (word >> (64 - rot))) & _M64 if rot else word
    state = (high << 64) | (high ^ xored)  # XSL-RR output of state == word
    for _ in range(position):  # numpy steps, then outputs: undo both
        state = ((state - inc) * _MULT_INV) & _M128
    return {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


class TestRejectionFallback:
    @pytest.mark.parametrize(
        "n,self_traffic,position,word",
        [
            # n=3: 3 doubles per slot, then 3 halves. Word 4 is slot 0's
            # first integer word; word 9 is slot 1's (slot 0 took words
            # 4-5, leaving a carried half). A zero half rejects.
            (3, True, 4, 0x9E3779B9 << 32),  # low half zero
            (3, True, 4, 0x7F4A7C15),  # high half zero
            (3, True, 9, 0x9E3779B9 << 32),
            # n=7 without self traffic: the offsets' bound is 6.
            (7, False, 12, 0x1234567 << 32),
            (12, True, 13, 0xDEADBEEF << 32),
        ],
    )
    def test_rejecting_block_replays_per_slot(self, n, self_traffic, position, word):
        state = forced_state(n, position, word)
        probe = np.random.default_rng()
        probe.bit_generator.state = state
        assert int(probe.bit_generator.random_raw(position)[-1]) == word

        slots = 5
        legacy = np.random.default_rng()
        legacy.bit_generator.state = state
        expected = np.stack(
            [legacy_slot(legacy, n, 0.7, self_traffic) for _ in range(slots)]
        )
        halves = n * (2 if not self_traffic and n > 2 else 1)
        # One rejection consumes one extra half: the carry parity flips.
        assert legacy.bit_generator.state["has_uint32"] != (slots * halves) & 1

        pattern = BernoulliUniform(n, 0.7, self_traffic=self_traffic)
        pattern.rng.bit_generator.state = state
        assert np.array_equal(pattern.arrivals(slots), expected)
        assert pattern.rng.bit_generator.state == legacy.bit_generator.state

    def test_carried_half_can_reject(self):
        # A carried half of zero rejects at the first bounded draw.
        state = np.random.default_rng(5).bit_generator.state
        state.update(has_uint32=1, uinteger=0)
        legacy = np.random.default_rng()
        legacy.bit_generator.state = state
        expected = np.stack([legacy_slot(legacy, 5, 0.5, True) for _ in range(8)])
        pattern = BernoulliUniform(5, 0.5)
        pattern.rng.bit_generator.state = state
        assert np.array_equal(pattern.arrivals(8), expected)
        assert pattern.rng.bit_generator.state == legacy.bit_generator.state


class TestBatchedDraws:
    @pytest.mark.parametrize("batch", [1, 3, 16])
    def test_arrivals_are_well_formed(self, batch):
        pattern = BernoulliUniform(5, 0.8, seed=2)
        for _ in range(50):
            block = pattern.arrivals(batch)
            assert block.shape == (batch, 5)
            assert block.dtype == np.int64
            live = block[block != NO_ARRIVAL]
            assert ((live >= 0) & (live < 5)).all()

    def test_chunk_is_served_in_slot_order(self):
        # Row k of a block is slot k: the same rows as k per-slot calls.
        blocked = BernoulliUniform(6, 0.6, seed=4).arrivals(5)
        single = BernoulliUniform(6, 0.6, seed=4)
        for k in range(5):
            assert np.array_equal(blocked[k], single.arrivals())

    def test_no_self_traffic_holds_across_chunks(self):
        pattern = BernoulliUniform(4, 1.0, seed=3, self_traffic=False)
        for _ in range(40):
            assert (pattern.arrivals(8) != np.arange(4)).all()

    def test_batched_load_is_statistically_right(self):
        pattern = BernoulliUniform(16, 0.5, seed=0)
        live = sum(int((pattern.arrivals(64) != NO_ARRIVAL).sum()) for _ in range(32))
        assert live / (32 * 64 * 16) == pytest.approx(0.5, abs=0.02)

    def test_reset_replays_the_block_stream(self):
        pattern = BernoulliUniform(7, 0.7, seed=11)
        first = [pattern.arrivals(k) for k in (4, 1, 9)]
        pattern.reset()
        replay = [pattern.arrivals(k) for k in (4, 1, 9)]
        assert all(np.array_equal(a, b) for a, b in zip(first, replay))

    def test_rejects_negative_block_size(self):
        with pytest.raises(ValueError):
            BernoulliUniform(4, 0.5).arrivals(-1)

    def test_batch_knob_is_gone(self):
        # Blocks are the per-slot sample path, so there is nothing to opt into.
        with pytest.raises(TypeError):
            BernoulliUniform(4, 0.5, batch=4)
