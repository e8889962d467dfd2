"""Queue structures: PQ, VOQ set, output queue."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import SimConfig
from repro.sim.queues import OutputQueue, PacketQueue, VOQSet, admit_arrivals
from repro.sim.simulator import run_simulation
from repro.traffic.base import NO_ARRIVAL
from repro.types import NO_GRANT


class TestPacketQueue:
    def test_fifo_order(self):
        pq = PacketQueue(10)
        pq.push(3, 100)
        pq.push(1, 101)
        assert pq.pop() == (3, 100)
        assert pq.pop() == (1, 101)

    def test_capacity_enforced_with_drop_count(self):
        pq = PacketQueue(2)
        assert pq.push(0, 0) and pq.push(0, 1)
        assert not pq.push(0, 2)
        assert pq.dropped == 1
        assert len(pq) == 2

    def test_head_peeks_without_removal(self):
        pq = PacketQueue(4)
        pq.push(5, 7)
        assert pq.head() == (5, 7)
        assert len(pq) == 1

    def test_head_of_empty_is_none(self):
        assert PacketQueue(4).head() is None

    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            PacketQueue(0)


class TestVOQSet:
    def test_occupancy_tracks_pushes_and_pops(self):
        voqs = VOQSet(3, 4)
        voqs.push(1, 2, 100)
        voqs.push(1, 2, 101)
        assert voqs.occupancy[1, 2] == 2
        assert voqs.pop(1, 2) == 100
        assert voqs.occupancy[1, 2] == 1

    def test_request_matrix_reflects_nonempty_queues(self):
        voqs = VOQSet(3, 4)
        voqs.push(0, 2, 1)
        matrix = voqs.request_matrix()
        assert matrix[0, 2]
        assert matrix.sum() == 1

    def test_capacity_enforced(self):
        voqs = VOQSet(2, 1)
        voqs.push(0, 0, 1)
        assert not voqs.has_space(0, 0)
        with pytest.raises(OverflowError):
            voqs.push(0, 0, 2)

    def test_per_voq_fifo_order(self):
        voqs = VOQSet(2, 8)
        for t in (5, 6, 7):
            voqs.push(1, 0, t)
        assert [voqs.pop(1, 0) for _ in range(3)] == [5, 6, 7]

    def test_total_queued(self):
        voqs = VOQSet(2, 8)
        voqs.push(0, 0, 1)
        voqs.push(1, 1, 2)
        assert voqs.total_queued() == 2

    def test_queues_are_independent(self):
        voqs = VOQSet(2, 8)
        voqs.push(0, 0, 1)
        voqs.push(0, 1, 2)
        assert voqs.pop(0, 1) == 2
        assert voqs.occupancy[0, 0] == 1


class TestVOQMasks:
    """The incremental request bitmasks (one Python int per row/column at
    every width) must track occupancy exactly through any push/pop
    sequence."""

    @staticmethod
    def assert_masks_consistent(voqs: VOQSet):
        n = voqs.n
        matrix = voqs.request_matrix()
        for i in range(n):
            expected = sum(1 << j for j in range(n) if matrix[i, j])
            assert voqs.row_masks[i] == expected
        for j in range(n):
            expected = sum(1 << i for i in range(n) if matrix[i, j])
            assert voqs.col_masks[j] == expected

    @pytest.mark.parametrize("n", [4, 63, 64, 65, 128])
    def test_masks_track_random_push_pop_sequences(self, n):
        rng = np.random.default_rng(n)
        voqs = VOQSet(n, capacity=3)
        occupied = []
        for step in range(200):
            if occupied and rng.random() < 0.45:
                i, j = occupied[rng.integers(len(occupied))]
                voqs.pop(i, j)
                if not voqs.occupancy[i, j]:
                    occupied.remove((i, j))
            else:
                i = int(rng.integers(n))
                j = int(rng.integers(n))
                if voqs.has_space(i, j):
                    voqs.push(i, j, step)
                    if (i, j) not in occupied:
                        occupied.append((i, j))
            if step % 40 == 0:
                self.assert_masks_consistent(voqs)
        self.assert_masks_consistent(voqs)

    def test_word_boundary_bits_set_and_clear(self):
        # Crosspoints straddling the 64-bit edge land on the right bit.
        voqs = VOQSet(65, capacity=2)
        for j in (63, 64):
            voqs.push(2, j, 0)
            assert voqs.row_masks[2] == 1 << j
            assert voqs.col_masks[j] == 1 << 2
            voqs.pop(2, j)
            assert voqs.row_masks[2] == 0
            assert voqs.col_masks[j] == 0

    def test_masks_ignore_depth_changes_beyond_the_first_packet(self):
        voqs = VOQSet(65, capacity=4)
        voqs.push(0, 64, 0)
        first = (voqs.row_masks[0], voqs.col_masks[64])
        voqs.push(0, 64, 1)  # depth 1 -> 2: no mask transition
        assert (voqs.row_masks[0], voqs.col_masks[64]) == first
        voqs.pop(0, 64)  # 2 -> 1: still occupied
        assert (voqs.row_masks[0], voqs.col_masks[64]) == first
        voqs.pop(0, 64)  # 1 -> 0: clears
        assert voqs.row_masks[0] == 0 and voqs.col_masks[64] == 0


class TestSlotLevelOperations:
    """The slot-level operations — admission (generation fused with
    injection) and forwarding — must leave exactly the state the
    per-packet method sequence leaves: PQ contents and drop counters,
    VOQ deques, occupancy and masks."""

    @staticmethod
    def per_packet_generation(pqs, arrivals, slot):
        for i, dst in enumerate(arrivals):
            if dst != NO_ARRIVAL:
                pqs[i].push(dst, slot)

    @staticmethod
    def per_packet_injection(pqs, voqs):
        """Returns how many PQ heads a full VOQ blocked."""
        blocked = 0
        for i, pq in enumerate(pqs):
            head = pq.head()
            if head is None:
                continue
            if voqs.has_space(i, head[0]):
                dst, t_generated = pq.pop()
                voqs.push(i, dst, t_generated)
            else:
                blocked += 1
        return blocked

    @staticmethod
    def state(pqs, voqs):
        return (
            [list(pq._queue) for pq in pqs],
            [pq.dropped for pq in pqs],
            [[list(queue) for queue in row] for row in voqs._queues],
            voqs.occupancy.tolist(),
            list(voqs.row_masks),
            list(voqs.col_masks),
        )

    def run_both(self, n, pq_capacity, voq_capacity, load, slots, seed):
        """Drive the per-packet sequence and :func:`admit_arrivals` side
        by side, comparing the full queue state after every stage;
        returns the per-packet side's (PQ drops, blocked PQ heads)."""
        rng = np.random.default_rng(seed)
        pqs_a = [PacketQueue(pq_capacity) for _ in range(n)]
        pqs_b = [PacketQueue(pq_capacity) for _ in range(n)]
        voqs_a, voqs_b = VOQSet(n, voq_capacity), VOQSet(n, voq_capacity)
        blocked = 0
        for slot in range(slots):
            # A skewed destination draw so VOQs fill and PQ heads block.
            dst = rng.integers(0, min(n, 3), size=n)
            arrivals = np.where(rng.random(n) < load, dst, NO_ARRIVAL)
            self.per_packet_generation(pqs_a, arrivals.tolist(), slot)
            blocked += self.per_packet_injection(pqs_a, voqs_a)
            # Rows arrive as int lists from the block loop and as arrays
            # from direct step() callers; both must behave the same.
            rows = arrivals.tolist() if slot % 2 else arrivals
            assert admit_arrivals(pqs_b, voqs_b, rows, slot) == int(
                (arrivals != NO_ARRIVAL).sum()
            )
            assert self.state(pqs_a, voqs_a) == self.state(pqs_b, voqs_b)

            # Forward a random partial matching over the occupied VOQs.
            outputs = rng.permutation(n).tolist()
            grants = [
                j if voqs_a.occupancy[i, j] and rng.random() < 0.7 else NO_GRANT
                for i, j in enumerate(outputs)
            ]
            expected = [
                voqs_a.pop(i, j) for i, j in enumerate(grants) if j != NO_GRANT
            ]
            assert voqs_b.pop_granted(grants) == expected
            assert self.state(pqs_a, voqs_a) == self.state(pqs_b, voqs_b)
        return sum(pq.dropped for pq in pqs_a), blocked

    @given(
        n=st.sampled_from([4, 65]),
        pq_capacity=st.integers(1, 3),
        voq_capacity=st.integers(1, 2),
        load=st.floats(0.0, 1.0),
        slots=st.integers(1, 30),
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=30, deadline=None)
    def test_match_the_per_packet_sequence(
        self, n, pq_capacity, voq_capacity, load, slots, seed
    ):
        self.run_both(n, pq_capacity, voq_capacity, load, slots, seed)

    @pytest.mark.parametrize("seed", range(4))
    def test_admission_matches_through_drops_and_head_blocking(self, seed):
        # Tiny queues at full load: PQs overflow and full VOQs block PQ
        # heads in the same run, so both slow branches are compared.
        dropped, blocked = self.run_both(
            n=6, pq_capacity=2, voq_capacity=1, load=1.0, slots=60, seed=seed
        )
        assert dropped > 0
        assert blocked > 0

    @pytest.mark.parametrize("scheduler", ["wfront", "lcf_central_rr"])
    def test_tiny_queues_run_identically_on_the_fast_loop(self, scheduler):
        config = SimConfig(
            n_ports=8, warmup_slots=20, measure_slots=200,
            pq_capacity=2, voq_capacity=1, seed=4,
        )
        reference = run_simulation(config, scheduler, 0.95)
        fast = run_simulation(config, scheduler, 0.95, fast=True)
        assert reference.dropped > 0
        assert fast.row() == reference.row()


class TestOutputQueue:
    def test_serves_in_order(self):
        queue = OutputQueue(4)
        queue.push(10)
        queue.push(11)
        assert queue.pop() == 10

    def test_pop_empty_returns_none(self):
        assert OutputQueue(4).pop() is None

    def test_overflow_counted(self):
        queue = OutputQueue(1)
        assert queue.push(1)
        assert not queue.push(2)
        assert queue.dropped == 1


class TestHeadTimestamps:
    def test_reports_head_generation_times(self):
        voqs = VOQSet(3, 4)
        voqs.push(0, 1, 7)
        voqs.push(0, 1, 9)  # behind the head
        voqs.push(2, 0, 3)
        heads = voqs.head_timestamps()
        assert heads[0, 1] == 7
        assert heads[2, 0] == 3

    def test_empty_queues_report_minus_one(self):
        heads = VOQSet(2, 4).head_timestamps()
        assert (heads == -1).all()

    def test_head_advances_after_pop(self):
        voqs = VOQSet(2, 4)
        voqs.push(1, 1, 5)
        voqs.push(1, 1, 6)
        voqs.pop(1, 1)
        assert voqs.head_timestamps()[1, 1] == 6
