"""Queue structures: PQ, VOQ set, output queue."""

import numpy as np
import pytest

from repro.sim.queues import OutputQueue, PacketQueue, VOQSet


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
