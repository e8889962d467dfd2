"""Queue structures of the Figure 11 model.

For speed the queues store bare generation timestamps (ints) — latency
is all the statistics need — with destinations implied by queue identity
(VOQs) or stored alongside (PQ, FIFO). Occupancy counters and request
bitmasks are maintained incrementally so the request matrix is O(n^2)
to read, not O(packets).

Two granularities of the same operations: the per-packet methods
(``PacketQueue.push/head/pop``, ``VOQSet.has_space/push/pop``) serve
callers that hook individual packets — the crossbar's general
``step()`` (tracer events, down inputs, admission) and the multi-stage
fabric. The slot-level operations run whole stages of one slot in a
single call, straight on the deques, the occupancy matrix and the
request masks, for the slot loops that need no per-packet hook (the
crossbar's fast block loop, the CIOQ and pipelined switches):
:func:`admit_arrivals` is generation and injection fused into one pass
over the inputs, :meth:`VOQSet.pop_granted` is forwarding. Both
granularities keep the same state: drop counters, the VOQ capacity
check, occupancy and masks end every slot identically.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.traffic.base import NO_ARRIVAL
from repro.types import NO_GRANT


class PacketQueue:
    """Per-input FIFO of ``(dst, t_generated)`` pairs with finite capacity.

    Models the initiator-side packet queue (PQ, 1000 entries in the
    paper). Arrivals beyond capacity are dropped and counted.
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._queue: deque[tuple[int, int]] = deque()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._queue)

    @property
    def full(self) -> bool:
        return len(self._queue) >= self.capacity

    def push(self, dst: int, t_generated: int) -> bool:
        """Enqueue a packet; returns False (and counts a drop) if full."""
        if self.full:
            self.dropped += 1
            return False
        self._queue.append((dst, t_generated))
        return True

    def head(self) -> tuple[int, int] | None:
        """Peek at the head packet without removing it."""
        return self._queue[0] if self._queue else None

    def pop(self) -> tuple[int, int]:
        """Remove and return the head packet."""
        return self._queue.popleft()

    def clear(self) -> None:
        """Empty the queue and zero the drop counter — back to the
        as-constructed state (for run-to-run switch reuse)."""
        self._queue.clear()
        self.dropped = 0


class VOQSet:
    """The ``n x n`` virtual output queues of one switch.

    ``voq[i][j]`` holds generation timestamps of input ``i``'s packets
    for output ``j``. Each VOQ has finite capacity (256 in the paper).
    """

    def __init__(self, n: int, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.n = n
        self.capacity = capacity
        self._queues: list[list[deque[int]]] = [
            [deque() for _ in range(n)] for _ in range(n)
        ]
        #: Per-VOQ packet counts, always ``len`` of the matching deque
        #: (written as that length: a Python-int store into the array is
        #: far cheaper than a numpy scalar increment).
        self._occupancy = np.zeros((n, n), dtype=np.int64)
        #: Per-input request bitmasks (bit j set iff VOQ (i, j) is
        #: non-empty) and the per-output transpose — maintained on every
        #: 0 <-> 1 occupancy transition so the fastpath kernels can read
        #: the request state without building a matrix. One Python int
        #: per row/column at every width (a wide int beyond 64 ports).
        self.row_masks: list[int] = [0] * n
        self.col_masks: list[int] = [0] * n

    @property
    def occupancy(self) -> np.ndarray:
        """Read-only view of per-VOQ packet counts."""
        return self._occupancy

    def total_queued(self) -> int:
        return int(self._occupancy.sum())

    def has_space(self, i: int, j: int) -> bool:
        return len(self._queues[i][j]) < self.capacity

    def push(self, i: int, j: int, t_generated: int) -> None:
        """Enqueue into VOQ (i, j); caller must have checked space."""
        queue = self._queues[i][j]
        if len(queue) >= self.capacity:
            raise OverflowError(f"VOQ[{i}][{j}] is full (capacity {self.capacity})")
        queue.append(t_generated)
        self._occupancy[i, j] = len(queue)
        if len(queue) == 1:
            self.row_masks[i] |= 1 << j
            self.col_masks[j] |= 1 << i

    def pop(self, i: int, j: int) -> int:
        """Dequeue the head packet of VOQ (i, j); returns its timestamp."""
        queue = self._queues[i][j]
        t_generated = queue.popleft()
        self._occupancy[i, j] = len(queue)
        if not queue:
            self.row_masks[i] &= ~(1 << j)
            self.col_masks[j] &= ~(1 << i)
        return t_generated

    def pop_granted(self, grants: list[int]) -> list[int]:
        """Forwarding for one slot: pop the head of VOQ ``(i, grants[i])``
        for every granted input ``i`` (skipping ``NO_GRANT``); returns
        the popped timestamps in input order. Same effect as one
        :meth:`pop` per grant."""
        queues = self._queues
        occupancy = self._occupancy
        rows, cols = self.row_masks, self.col_masks
        stamps = []
        for i, j in enumerate(grants):
            if j == NO_GRANT:
                continue
            queue = queues[i][j]
            stamps.append(queue.popleft())
            occupancy[i, j] = len(queue)
            if not queue:
                rows[i] &= ~(1 << j)
                cols[j] &= ~(1 << i)
        return stamps

    def clear(self) -> None:
        """Empty every VOQ and reset the occupancy counters and request
        masks — back to the as-constructed state (for run-to-run switch
        reuse)."""
        for row in self._queues:
            for queue in row:
                queue.clear()
        self._occupancy[:] = 0
        # Mutate the mask containers in place: the crossbar's fast loop
        # holds direct references to them.
        self.row_masks[:] = [0] * self.n
        self.col_masks[:] = [0] * self.n

    def request_matrix(self) -> np.ndarray:
        """Boolean matrix of non-empty VOQs — what the scheduler sees."""
        return self._occupancy > 0

    def head_timestamps(self) -> np.ndarray:
        """Generation timestamps of the head packets (-1 where empty) —
        what an oldest-cell-first scheduler needs."""
        heads = np.full((self.n, self.n), -1, dtype=np.int64)
        for i in range(self.n):
            row = self._queues[i]
            for j in range(self.n):
                if row[j]:
                    heads[i, j] = row[j][0]
        return heads


def admit_arrivals(pqs: list[PacketQueue], voqs: VOQSet, arrivals, slot: int) -> int:
    """Generation and injection for one slot, one input at a time.

    ``arrivals[i]`` (a destination or ``NO_ARRIVAL``; a list of ints or
    an int array) enters PQ ``i`` stamped ``slot`` — a full PQ drops it
    and counts the drop — and then input ``i``'s link moves its PQ head
    into its VOQ unless that VOQ is full (the head then blocks the PQ).
    Returns the number of arrivals.

    Fusing the two stages per input is exact because generation and
    injection of input ``i`` touch only PQ ``i`` and VOQ row ``i``: the
    result equals every arrival's :meth:`PacketQueue.push` followed by
    every input's ``head`` / ``has_space`` / ``pop`` / :meth:`VOQSet.push`.
    An arrival at an empty PQ whose VOQ has room goes straight into the
    VOQ without touching the PQ.
    """
    if isinstance(arrivals, np.ndarray):
        arrivals = arrivals.tolist()
    queues = voqs._queues
    occupancy = voqs._occupancy
    rows, cols = voqs.row_masks, voqs.col_masks
    capacity = voqs.capacity
    arrived = 0
    for i, dst in enumerate(arrivals):
        pending = pqs[i]._queue
        if dst != NO_ARRIVAL:
            arrived += 1
            if not pending:
                queue = queues[i][dst]
                if len(queue) < capacity:
                    queue.append(slot)
                    occupancy[i, dst] = len(queue)
                    if len(queue) == 1:
                        rows[i] |= 1 << dst
                        cols[dst] |= 1 << i
                else:
                    pending.append((dst, slot))
                continue
            pq = pqs[i]
            if len(pending) < pq.capacity:
                pending.append((dst, slot))
            else:
                pq.dropped += 1
        elif not pending:
            continue
        dst, t_generated = pending[0]
        queue = queues[i][dst]
        if len(queue) < capacity:
            pending.popleft()
            queue.append(t_generated)
            occupancy[i, dst] = len(queue)
            if len(queue) == 1:
                rows[i] |= 1 << dst
                cols[dst] |= 1 << i
    return arrived


class OutputQueue:
    """Per-output FIFO of generation timestamps with finite capacity —
    the building block of the output-buffered reference switch."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._queue: deque[int] = deque()
        self.dropped = 0

    def __len__(self) -> int:
        return len(self._queue)

    def push(self, t_generated: int) -> bool:
        if len(self._queue) >= self.capacity:
            self.dropped += 1
            return False
        self._queue.append(t_generated)
        return True

    def pop(self) -> int | None:
        """Serve one packet (None if empty)."""
        return self._queue.popleft() if self._queue else None
