"""Shared numpy entry point for the bitset kernels.

The reference :meth:`repro.core.base.Scheduler.schedule` copies the
request matrix before handing it to ``_schedule`` because reference
kernels mutate their working copy. Bitset kernels never mutate the
caller's data — they pack it into immutable Python ints — so the mixin
overrides the public entry point to validate, pack and dispatch without
the defensive copy. Semantics are unchanged: the caller's matrix is
left untouched either way.

There is one request layout at every width: :func:`pack_rows` /
:func:`pack_cols` yield one Python int per row/column (a wide int
beyond 64 ports) and ``schedule_masks`` runs on those.
"""

from __future__ import annotations

import numpy as np

from repro.fastpath.bitops import pack_cols, pack_rows
from repro.types import RequestMatrix, Schedule, as_request_matrix


class BitmaskKernelMixin:
    """Mixin for schedulers whose core is ``schedule_masks(rows, cols)``
    over per-row/per-column Python-int bitmasks."""

    def schedule(self, requests: RequestMatrix) -> Schedule:
        """Compute a conflict-free schedule for one time slot.

        Same contract as :meth:`repro.core.base.Scheduler.schedule`;
        the input matrix is only read, never mutated.
        """
        matrix = as_request_matrix(requests)
        if matrix.shape[0] != self.n:
            raise ValueError(
                f"{self.name} is configured for n={self.n}, got a "
                f"{matrix.shape[0]}-port request matrix"
            )
        grants = self.schedule_masks(pack_rows(matrix), pack_cols(matrix))
        return np.array(grants, dtype=np.int64)

    def _schedule(self, requests: RequestMatrix) -> Schedule:
        # Reached only if someone bypasses the public entry point.
        return self.schedule(requests)
