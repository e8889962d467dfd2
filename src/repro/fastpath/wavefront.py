"""Bitset kernel for the wrapped wave front arbiter.

:class:`repro.baselines.wavefront.WrappedWaveFront` sweeps the ``n``
wrapped diagonals one after another, each a numpy gather over all
rows. Cell ``(i, j)`` lies on diagonal ``(i + j) mod n``, which sweeps
as wave ``(i + j - offset) mod n``; rotating row ``i``'s request mask
right by ``(offset - i) mod n`` therefore puts its wave ``w`` request at
bit ``w``, so wavefront order becomes bit order.

The kernel keeps one bucket (a row bitmask) per wave, holding the rows
whose lowest still-live request falls on that wave, and walks the
waves in order. A row in the current bucket is granted if its column
is still free; otherwise an earlier wave took the column and the row
moves to its next live wave. Cells on one diagonal have distinct rows
and columns, so the rows of a bucket never conflict with each other —
the grants are exactly the reference's, and each row is looked at
once per grant or lost column instead of once per wave.
"""

from __future__ import annotations

from repro.baselines.wavefront import WrappedWaveFront
from repro.fastpath.kernel import BitmaskKernelMixin
from repro.types import NO_GRANT


class FastWrappedWaveFront(BitmaskKernelMixin, WrappedWaveFront):
    """Bitset twin of :class:`repro.baselines.wavefront.WrappedWaveFront`."""

    def schedule_masks(
        self, rows: list[int], cols: list[int] | None = None
    ) -> list[int]:
        """One scheduling cycle over request bitmasks (see
        :meth:`repro.fastpath.lcf.FastLCFCentralVariant.schedule_masks`
        for the mask convention; neither list is mutated, and ``cols``
        is not needed)."""
        n = self.n
        full = (1 << n) - 1
        offset = self._offset
        schedule = [NO_GRANT] * n
        buckets = [0] * n  # per wave: rows whose next live request it is
        for i, mask in enumerate(rows):
            if mask:
                shift = (offset - i) % n
                skewed = (mask >> shift | mask << (n - shift)) & full
                buckets[(skewed & -skewed).bit_length() - 1] |= 1 << i

        col_free = full
        for wave in range(n):
            members = buckets[wave]
            diagonal = offset + wave
            while members:
                bit = members & -members
                members ^= bit
                i = bit.bit_length() - 1
                j = (diagonal - i) % n
                if col_free >> j & 1:
                    schedule[i] = j
                    col_free ^= 1 << j
                    continue
                # An earlier wave took this column: move the row to its
                # lowest request above this wave on a still-free column.
                live = rows[i] & col_free
                shift = (offset - i) % n
                later = ((live >> shift | live << (n - shift)) & full) >> (wave + 1)
                if later:
                    buckets[wave + (later & -later).bit_length()] |= bit

        self._offset = (offset + 1) % n
        return schedule
