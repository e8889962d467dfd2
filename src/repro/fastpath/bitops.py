"""Bitmask primitives for the fastpath kernels.

Layout convention: a request matrix row is packed LSB-first, so input
``i``'s mask has bit ``j`` set iff ``R[i, j]`` is True — ``mask >> j & 1``
reads one crosspoint. Every switch width uses this one layout: a row is
a single Python int, one machine word up to 64 ports and an
arbitrary-precision int beyond. A 128-port row is a small bignum, so
every AND/OR/popcount/rotation a kernel applies to it is still one
C-level call; splitting rows into 64-bit word tuples turns each of
those into a Python-level loop, and measured slower wherever it was
tried (see ``docs/PERFORMANCE.md``).

The helpers here are deliberately tiny: the kernels inline the
bit-extraction loops (``m & -m`` / ``bit_length``) on their hot paths
and only call into this module off the hot path (packing, tests,
trace reconstruction). :data:`WORD_BITS` and :func:`word_count`
describe the ``uint64`` word layout of the columnar packer
(:mod:`repro.columnar.bitpack`).
"""

from __future__ import annotations

import numpy as np

#: Bits per ``uint64`` word of the columnar packed layout.
WORD_BITS = 64

# One power of two per column; a boolean row dotted with this vector IS
# the row's bitmask, and uint64 wraparound is unreachable for n <= 64.
_POW2 = 1 << np.arange(64, dtype=np.uint64)


def pack_rows(matrix: np.ndarray) -> list[int]:
    """Per-input bitmasks of a boolean request matrix (LSB = output 0)."""
    n = matrix.shape[1]
    if n <= 64:
        # Hot path: one integer dot product packs every row at once.
        return np.ascontiguousarray(matrix, np.uint64).dot(_POW2[:n]).tolist()
    arr = np.ascontiguousarray(matrix, dtype=np.uint8)
    packed = np.packbits(arr, axis=1, bitorder="little")
    width = packed.shape[1]
    data = packed.tobytes()
    return [
        int.from_bytes(data[i * width : (i + 1) * width], "little")
        for i in range(arr.shape[0])
    ]


def pack_cols(matrix: np.ndarray) -> list[int]:
    """Per-output bitmasks (LSB = input 0) — ``pack_rows`` of the transpose."""
    n = matrix.shape[0]
    if n <= 64:
        return _POW2[:n].dot(np.ascontiguousarray(matrix, np.uint64)).tolist()
    return pack_rows(np.ascontiguousarray(matrix).T)


def unpack_rows(rows: list[int], n: int) -> np.ndarray:
    """Inverse of :func:`pack_rows`: bitmasks back to a boolean matrix."""
    matrix = np.zeros((len(rows), n), dtype=bool)
    for i, mask in enumerate(rows):
        while mask:
            bit = mask & -mask
            matrix[i, bit.bit_length() - 1] = True
            mask ^= bit
    return matrix


def derive_cols(rows: list[int], n: int) -> list[int]:
    """Column masks from row masks — the bit-transpose fallback used
    when a caller has only the per-input view."""
    cols = [0] * n
    for i, mask in enumerate(rows):
        bit = 1 << i
        while mask:
            low = mask & -mask
            cols[low.bit_length() - 1] |= bit
            mask ^= low
    return cols


def next_at_or_after(mask: int, start: int, n: int) -> int:
    """First set bit of ``mask`` in cyclic order from ``start``.

    The bitset form of the round-robin pointer walk (iSLIP's grant and
    accept selection): rotate the mask so ``start`` lands on bit 0, take
    the lowest set bit, rotate back. ``mask`` must be non-zero.
    """
    if not mask:
        raise ValueError("no candidate set")
    rotated = (mask >> start) | ((mask << (n - start)) & ((1 << n) - 1))
    index = start + ((rotated & -rotated).bit_length() - 1)
    return index - n if index >= n else index


def select_kth_bit(mask: int, k: int) -> int:
    """Index of the ``k``-th set bit of ``mask`` in ascending order.

    This is how the fast PIM kernel realises ``rng.choice(flatnonzero)``
    without materialising the index array: draw ``k`` uniformly over the
    popcount, then walk to the ``k``-th requester.
    """
    for _ in range(k):
        mask &= mask - 1
    if not mask:
        raise IndexError("k out of range for mask")
    return (mask & -mask).bit_length() - 1


# -- word layout of the columnar packer -------------------------------


def word_count(n: int) -> int:
    """:data:`WORD_BITS`-bit words needed for an ``n``-bit mask."""
    return (n + WORD_BITS - 1) >> 6


# Kept only because perfbench/tracing.py wraps it by name; no kernel calls it.
def words_to_int(words: list[int]) -> int:
    """Join a word tuple back into one Python-int mask."""
    mask = 0
    for w, word in enumerate(words):
        mask |= word << (w << 6)
    return mask
