"""Bitmask primitives: packing, cyclic selection, k-th set bit — and
the 64-bit word layout of the columnar packer, which joins back into
the same Python-int masks at every width."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.columnar.bitpack import pack_requests, unpack_requests
from repro.fastpath.bitops import (
    WORD_BITS,
    derive_cols,
    next_at_or_after,
    pack_cols,
    pack_rows,
    select_kth_bit,
    unpack_rows,
    word_count,
    words_to_int,
)
from tests.conftest import request_matrices

#: The widths that matter for word-layout bugs: one bit below, exactly
#: at, one bit above the 64-bit word boundary, and two words.
BOUNDARY_WIDTHS = (63, 64, 65, 128)


def split_words(mask, n):
    """An ``n``-bit mask as its list of 64-bit words, low word first."""
    low = (1 << WORD_BITS) - 1
    return [(mask >> (w * WORD_BITS)) & low for w in range(word_count(n))]


def packed_words(matrix):
    """Per-row word lists of the columnar packer, as Python ints."""
    return [[int(w) for w in row] for row in pack_requests(matrix[None])[0]]


def naive_pack_rows(matrix):
    return [
        sum(1 << j for j in range(matrix.shape[1]) if matrix[i, j])
        for i in range(matrix.shape[0])
    ]


class TestPacking:
    @given(request_matrices(max_n=8))
    def test_pack_rows_matches_naive(self, matrix):
        assert pack_rows(matrix) == naive_pack_rows(matrix)

    @given(request_matrices(max_n=8))
    def test_pack_cols_is_pack_rows_of_transpose(self, matrix):
        assert pack_cols(matrix) == pack_rows(matrix.T)

    @given(request_matrices(max_n=8))
    def test_unpack_roundtrip(self, matrix):
        n = matrix.shape[0]
        assert (unpack_rows(pack_rows(matrix), n) == matrix).all()

    @given(request_matrices(max_n=8))
    def test_derive_cols_matches_direct_packing(self, matrix):
        n = matrix.shape[0]
        assert derive_cols(pack_rows(matrix), n) == pack_cols(matrix)

    @pytest.mark.parametrize("n", [63, 64, 65, 80, 100])
    def test_wide_matrices_use_same_layout(self, n):
        # n=65+ exercises the packbits fallback; n<=64 the uint64 dot.
        rng = np.random.default_rng(n)
        matrix = rng.random((n, n)) < 0.5
        assert pack_rows(matrix) == naive_pack_rows(matrix)
        assert pack_cols(matrix) == naive_pack_rows(matrix.T)
        assert (unpack_rows(pack_rows(matrix), n) == matrix).all()

    def test_accepts_int_matrices(self):
        matrix = np.array([[1, 0], [1, 1]])
        assert pack_rows(matrix) == [0b01, 0b11]
        assert pack_cols(matrix) == [0b11, 0b10]

    def test_lsb_is_column_zero(self):
        matrix = np.zeros((4, 4), dtype=bool)
        matrix[2, 0] = True
        assert pack_rows(matrix) == [0, 0, 1, 0]


class TestNextAtOrAfter:
    @given(
        st.integers(1, 20).flatmap(
            lambda n: st.tuples(
                st.just(n), st.integers(1, (1 << n) - 1), st.integers(0, n - 1)
            )
        )
    )
    def test_matches_naive_cyclic_scan(self, case):
        n, mask, start = case
        expected = next(
            (start + k) % n for k in range(n) if mask >> ((start + k) % n) & 1
        )
        assert next_at_or_after(mask, start, n) == expected

    def test_wraps_past_the_top_bit(self):
        assert next_at_or_after(0b0010, start=3, n=4) == 1

    def test_start_itself_wins_when_set(self):
        assert next_at_or_after(0b1010, start=1, n=4) == 1

    def test_empty_mask_raises(self):
        with pytest.raises(ValueError):
            next_at_or_after(0, start=0, n=4)


class TestMultiWord:
    @pytest.mark.parametrize("n", BOUNDARY_WIDTHS)
    def test_word_count_and_full_words(self, n):
        words = word_count(n)
        assert words == (n + WORD_BITS - 1) // WORD_BITS
        full = split_words((1 << n) - 1, n)
        assert len(full) == words
        assert words_to_int(full) == (1 << n) - 1

    @given(st.integers(1, 200).flatmap(lambda n: st.tuples(st.just(n), st.integers(0, (1 << n) - 1))))
    def test_int_words_roundtrip(self, case):
        n, mask = case
        words = split_words(mask, n)
        assert len(words) == word_count(n)
        assert all(0 <= w < (1 << WORD_BITS) for w in words)
        assert words_to_int(words) == mask

    @pytest.mark.parametrize("n", BOUNDARY_WIDTHS)
    def test_packing_words_matches_single_word_layout(self, n):
        # The columnar packer's words join into exactly the serial masks.
        rng = np.random.default_rng(n)
        matrix = rng.random((n, n)) < 0.5
        rows = packed_words(matrix)
        assert [words_to_int(r) for r in rows] == pack_rows(matrix)
        assert [words_to_int(c) for c in packed_words(matrix.T)] == pack_cols(matrix)
        assert (unpack_requests(pack_requests(matrix[None]), n)[0] == matrix).all()

    @pytest.mark.parametrize("n", BOUNDARY_WIDTHS)
    def test_bit_j_lives_at_expected_word_and_offset(self, n):
        # One-hot matrices pin the LSB-first within/across-words layout.
        for j in sorted({0, WORD_BITS - 1, WORD_BITS, n - 1} & set(range(n))):
            matrix = np.zeros((n, n), dtype=bool)
            matrix[1, j] = True
            rows = packed_words(matrix)
            assert rows[1][j >> 6] == 1 << (j & 63)
            assert sum(sum(r) for r in rows) == 1 << (j & 63)
            assert pack_rows(matrix)[1] == 1 << j


class TestSelectKthBit:
    @given(st.integers(1, (1 << 20) - 1), st.data())
    def test_matches_flatnonzero_indexing(self, mask, data):
        indices = [j for j in range(20) if mask >> j & 1]
        k = data.draw(st.integers(0, len(indices) - 1))
        assert select_kth_bit(mask, k) == indices[k]

    def test_k_out_of_range_raises(self):
        with pytest.raises(IndexError):
            select_kth_bit(0b101, 2)
