"""Unit and property tests for the torrent/piece bookkeeping."""

from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bt.torrent import (
    PieceBook,
    Torrent,
    full_book,
    mask_bits,
    mask_to_set,
    partial_book,
    set_to_mask,
)


def book(n=8):
    return PieceBook(Torrent(n_pieces=n))


class TestTorrent:
    def test_sizes(self):
        t = Torrent(n_pieces=512, piece_size_kb=256.0)
        assert t.size_kb == 512 * 256
        assert t.size_mb == 128.0

    def test_all_pieces(self):
        assert Torrent(3).all_pieces() == frozenset({0, 1, 2})

    def test_invalid_rejected(self):
        with pytest.raises(ValueError):
            Torrent(0)
        with pytest.raises(ValueError):
            Torrent(4, piece_size_kb=0)


def low_bit_loop(mask):
    """``mask_bits`` as it was before the byte table: clear the lowest
    set bit until none is left."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


class TestMaskBits:
    def test_empty_and_single_bits(self):
        assert mask_bits(0) == []
        for bit in (0, 7, 8, 47, 63, 64, 2047):
            assert mask_bits(1 << bit) == [bit]

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=4096).flatmap(
        lambda width: st.integers(min_value=0,
                                  max_value=(1 << width) - 1)))
    def test_equals_the_low_bit_loop(self, mask):
        bits = mask_bits(mask)
        assert bits == low_bit_loop(mask)
        assert set_to_mask(bits) == mask
        assert mask_to_set(mask) == set(bits)

    @pytest.mark.parametrize("width", [1, 8, 9, 48, 512, 2048, 4096])
    def test_full_masks_at_byte_boundaries(self, width):
        assert mask_bits((1 << width) - 1) == list(range(width))


class TestPieceBook:
    def test_fresh_book_wants_everything(self):
        b = book(4)
        assert b.wanted() == {0, 1, 2, 3}
        assert b.completed_count == 0
        assert not b.is_complete

    def test_complete_moves_out_of_wanted_and_missing(self):
        b = book(4)
        assert b.add_completed(1)
        assert b.has(1)
        assert 1 not in b.wanted()
        assert 1 not in b.missing()

    def test_double_complete_returns_false(self):
        b = book(4)
        b.add_completed(1)
        assert not b.add_completed(1)

    def test_expected_excluded_from_wanted_not_missing(self):
        b = book(4)
        b.expect(2)
        assert 2 not in b.wanted()
        assert 2 in b.missing()
        assert b.is_expected(2)

    def test_unexpect_restores_wanted(self):
        b = book(4)
        b.expect(2)
        b.unexpect(2)
        assert 2 in b.wanted()

    def test_completing_expected_piece_clears_expectation(self):
        b = book(4)
        b.expect(2)
        b.add_completed(2)
        assert not b.is_expected(2)
        assert b.has(2)

    def test_expect_completed_piece_is_noop(self):
        b = book(4)
        b.add_completed(2)
        b.expect(2)
        assert not b.is_expected(2)

    def test_unexpect_completed_piece_does_not_resurrect_want(self):
        b = book(4)
        b.add_completed(2)
        b.unexpect(2)
        assert 2 not in b.wanted()

    def test_is_complete(self):
        b = book(2)
        b.add_completed(0)
        b.add_completed(1)
        assert b.is_complete

    def test_needs_from(self):
        b = book(4)
        b.add_completed(0)
        b.expect(1)
        assert b.needs_from({0, 1, 2}) == {2}

    def test_out_of_range_rejected(self):
        b = book(4)
        with pytest.raises(IndexError):
            b.add_completed(4)
        with pytest.raises(IndexError):
            b.expect(-1)

    def test_full_book(self):
        b = full_book(Torrent(5))
        assert b.is_complete
        assert b.wanted() == set()

    def test_partial_book_fraction(self):
        rng = Random(1)
        b = partial_book(Torrent(100), 0.25, rng)
        assert b.completed_count == 25

    def test_partial_book_bad_fraction(self):
        with pytest.raises(ValueError):
            partial_book(Torrent(10), 1.5, Random(1))


@st.composite
def operations(draw):
    n = draw(st.integers(min_value=1, max_value=12))
    ops = draw(st.lists(st.tuples(
        st.sampled_from(["complete", "expect", "unexpect"]),
        st.integers(min_value=0, max_value=n - 1)), max_size=60))
    return n, ops


class TestPieceBookInvariants:
    """The incremental wanted/missing sets must always equal their
    from-scratch definitions — the invariant the fast path relies on."""

    @given(operations())
    @settings(max_examples=120, deadline=None)
    def test_derived_sets_consistent(self, case):
        n, ops = case
        b = PieceBook(Torrent(n))
        for op, piece in ops:
            if op == "complete":
                b.add_completed(piece)
            elif op == "expect":
                b.expect(piece)
            else:
                b.unexpect(piece)
            everything = set(range(n))
            expected = {p for p in everything if b.is_expected(p)}
            assert b.missing() == everything - b.completed
            assert b.wanted() == everything - b.completed - expected
            # disjointness
            assert not (b.completed & expected)
            assert b.completed_count == len(b.completed)
