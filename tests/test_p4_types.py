"""Unit tests for repro.p4.types."""

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import P4SemanticsError
from repro.p4 import types


class TestMask:
    def test_small_widths(self):
        assert types.mask(1) == 1
        assert types.mask(8) == 0xFF
        assert types.mask(16) == 0xFFFF
        assert types.mask(32) == 0xFFFFFFFF

    def test_odd_width(self):
        assert types.mask(13) == 0x1FFF

    def test_zero_width_rejected(self):
        with pytest.raises(P4SemanticsError):
            types.mask(0)

    def test_negative_width_rejected(self):
        with pytest.raises(P4SemanticsError):
            types.mask(-4)


class TestTruncate:
    def test_in_range_unchanged(self):
        assert types.truncate(200, 8) == 200

    def test_overflow_wraps(self):
        assert types.truncate(256, 8) == 0
        assert types.truncate(257, 8) == 1

    def test_negative_wraps_twos_complement(self):
        assert types.truncate(-1, 8) == 255

    @given(st.integers(min_value=0), st.integers(min_value=1, max_value=64))
    def test_result_always_fits(self, value, width):
        assert 0 <= types.truncate(value, width) <= types.mask(width)


class TestWrapArithmetic:
    def test_add_no_wrap(self):
        assert types.wrap_add(100, 50, 8) == 150

    def test_add_wraps(self):
        assert types.wrap_add(255, 1, 8) == 0

    def test_sub_no_wrap(self):
        assert types.wrap_sub(100, 50, 8) == 50

    def test_sub_wraps_below_zero(self):
        assert types.wrap_sub(0, 1, 8) == 255

    @given(
        st.integers(min_value=0, max_value=0xFFFF),
        st.integers(min_value=0, max_value=0xFFFF),
    )
    def test_add_sub_inverse(self, a, b):
        assert types.wrap_sub(types.wrap_add(a, b, 16), b, 16) == a


class TestBytesForBits:
    def test_exact_bytes(self):
        assert types.bytes_for_bits(8) == 1
        assert types.bytes_for_bits(32) == 4

    def test_rounds_up(self):
        assert types.bytes_for_bits(1) == 1
        assert types.bytes_for_bits(9) == 2
        assert types.bytes_for_bits(13) == 2

    def test_zero(self):
        assert types.bytes_for_bits(0) == 0

    def test_negative_rejected(self):
        with pytest.raises(P4SemanticsError):
            types.bytes_for_bits(-1)


def test_reserved_ports_distinct():
    assert types.DROP_PORT != types.CPU_PORT
