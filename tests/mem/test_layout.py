"""Unit and property tests for address arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import AlignmentError, ConfigError
from repro.mem.layout import LineGeometry


@pytest.fixture
def geom():
    return LineGeometry(64)


class TestBasics:
    def test_words_per_line(self, geom):
        assert geom.words_per_line == 16

    def test_line_addr(self, geom):
        assert geom.line_addr(0) == 0
        assert geom.line_addr(63) == 0
        assert geom.line_addr(64) == 64
        assert geom.line_addr(130) == 128

    def test_alignment_check(self, geom):
        geom.check_word_aligned(8)
        with pytest.raises(AlignmentError):
            geom.check_word_aligned(9)
        with pytest.raises(AlignmentError):
            geom.check_word_aligned(-4)

    def test_pow2_required(self):
        with pytest.raises(ConfigError):
            LineGeometry(48)


class TestProperties:
    @given(st.integers(0, 1 << 20))
    def test_line_addr_idempotent(self, addr):
        geom = LineGeometry(64)
        assert geom.line_addr(geom.line_addr(addr)) == geom.line_addr(addr)
