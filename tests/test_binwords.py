import pytest
from hypothesis import given, strategies as st

from dynhmc.binwords import (
    BinWord,
    IndexInterval,
    interval,
    low_trunc,
    t_minus,
)


def word(k, value):
    return BinWord(k, value)


words = st.integers(min_value=1, max_value=12).flatmap(
    lambda k: st.integers(min_value=0, max_value=(1 << k) - 1).map(lambda v: BinWord(k, v))
)


class TestTruncations:
    def test_low(self):
        assert low_trunc(word(4, 0b1101), 2) == word(2, 0b01)

    def test_low_full_and_empty(self):
        a = word(5, 0b10110)
        assert low_trunc(a, 5) == a
        assert low_trunc(a, 0) == word(0, 0)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            low_trunc(word(2, 1), 3)


class TestInterval:
    def test_examples(self):
        assert interval(word(2, 0b01)) == IndexInterval(-2, 1)
        assert interval(word(3, 0b111)) == IndexInterval(0, 7)
        assert interval(word(3, 0)) == IndexInterval(-7, 0)

    @given(words)
    def test_matches_shifted_base_range(self, v):
        # elementwise equality with [0, 2^K - 1] shifted left by 2^K - 1 - v
        iv = interval(v)
        shift = (1 << v.k) - 1 - v.value
        assert list(iv) == [a - shift for a in range(1 << v.k)]
        assert iv.hi == v.value
        assert -iv.lo == t_minus(v)

    @given(words, st.data())
    def test_nesting(self, v, data):
        k = data.draw(st.integers(min_value=1, max_value=v.k - 1)) if v.k > 1 else None
        if k is None:
            return
        small = interval(low_trunc(v, k))
        big = interval(low_trunc(v, k + 1))
        assert big.lo <= small.lo and small.hi <= big.hi
        assert len(big) == 2 * len(small)
        if (v.value >> k) & 1:  # doubling to the right
            assert big.lo == small.lo and big.hi == small.hi + len(small)
        else:
            assert big.hi == small.hi and big.lo == small.lo - len(small)

    @given(words)
    def test_iota_round_trip(self, v):
        iv = interval(v)
        leaves = [iv.iota(j) for j in iv]
        assert leaves == list(range(len(iv)))  # order-preserving onto [0, 2^K-1]
        for j in iv:
            assert iv.iota_inv(iv.iota(j)) == j

    def test_invalid(self):
        with pytest.raises(ValueError):
            IndexInterval(1, 2)  # must contain 0
        with pytest.raises(ValueError):
            IndexInterval(-1, 1)  # length 3 not a power of two


class TestBinWordValidation:
    def test_value_range(self):
        with pytest.raises(ValueError):
            BinWord(2, 4)
        with pytest.raises(ValueError):
            BinWord(2, -1)

    def test_bits(self):
        # bit i (least significant first) is the direction of doubling i:
        # 0b110 doubles left, then right twice
        a = word(3, 0b110)
        ivs = [interval(low_trunc(a, n)) for n in (1, 2, 3)]
        assert ivs == [IndexInterval(-1, 0), IndexInterval(-1, 2), IndexInterval(-1, 6)]
