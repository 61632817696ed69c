from hypothesis import given, strategies as st

from doubling import record_interval

# (word, K): a K-bit doubling record
records = st.integers(min_value=1, max_value=12).flatmap(
    lambda k: st.integers(min_value=0, max_value=(1 << k) - 1).map(lambda v: (v, k))
)


def t_minus(word, k):
    """Number of left extensions encoded by the record: ``sum_i (1 - v_i) 2^i``."""
    return sum((1 - (word >> i & 1)) << i for i in range(k))


class TestTruncations:
    def test_low(self):
        # the first two doublings of 0b1101: right, then left
        assert 0b1101 & ((1 << 2) - 1) == 0b01
        assert record_interval(0b01, 2) == (-2, 1)

    def test_low_full_and_empty(self):
        a = 0b10110
        assert a & ((1 << 5) - 1) == a
        assert a & ((1 << 0) - 1) == 0
        assert record_interval(0, 0) == (0, 0)  # no doubling: the anchor alone


class TestInterval:
    def test_examples(self):
        assert record_interval(0b01, 2) == (-2, 1)
        assert record_interval(0b111, 3) == (0, 7)
        assert record_interval(0, 3) == (-7, 0)

    @given(records)
    def test_matches_shifted_base_range(self, rec):
        # elementwise equality with [0, 2^K - 1] shifted left by 2^K - 1 - v
        word, k = rec
        lo, hi = record_interval(word, k)
        shift = (1 << k) - 1 - word
        assert list(range(lo, hi + 1)) == [a - shift for a in range(1 << k)]
        assert hi - lo + 1 == 1 << k
        assert hi == word
        assert -lo == t_minus(word, k)

    @given(records, st.data())
    def test_nesting(self, rec, data):
        word, big_k = rec
        if big_k < 2:
            return
        k = data.draw(st.integers(min_value=1, max_value=big_k - 1))
        s_lo, s_hi = record_interval(word & ((1 << k) - 1), k)
        b_lo, b_hi = record_interval(word & ((1 << (k + 1)) - 1), k + 1)
        n = s_hi - s_lo + 1
        assert b_lo <= s_lo and s_hi <= b_hi
        assert b_hi - b_lo + 1 == 2 * n
        if (word >> k) & 1:  # doubling to the right
            assert b_lo == s_lo and b_hi == s_hi + n
        else:
            assert b_hi == s_hi and b_lo == s_lo - n

    def test_bits(self):
        # bit i (least significant first) is the direction of doubling i:
        # 0b110 doubles left, then right twice
        a = 0b110
        ivs = [record_interval(a & ((1 << n) - 1), n) for n in (1, 2, 3)]
        assert ivs == [(-1, 0), (-1, 2), (-1, 6)]
