"""Binary words and the signed index intervals they generate.

A length-K word ``v = v_{K-1} ... v_0`` is identified with the integer
``sum_k v_k 2^k``.  Bit ``v_k`` records the direction of the k-th doubling of
a trajectory (0 = left, 1 = right), and the word determines the contiguous
index interval

    {-T_minus, ..., T_plus},   T_plus = v,   T_minus = 2^K - 1 - v,

reached after K doublings.  Words are stored as (length, integer) pairs, so
all operations here are exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

MAX_BITS = 62


@dataclass(frozen=True)
class BinWord:
    """A binary word of length ``k`` with ``value`` in ``[0, 2^k - 1]``."""

    k: int
    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.k <= MAX_BITS:
            raise ValueError(f"word length {self.k} outside [0, {MAX_BITS}]")
        if not 0 <= self.value < (1 << self.k):
            raise ValueError(f"value {self.value} does not fit in {self.k} bits")


@dataclass(frozen=True)
class IndexInterval:
    """Contiguous integer range ``{lo, ..., hi}`` with ``lo <= 0 <= hi``."""

    lo: int
    hi: int

    def __post_init__(self) -> None:
        if not self.lo <= 0 <= self.hi:
            raise ValueError(f"interval [{self.lo}, {self.hi}] must contain 0")
        n = self.hi - self.lo + 1
        if n & (n - 1):
            raise ValueError(f"interval length {n} is not a power of two")

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def __contains__(self, j: int) -> bool:
        return self.lo <= j <= self.hi

    def __iter__(self):
        return iter(range(self.lo, self.hi + 1))

    def iota(self, j: int) -> int:
        """Order-preserving bijection onto ``[0, 2^K - 1]``: ``j + T_minus``."""
        if j not in self:
            raise ValueError(f"{j} outside interval [{self.lo}, {self.hi}]")
        return j - self.lo

    def iota_inv(self, leaf: int) -> int:
        """Inverse of :meth:`iota`: leaf index back to the orbit index."""
        if not 0 <= leaf < len(self):
            raise ValueError(f"leaf {leaf} outside [0, {len(self) - 1}]")
        return leaf + self.lo


def low_trunc(a: BinWord, n: int) -> BinWord:
    """The ``n`` least-significant bits ``a_{n-1} ... a_0`` (first doublings)."""
    if not 0 <= n <= a.k:
        raise ValueError(f"cannot take {n} low bits of a {a.k}-bit word")
    return BinWord(n, a.value & ((1 << n) - 1))


def t_minus(v: BinWord) -> int:
    """Number of left extensions encoded by ``v``: ``sum_k (1 - v_k) 2^k``."""
    return ((1 << v.k) - 1) - v.value


def interval(v: BinWord) -> IndexInterval:
    """The index interval ``{-T_minus, ..., T_plus}`` generated by ``v``."""
    if v.k < 1:
        raise ValueError("interval requires a word of length >= 1")
    return IndexInterval(-t_minus(v), v.value)
