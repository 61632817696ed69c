"""The paper's doubling records as plain integers: the tests' oracle.

A K-bit record is the integer ``word`` in ``[0, 2^K)``.  Bit k is the
direction of the k-th doubling (1 = right, 0 = left), the record generates
the index interval ``(word - 2^K + 1, word)``, so ``T_plus = word`` and
``T_minus = 2^K - 1 - word``, and its first k doublings are the record
``word & (2^k - 1)``.  The empty record (K = 0) generates ``(0, 0)``, the
anchor alone.
"""

import math

from dynhmc.orbit import OrbitCache, no_uturns


def record_interval(word: int, k: int) -> tuple[int, int]:
    """The index interval ``(lo, hi)`` of the K-bit record ``word``."""
    return word - (1 << k) + 1, word


def stopping_time(word: int, k_len: int, cache: OrbitCache) -> float:
    """The stopping time ``S(v)`` of the ``k_len``-bit record ``word``: the
    first stage ``k`` whose prefix record lies in the U-turn set, else inf."""
    for k in range(1, k_len + 1):
        if not no_uturns(*record_interval(word & ((1 << k) - 1), k), cache):
            return k
    return math.inf


def brute_force_pairs(k_len: int, lo: int) -> list[tuple[int, int]]:
    """Independent enumeration of the stage-K U-turn pair set of the
    ``k_len``-bit record whose interval starts at ``lo``."""
    pairs = []
    for k in range(1, k_len):
        size = 2**k
        for block in range(2 ** (k_len - k)):
            pairs.append((lo + block * size, lo + (block + 1) * size - 1))
    return pairs
