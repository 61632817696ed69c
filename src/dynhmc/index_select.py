"""The index-selection kernel on a doubled orbit.

Once the doubling loop has produced an interval of 2^K leapfrog indices, the
next state is chosen by biased progressive sampling: at each doubling stage a
candidate is drawn from the new half proportionally to the state weights
``exp(-H)``, and replaces the running choice with probability
``min(1, w(new half) / w(old interval))``.

After mapping the interval onto leaf labels ``0 .. 2^K - 1`` (origin at leaf
``a``), the law of the final leaf has a closed form built from two
ingredients, both computed here on a :class:`WeightTree` of subtree
log-weights:

* the rejection product ``Pi(a, t)``, the probability that the first ``t``
  top-down swap proposals at leaf ``a`` are all rejected, and
* the transition row ``qhat(a, .)``: leaf ``b`` in the subtree first split
  off at depth ``n`` receives ``Pi(a, n) * min(1, w_sib/w_own) * w_b /
  w_sib``, and ``b = a`` receives ``Pi(a, K)``.

Everything runs on unnormalized log-weights; ratios make normalization
immaterial.  Ratios ``0/0`` (both subtrees entirely diverged) are defined as
0, i.e. the walk stays, which conservatively preserves stationarity on the
finite-weight states.
"""

from __future__ import annotations

import math

import numpy as np

from .binwords import IndexInterval
from .orbit import OrbitCache

NEG_INF = -math.inf


def accept_log_ratio(log_new: float, log_old: float) -> float:
    """``log min(1, exp(log_new - log_old))`` with the 0/0 ratio defined as 0."""
    if log_new == NEG_INF:
        return NEG_INF  # covers 0/0 as well: stay
    if log_old == NEG_INF:
        return 0.0
    return min(0.0, log_new - log_old)


def multinomial_pick(log_weights: np.ndarray, u: float, total: float | None = None) -> int:
    """Inverse-CDF pick over ascending indices from unnormalized log-weights.

    ``total`` is their :func:`logsumexp`, when the caller already has it.
    """
    if total is None:
        total = logsumexp(log_weights)
    if total == NEG_INF:
        return 0
    cum = np.exp(log_weights - total).cumsum()
    return min(int(cum.searchsorted(u, side="right")), len(log_weights) - 1)


_LOG2 = math.log(2.0)


def logaddexp(x: float, y: float) -> float:
    """``np.logaddexp(x, y)`` on two Python floats, bit for bit.

    numpy's own scalar formula (``npy_logaddexp``) with the same libm ``exp``
    and ``log1p``, without the ufunc's dispatch: equal arguments (infinities
    of one sign included) give ``x + log 2``, and a nan propagates as
    ``x - y``.  A difference that overflows is not warned about.
    """
    if x == y:
        return x + _LOG2
    tmp = x - y
    if tmp > 0:
        return x + math.log1p(math.exp(-tmp))
    if tmp <= 0:
        return y + math.log1p(math.exp(tmp))
    return tmp


def logsumexp(arr: np.ndarray) -> float:
    m = float(arr.max())
    if m == NEG_INF:
        return NEG_INF
    return m + math.log(float(np.exp(arr - m).sum()))


class WeightTree:
    """Complete binary tree of subtree log-weights over 2^K leaves.

    ``level(n)`` holds, for each of the 2^n depth-n nodes, the log-sum of the
    leaf weights below it; ``level(0)`` is the total and ``level(K)`` the
    leaves themselves.  Node ``u`` at level ``n`` covers leaves
    ``[u * 2^(K-n), (u+1) * 2^(K-n))``.  Immutable after construction.
    """

    def __init__(self, leaf_logw: np.ndarray):
        leaf_logw = np.asarray(leaf_logw, dtype=float)
        n = leaf_logw.size
        if n < 1 or n & (n - 1):
            raise ValueError(f"number of leaves {n} is not a power of two")
        self.k = n.bit_length() - 1
        levels = [leaf_logw]
        while levels[-1].size > 1:
            prev = levels[-1]
            levels.append(np.logaddexp(prev[0::2], prev[1::2]))
        self._levels = levels[::-1]  # _levels[n] has 2^n entries

    @classmethod
    def from_orbit(cls, cache: OrbitCache, iv: IndexInterval) -> "WeightTree":
        """Leaves are the orbit log-weights, leaf ``a`` = orbit index ``iv.lo + a``."""
        return cls(cache.logw_range(iv.lo, iv.hi))

    def level(self, n: int) -> np.ndarray:
        return self._levels[n]

    @property
    def leaves(self) -> np.ndarray:
        return self._levels[self.k]

    def _own_sib(self, a: int, i: int) -> tuple[float, float]:
        """Log-weights at level i+1 of a's subtree and its sibling."""
        own = a >> (self.k - 1 - i)
        lvl = self._levels[i + 1]
        return float(lvl[own]), float(lvl[own ^ 1])

    def rejection_product(self, a: int, t: int) -> float:
        """``Pi(a, t)``: probability the first t swap proposals are rejected.

        Depends only on the t most-significant bits of ``a`` (prefix
        invariance), which holds by construction here.
        """
        if not 0 <= t <= self.k:
            raise ValueError(f"t = {t} outside [0, {self.k}]")
        out = 1.0
        for i in range(t):
            log_own, log_sib = self._own_sib(a, i)
            # 1 - exp(r) via expm1: exact for r near 0 and for r = -inf
            out *= -math.expm1(accept_log_ratio(log_sib, log_own))
        return out

    def qhat_row_log(self, a: int) -> np.ndarray:
        """Log-probabilities ``log qhat(a, b)`` for all leaves ``b``."""
        k = self.k
        row = np.full(1 << k, NEG_INF)
        log_pi = 0.0  # log Pi(a, n), updated level by level
        for n in range(k):
            log_own, log_sib = self._own_sib(a, n)
            log_r = accept_log_ratio(log_sib, log_own)
            if log_r > NEG_INF and log_pi > NEG_INF:
                shift = k - 1 - n
                base = ((a >> shift) ^ 1) << shift
                block = self.leaves[base : base + (1 << shift)]
                row[base : base + (1 << shift)] = log_pi + log_r + (block - log_sib)
            # Pi(a, n+1) = Pi(a, n) * (1 - R_n), with 1 - exp stabilized
            if log_r == 0.0:
                log_pi = NEG_INF
            elif log_r > NEG_INF:
                log_pi += math.log(-math.expm1(log_r))
        row[a] = log_pi
        return row

    def qhat_row(self, a: int) -> np.ndarray:
        """Probabilities ``qhat(a, b)`` for all leaves ``b``."""
        return np.exp(self.qhat_row_log(a))

    def qhat_matrix(self) -> np.ndarray:
        return np.vstack([np.exp(self.qhat_row_log(a)) for a in range(1 << self.k)])


def q_h(j: int, iv: IndexInterval, cache: OrbitCache) -> float:
    """Probability that progressive selection on ``iv`` lands on orbit index ``j``."""
    if 0 not in iv:
        raise ValueError("interval must contain the origin")
    if j not in iv:
        raise ValueError(f"index {j} outside interval [{iv.lo}, {iv.hi}]")
    tree = WeightTree.from_orbit(cache, iv)
    row = tree.qhat_row_log(iv.iota(0))
    return float(math.exp(row[iv.iota(j)]))
