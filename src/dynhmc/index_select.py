"""The index-selection kernel on a doubled orbit.

Once the doubling loop has produced an interval of 2^K leapfrog indices, the
next state is chosen by biased progressive sampling: at each doubling stage a
candidate is drawn from the new half proportionally to the state weights
``exp(-H)``, and replaces the running choice with probability
``min(1, w(new half) / w(old interval))``.

After mapping the interval onto leaf labels ``0 .. 2^K - 1`` (origin at leaf
``a``), the law of the final leaf is the transition row ``qhat(a, .)``,
computed by :meth:`WeightTree.qhat_row_log` on a tree of subtree
log-weights, or on a batch of trees at once: leaf ``b`` in the subtree
first split off at depth ``n`` receives ``Pi(a, n) * min(1, w_sib/w_own) *
w_b / w_sib``, and ``b = a`` receives ``Pi(a, K)``.  The rejection product
``Pi(a, t)``, the probability that the first ``t`` top-down swap proposals
at leaf ``a`` are all rejected, is accumulated level by level in that row.

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
    """Complete binary trees of subtree log-weights over 2^K leaves.

    ``leaf_logw`` has shape ``(..., 2^K)``: one tree per index of its leading
    axes, all of depth K.  ``level(n)``, of shape ``(..., 2^n)``, holds for
    each depth-n node the log-sum of the leaf weights below it; ``level(0)``
    is the total and ``level(K)`` the leaves themselves.  Node ``u`` at level
    ``n`` covers leaves ``[u * 2^(K-n), (u+1) * 2^(K-n))``.  Immutable after
    construction.
    """

    def __init__(self, leaf_logw: np.ndarray):
        leaf_logw = np.asarray(leaf_logw, dtype=float)
        n = leaf_logw.shape[-1] if leaf_logw.ndim else 0
        if n < 1 or n & (n - 1):
            raise ValueError(f"number of leaves {n} is not a power of two")
        self.k = n.bit_length() - 1
        levels = [leaf_logw]
        while levels[-1].shape[-1] > 1:
            prev = levels[-1]
            levels.append(np.logaddexp(prev[..., 0::2], prev[..., 1::2]))
        self._levels = levels[::-1]  # _levels[n] has 2^n entries per tree

    @classmethod
    def from_orbit(cls, cache: OrbitCache, iv: IndexInterval) -> "WeightTree":
        """Leaves are the orbit log-weights, leaf ``a`` = orbit index ``iv.lo + a``."""
        return cls(cache.logw_range(iv.lo, iv.hi))

    def level(self, n: int) -> np.ndarray:
        return self._levels[n]

    @property
    def leaves(self) -> np.ndarray:
        return self._levels[self.k]

    def qhat_row_log(self, a: int) -> np.ndarray:
        """Log-probabilities ``log qhat(a, b)`` for all leaves ``b``, shape ``(..., 2^K)``.

        One pass down the levels gives the rows of every tree of the batch.
        At level ``n`` the sibling subtree of ``a``'s receives
        ``(log Pi + log R_n) + leaves - log w_sib``, with the swap ratio
        ``R_n`` of :func:`accept_log_ratio`.  A one-leaf tree's row is ``[0.0]``.
        """
        k, leaves = self.k, self.leaves
        row = np.full(leaves.shape, NEG_INF)
        log_pi = np.zeros(leaves.shape[:-1])  # log Pi(a, n), updated level by level
        # log(0), and inf - inf at a sibling of weight zero, which is masked out
        with np.errstate(divide="ignore", invalid="ignore"):
            for n in range(k):
                shift = k - 1 - n
                own = a >> shift
                lvl = self._levels[n + 1]
                log_sib = lvl[..., own ^ 1]
                live = log_sib > NEG_INF  # a sibling of weight zero is never taken
                log_r = np.where(live, np.minimum(0.0, log_sib - lvl[..., own]), NEG_INF)
                sib = slice((own ^ 1) << shift, ((own ^ 1) + 1) << shift)
                block = (log_pi + log_r)[..., None] + leaves[..., sib] - log_sib[..., None]
                row[..., sib] = np.where(live[..., None], block, NEG_INF)
                # Pi(a, n+1) = Pi(a, n) * (1 - R_n), with 1 - exp stabilized
                log_pi = log_pi + np.log(-np.expm1(log_r))
        row[..., a] = log_pi
        return row

    def qhat_matrix(self) -> np.ndarray:
        """The transition matrices ``qhat(a, b)``, shape ``(..., 2^K, 2^K)``."""
        return np.exp(np.stack([self.qhat_row_log(a) for a in range(1 << self.k)], axis=-2))
