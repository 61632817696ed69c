"""Effective sample size by Geyer's (1992) initial monotone sequence estimator.

For a chain ``x_0 .. x_{n-1}`` with lag-k autocorrelations ``rho_k``, the
integrated autocorrelation time is ``tau = 1 + 2 sum_{k>=1} rho_k``.  Geyer
sums it through the pair sums ``Gamma_m = rho_{2m} + rho_{2m+1}``, which are
positive and decreasing for a reversible chain.  The estimator keeps the
initial run of positive pair sums, makes it monotone by a running minimum,
and sets ``tau = -1 + 2 sum_m Gamma_m``, so ``ESS = n / tau``.

An antithetic chain, such as HMC on ``q1`` with an integration time near half
a period, has ``rho_1 < 0`` and ``tau < 1``, so its ESS exceeds ``n``; this is
kept, not clipped to ``n``.  As in Stan, ``tau`` is floored at ``1 / log10(n)``
so that a near-zero estimate cannot blow the ESS up without bound.
"""

from __future__ import annotations

import math

import numpy as np


def autocorrelation(x: np.ndarray) -> np.ndarray:
    """Lag-0 .. n-1 autocorrelations with the biased (1/n) autocovariance, by FFT."""
    x = np.asarray(x, dtype=float)
    n = x.size
    xc = x - x.mean()
    size = 1 << (2 * n - 1).bit_length()
    spec = np.fft.rfft(xc, size)
    acov = np.fft.irfft(spec * np.conj(spec), size)[:n] / n
    if acov[0] <= 0.0:
        raise ValueError("constant chain: autocorrelation undefined")
    return acov / acov[0]


def integrated_time(x: np.ndarray) -> float:
    """Integrated autocorrelation time ``tau`` of one chain."""
    x = np.asarray(x, dtype=float)
    n = x.size
    if n < 4:
        raise ValueError(f"chain of {n} draws is too short for an ESS")
    rho = autocorrelation(x)
    pairs = rho[: 2 * (n // 2)].reshape(-1, 2).sum(axis=1)
    nonpos = np.flatnonzero(pairs <= 0.0)
    if nonpos.size:
        pairs = pairs[: nonpos[0]]
    pairs = np.minimum.accumulate(pairs)
    return max(-1.0 + 2.0 * float(pairs.sum()), 1.0 / math.log10(n))


def ess(x: np.ndarray) -> float:
    """Effective sample size ``n / tau`` of one chain."""
    x = np.asarray(x, dtype=float)
    return x.size / integrated_time(x)


def ess_chains(chains: list[np.ndarray]) -> float:
    """ESS summed over independent chains, each estimated on its own."""
    return float(sum(ess(c) for c in chains))
