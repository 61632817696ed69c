"""AR(1) check of the ESS estimator: ``x_t = rho x_{t-1} + e_t`` has the
closed-form integrated time ``tau = (1 + rho) / (1 - rho)``.

Run from the repository root with ``python3 -m pytest perfbench/test_ess.py``.
"""

from __future__ import annotations

import math

import numpy as np

from ess import ess_chains, integrated_time

# -0.5 gives ESS = 3n; below about -0.6 the 1/log10(n) floor on tau binds
RHOS = (-0.5, -0.3, 0.0, 0.5, 0.9)


def ar1(rho: float, n: int, rng: np.random.Generator) -> np.ndarray:
    e = rng.standard_normal(n)
    x = np.empty(n)
    x[0] = e[0] / math.sqrt(1.0 - rho * rho)  # stationary start
    for t in range(1, n):
        x[t] = rho * x[t - 1] + e[t]
    return x


def check_ar1(seed: int = 0, n: int = 20_000, chains: int = 8) -> list[str]:
    """Relative error of the summed ESS against ``chains * n / tau`` per rho.

    The tolerance, 12%, is about four standard errors of the estimator at
    these sizes for the slowest chain (rho = 0.9, tau = 19).  Returns the
    failures, empty when every rho passes.
    """
    rng = np.random.default_rng(seed)
    failures = []
    for rho in RHOS:
        tau = (1.0 + rho) / (1.0 - rho)
        got = ess_chains([ar1(rho, n, rng) for _ in range(chains)])
        want = chains * n / tau
        if abs(got / want - 1.0) > 0.12:
            failures.append(f"rho={rho}: ESS {got:.0f}, closed form {want:.0f}")
    return failures


def test_ar1_both_signs():
    assert check_ar1(seed=1) == []
    assert check_ar1(seed=2) == []


def test_antithetic_chain_exceeds_draw_count():
    x = ar1(-0.5, 20_000, np.random.default_rng(3))
    assert integrated_time(x) < 0.5  # tau = 1/3, ESS about 3n
