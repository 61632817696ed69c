"""Statistical thresholds shared by the workloads' output checks."""

from __future__ import annotations

import numpy as np
from scipy import stats as sps

# family-wise false-failure level of each workload run's checks; small enough
# that even seventy runs together fail a correct program with probability
# below 1e-3
ALPHA = 1e-5


def critical_t(n_tests: int, n_batches: int, alpha: float = ALPHA) -> float:
    """Two-sided Student-t critical value, Bonferroni over ``n_tests``."""
    return float(sps.t.ppf(1.0 - alpha / (2.0 * n_tests), n_batches - 1))


def batch_mean_se(batches: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and batch-means standard error along the first axis."""
    batches = np.asarray(batches, dtype=float)
    return batches.mean(axis=0), batches.std(axis=0, ddof=1) / np.sqrt(len(batches))
