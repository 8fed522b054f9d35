"""Empirical distribution functions and stochastic dominance.

Fig. 5 of the paper compares the Bayes and Maximum-Likelihood decision rules
through empirical cumulative distribution functions (CDFs) of segment-wise
precision and recall and argues with *first-order stochastic dominance*
(F ≺ G iff F(t) <= G(t) for all t, i.e. samples from F are "typically
larger").  This module provides the CDF object and the dominance test used by
the Fig. 5 harness and the decision-rule evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.utils.validation import check_vector


@dataclass(frozen=True)
class EmpiricalCDF:
    """Empirical cumulative distribution function of a 1-D sample."""

    sorted_values: np.ndarray

    @classmethod
    def from_sample(cls, sample: Sequence[float]) -> "EmpiricalCDF":
        """Build the CDF from an arbitrary (unsorted) sample."""
        values = check_vector(np.asarray(sample, dtype=np.float64), name="sample")
        if values.shape[0] == 0:
            raise ValueError("cannot build an empirical CDF from an empty sample")
        return cls(sorted_values=np.sort(values))

    @property
    def n_samples(self) -> int:
        """Number of samples the CDF is based on."""
        return int(self.sorted_values.shape[0])

    def __call__(self, t) -> np.ndarray:
        """Evaluate F(t) = P(X <= t) at scalar or array *t*."""
        t = np.asarray(t, dtype=np.float64)
        counts = np.searchsorted(self.sorted_values, t, side="right")
        result = counts / self.n_samples
        return float(result) if result.ndim == 0 else result

    def quantile(self, q: float) -> float:
        """Empirical quantile (inverse CDF) for q in [0, 1]."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must lie in [0, 1]")
        index = min(self.n_samples - 1, int(np.ceil(q * self.n_samples)) - 1)
        return float(self.sorted_values[max(0, index)])


def first_order_dominates(
    cdf_smaller: EmpiricalCDF,
    cdf_larger: EmpiricalCDF,
    grid_points: int = 201,
    tolerance: float = 0.02,
) -> bool:
    """Test whether ``cdf_larger ≺ cdf_smaller`` in first-order stochastic dominance.

    In the paper's notation (Section IV), ``F_ML ≺ F_B`` means the Bayes
    values are typically larger, which in CDF terms means
    ``F_B(t) <= F_ML(t)`` for all t.  Here ``cdf_smaller`` is the CDF whose
    values should be *smaller* (its CDF lies above) and ``cdf_larger`` the one
    with typically larger values (its CDF lies below).

    The comparison is evaluated on a common grid; violations up to
    *tolerance* (in CDF units) are allowed to absorb finite-sample noise.
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    if tolerance < 0:
        raise ValueError("tolerance must be non-negative")
    low = min(float(cdf_smaller.sorted_values[0]), float(cdf_larger.sorted_values[0]))
    high = max(float(cdf_smaller.sorted_values[-1]), float(cdf_larger.sorted_values[-1]))
    grid = np.linspace(low, high, grid_points)
    return bool(np.all(cdf_larger(grid) <= cdf_smaller(grid) + tolerance))
