"""Tests for repro.evaluation.distributions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.evaluation.distributions import EmpiricalCDF, first_order_dominates

empirical_cdf = EmpiricalCDF.from_sample


class TestEmpiricalCDF:
    def test_values_at_sample_points(self):
        cdf = empirical_cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf(0.5) == 0.0
        assert cdf(1.0) == 0.25
        assert cdf(2.5) == 0.5
        assert cdf(4.0) == 1.0
        assert cdf(100.0) == 1.0

    def test_vectorised_evaluation(self):
        cdf = empirical_cdf([0.0, 1.0])
        out = cdf(np.array([-1.0, 0.0, 0.5, 1.0]))
        np.testing.assert_allclose(out, [0.0, 0.5, 0.5, 1.0])

    def test_monotone_non_decreasing(self):
        rng = np.random.default_rng(0)
        cdf = empirical_cdf(rng.normal(size=100))
        values = cdf(np.linspace(-4.0, 4.0, 51))
        assert np.all(np.diff(values) >= 0)
        assert len(values) == 51

    def test_quantile(self):
        cdf = empirical_cdf([1.0, 2.0, 3.0, 4.0])
        assert cdf.quantile(0.5) == 2.0
        assert cdf.quantile(1.0) == 4.0
        assert cdf.quantile(0.0) == 1.0

    def test_quantile_out_of_range(self):
        cdf = empirical_cdf([1.0])
        with pytest.raises(ValueError):
            cdf.quantile(1.5)

    def test_empty_sample_raises(self):
        with pytest.raises(ValueError):
            empirical_cdf([])

    def test_n_samples(self):
        assert empirical_cdf([1, 2, 3]).n_samples == 3


class TestDominance:
    def test_shifted_samples_dominate(self):
        rng = np.random.default_rng(1)
        low = rng.uniform(0.0, 0.5, size=300)
        high = rng.uniform(0.4, 1.0, size=300)
        cdf_low = empirical_cdf(low)
        cdf_high = empirical_cdf(high)
        # high-valued sample dominates: its CDF lies below.
        assert first_order_dominates(cdf_smaller=cdf_low, cdf_larger=cdf_high)
        assert not first_order_dominates(cdf_smaller=cdf_high, cdf_larger=cdf_low)

    def test_identical_samples_dominate_both_ways(self):
        sample = np.linspace(0, 1, 50)
        cdf_a = empirical_cdf(sample)
        cdf_b = empirical_cdf(sample)
        assert first_order_dominates(cdf_a, cdf_b)
        assert first_order_dominates(cdf_b, cdf_a)

    def test_tolerance_absorbs_small_violations(self):
        a = empirical_cdf([0.0, 0.5, 1.0])
        b = empirical_cdf([0.05, 0.45, 1.0])
        assert first_order_dominates(a, b, tolerance=0.5)

    def test_invalid_arguments(self):
        cdf = empirical_cdf([0.0, 1.0])
        with pytest.raises(ValueError):
            first_order_dominates(cdf, cdf, grid_points=1)
        with pytest.raises(ValueError):
            first_order_dominates(cdf, cdf, tolerance=-0.1)


@given(
    shift=st.floats(min_value=0.05, max_value=2.0),
    n=st.integers(min_value=10, max_value=200),
    seed=st.integers(0, 10**6),
)
@settings(max_examples=25, deadline=None)
def test_property_shifted_distribution_always_dominates(shift, n, seed):
    rng = np.random.default_rng(seed)
    base = rng.uniform(size=n)
    cdf_base = empirical_cdf(base)
    cdf_shifted = empirical_cdf(base + shift)
    assert first_order_dominates(cdf_smaller=cdf_base, cdf_larger=cdf_shifted, tolerance=0.0)
