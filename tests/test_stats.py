import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from polymer_lab import stats

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


@given(st.lists(finite_floats, min_size=2, max_size=200))
@settings(max_examples=60, deadline=None)
def test_running_moments_match_numpy(xs):
    acc = stats.RunningMoments().extend(xs)
    arr = np.array(xs)
    assert acc.count == len(xs)
    assert acc.mean == pytest.approx(float(arr.mean()), rel=1e-9, abs=1e-6)
    assert acc.variance(ddof=1) == pytest.approx(float(arr.var(ddof=1)), rel=1e-7, abs=1e-5)


def test_skewness_kurtosis_against_scipy():
    rng = np.random.default_rng(7)
    xs = rng.gamma(2.0, size=4000)
    acc = stats.RunningMoments().extend(xs)
    assert acc.skewness() == pytest.approx(float(scipy.stats.skew(xs)), rel=1e-10)
    assert acc.excess_kurtosis() == pytest.approx(float(scipy.stats.kurtosis(xs)), rel=1e-9)


def test_degenerate_sample():
    acc = stats.RunningMoments().extend([2.0] * 50)
    assert acc.degenerate
    assert math.isnan(acc.skewness())
    assert math.isnan(acc.excess_kurtosis())
    assert not stats.RunningMoments().extend([1.0, 2.0]).degenerate


def test_normal_cdf_against_scipy():
    xs = np.linspace(-6, 6, 101)
    got = stats.normal_cdf(xs, mu=0.3, sigma=1.7)
    want = scipy.stats.norm.cdf(xs, loc=0.3, scale=1.7)
    assert float(np.abs(got - want).max()) < 1e-14
    with pytest.raises(ValueError):
        stats.normal_cdf(xs, sigma=0.0)


def test_ks_distance_on_exact_gaussian_quantiles():
    # quantiles of the target are the best possible sample: KS ~ 1/(2n)
    n = 10 ** 4
    qs = scipy.stats.norm.ppf((np.arange(n) + 0.5) / n)
    d = stats.ks_normal_distance(qs, 0.0, 1.0)
    assert d < 0.02
    # and against a scaled target
    d2 = stats.ks_normal_distance(3.0 * qs, 0.0, 9.0)
    assert d2 < 0.02


def test_ks_distance_matches_scipy_kstest():
    rng = np.random.default_rng(11)
    xs = rng.normal(0.4, 1.3, size=500)
    got = stats.ks_normal_distance(xs, 0.0, 1.0)
    want = scipy.stats.kstest(xs, "norm").statistic
    assert got == pytest.approx(float(want), rel=1e-12)


def test_ks_distance_validation():
    with pytest.raises(ValueError):
        stats.ks_normal_distance([1.0], 0.0, 0.0)
    with pytest.raises(ValueError):
        stats.ks_normal_distance([], 0.0, 1.0)


def test_binomial_se():
    assert stats.binomial_se(0.0, 100) == 0.0
    assert stats.binomial_se(0.5, 100) == pytest.approx(0.05, rel=1e-12)


def test_nonincreasing_with_allowance():
    assert stats.nonincreasing_with_allowance([3.0, 2.0, 1.0], 0)
    assert stats.nonincreasing_with_allowance([3.0, 3.0, 1.0], 0)
    assert not stats.nonincreasing_with_allowance([1.0, 2.0, 1.5, 2.5], 1)
    assert stats.nonincreasing_with_allowance([1.0, 2.0, 1.5], 1)
    assert stats.nonincreasing_with_allowance([], 0)
