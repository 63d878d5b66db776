import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymer_lab import engine, environment, fluctuation, moments, walk


def test_scaling_rule_d1():
    rule = fluctuation.scaling(1, 0.25)
    assert rule.c_of(16) == pytest.approx(0.25, rel=1e-15)
    assert rule.a_of(16, rule.c_of(16)) == pytest.approx(2.0, rel=1e-15)
    # a^2 c^2 = N^(-1/2) independent of eps
    for eps in (0.05, 0.25, 0.4):
        r = fluctuation.scaling(1, eps)
        for n in (4, 100, 4096):
            c = r.c_of(n)
            assert r.a_of(n, c) ** 2 * c * c == pytest.approx(n ** -0.5, rel=1e-12)


def test_scaling_rule_d2():
    rule = fluctuation.scaling(2, 0.25)
    n = 256
    assert rule.c_of(n) == pytest.approx(math.log(n) ** -0.75, rel=1e-15)
    c = rule.c_of(n)
    assert rule.a_of(n, c) ** 2 * c * c == pytest.approx(1.0 / math.log(n), rel=1e-12)
    with pytest.raises(ValueError):
        rule.c_of(1)  # log 1 = 0
    with pytest.raises(ValueError):
        rule.a_of(4, 0.0)


def test_scaling_validation():
    with pytest.raises(ValueError):
        fluctuation.scaling(3, 0.1)
    with pytest.raises(ValueError):
        fluctuation.scaling(1, -0.1)


def test_limit_variance_exact_small_values():
    # N=1: a^2 c^2 p0(2,0) = 1/sqrt(1) * 1/2
    assert fluctuation.limit_variance(1, 1) == pytest.approx(0.5, rel=1e-15)
    # N=2: (1/2 + 3/8) / sqrt(2)
    assert fluctuation.limit_variance(1, 2) == pytest.approx((0.5 + 0.375) / math.sqrt(2), rel=1e-14)
    assert fluctuation.limit_variance(2, 2) == pytest.approx(
        (0.25 + 0.140625) / math.log(2), rel=1e-14
    )


def test_limit_variance_limits():
    assert fluctuation.SIGMA2_LIMIT[1] == pytest.approx(2.0 / math.sqrt(math.pi), rel=1e-15)
    assert fluctuation.SIGMA2_LIMIT[2] == pytest.approx(1.0 / math.pi, rel=1e-15)
    # d=2 drift toward 1/pi is monotone along a dyadic grid
    drifts = [
        abs(fluctuation.limit_variance(2, 2 ** p) - fluctuation.SIGMA2_LIMIT[2])
        for p in range(6, 13)
    ]
    assert drifts == sorted(drifts, reverse=True)


def test_decomposition_identity_random_envs():
    # The linear term of the engine pass is the kernel reference's sum, bit
    # for bit.
    kern1 = walk.build_kernel(1, 24)
    kern2 = walk.build_kernel(2, 12)
    for seed in range(10):
        for d, n, kern in ((1, 24, kern1), (2, 12, kern2)):
            env = environment.EnvironmentField(seed=seed, d=d, horizon=n)
            layer = engine.evolve_density(env, 0.34, n)
            assert layer.linear == float(np.sum(fluctuation.linear_components(env, 0.34, n, kern)))


def test_linear_components_exact_values():
    # N=1, d=1: f_1 = c (h(1,1) + h(1,-1))/2
    kern = walk.build_kernel(1, 1)
    c = 0.3
    for bits in range(4):
        tab = environment.EnvironmentTable.from_assignment(1, 1, bits)
        comps = fluctuation.linear_components(tab, c, 1, kern)
        want = c * 0.5 * (tab.value(1, (-1,)) + tab.value(1, (1,)))
        assert comps[0] == pytest.approx(want, abs=1e-15)


@pytest.mark.parametrize("d,horizon", [(1, 3), (1, 4), (2, 2)])
def test_orthogonality_exhaustive(d, horizon):
    c = 0.4
    kern = walk.build_kernel(d, horizon)
    count = 0
    comp_sum = None
    lin_rem = 0.0
    lin_sq = 0.0
    rem_sq = 0.0
    for tab in environment.enumerate_environments(d, horizon):
        comps = fluctuation.linear_components(tab, c, horizon, kern)
        layer = engine.evolve_density(tab, c, horizon)
        linear = layer.linear
        remainder = engine.observables(layer).Z - 1.0 - linear
        outer = np.outer(comps, comps)
        comp_sum = outer if comp_sum is None else comp_sum + outer
        lin_rem += linear * remainder
        lin_sq += linear ** 2
        rem_sq += remainder ** 2
        count += 1
    mean_outer = comp_sum / count
    # E f_j f_k = 0 off diagonal; E f_k^2 = c^2 p0(2k, 0)
    off = mean_outer - np.diag(np.diag(mean_outer))
    assert float(np.abs(off).max()) < 1e-12
    returns = walk.central_return_sequence(d, horizon)
    for k in range(1, horizon + 1):
        assert mean_outer[k - 1, k - 1] == pytest.approx(c * c * returns[k - 1], abs=1e-12)
    assert abs(lin_rem / count) < 1e-12
    assert lin_sq / count == pytest.approx(
        fluctuation.linear_variance_exact(horizon, c, d), rel=1e-12
    )
    assert rem_sq / count == pytest.approx(
        fluctuation.remainder_variance_exact(horizon, c, d), rel=1e-10, abs=1e-12
    )


def test_variance_bookkeeping():
    for d, n in ((1, 50), (2, 30)):
        c = 0.22
        total = moments.ez2_pairwalk(n, c, d) - 1.0
        lin = fluctuation.linear_variance_exact(n, c, d)
        rem = fluctuation.remainder_variance_exact(n, c, d)
        assert lin + rem == pytest.approx(total, rel=1e-12)


def test_remainder_variance_hand_values():
    c = 0.3
    assert fluctuation.remainder_variance_exact(1, c, 1) == pytest.approx(0.0, abs=1e-15)
    assert fluctuation.remainder_variance_exact(2, c, 1) == pytest.approx(c ** 4 / 4, rel=1e-12)
    assert fluctuation.remainder_variance_exact(9, 0.0, 1) == 0.0


def test_lindeberg_hard_bound():
    # |f_k| <= c because the kernel layer sums to 1
    c, horizon = 0.5, 3
    kern = walk.build_kernel(1, horizon)
    for tab in environment.enumerate_environments(1, horizon):
        comps = fluctuation.linear_components(tab, c, horizon, kern)
        assert np.all(np.abs(comps) <= c + 1e-15)


def test_linear_components_validation():
    kern = walk.build_kernel(1, 4)
    env = environment.EnvironmentField(seed=1, d=2, horizon=4)
    with pytest.raises(ValueError):
        fluctuation.linear_components(env, 0.2, 4, kern)  # dim mismatch
    env1 = environment.EnvironmentField(seed=1, d=1, horizon=2)
    with pytest.raises(ValueError):
        fluctuation.linear_components(env1, 0.2, 4, kern)  # horizon too small
    with pytest.raises(ValueError):
        fluctuation.linear_components(env1, 1.2, 2, kern)


@given(n=st.integers(min_value=1, max_value=64), c=st.floats(min_value=0.0, max_value=0.9))
@settings(max_examples=40, deadline=None)
def test_remainder_variance_nonnegative(n, c):
    for d in (1, 2):
        assert fluctuation.remainder_variance_exact(n, c, d) >= 0.0
