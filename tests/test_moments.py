import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymer_lab import fluctuation, moments, walk


def test_hand_values_d1():
    for c in (0.1, 0.437, 0.9):
        assert moments.ez2_pairwalk(1, c, 1) == pytest.approx(1 + c * c / 2, rel=1e-14)
        assert moments.ez2_pairwalk(2, c, 1) == pytest.approx(
            1 + 7 * c * c / 8 + c ** 4 / 4, rel=1e-14
        )
        assert moments.ek2_pairwalk(2, c, 1) == pytest.approx(
            4 + 4 * c * c + 2 * c ** 4, rel=1e-13
        )


def test_hand_values_d2():
    for c in (0.2, 0.5):
        assert moments.ez2_pairwalk(1, c, 2) == pytest.approx(1 + c * c / 4, rel=1e-14)
        # first expansion order is c^2 * sum_k p0(2k, 0)
        exp = moments.ez2_expansion(3, c, 2)
        want = c * c * math.fsum(walk.central_return_sequence(2, 3).tolist())
        assert exp.orders[1] == pytest.approx(want, rel=1e-13)


def test_zero_disorder():
    for d in (1, 2):
        assert moments.ez2_pairwalk(5, 0.0, d) == 1.0
        assert moments.ek2_pairwalk(5, 0.0, d) == pytest.approx(25.0, rel=1e-12)
        var_z, var_k = moments.centered_moments(5, 0.0, d)
        assert var_z == 0.0
        assert var_k == pytest.approx(0.0, abs=1e-10)


@given(
    d=st.sampled_from([1, 2]),
    n=st.integers(min_value=1, max_value=9),
    c=st.floats(min_value=0.01, max_value=0.6),
)
@settings(max_examples=40, deadline=None)
def test_pairwalk_equals_expansion(d, n, c):
    a = moments.ez2_pairwalk(n, c, d)
    b = moments.ez2_expansion(n, c, d).total
    assert b == pytest.approx(a, rel=1e-12)
    assert moments.ez2_renewal(n, c, d) == pytest.approx(a, rel=1e-12)
    ak = moments.ek2_pairwalk(n, c, d)
    bk = moments.ek2_expansion(n, c, d).total
    assert bk == pytest.approx(ak, rel=1e-12)


@pytest.mark.parametrize("d,n_hi", [(1, 8), (2, 5)])
def test_enumeration_agrees(d, n_hi):
    for n in range(1, n_hi + 1):
        for c in (0.15, 0.45):
            ez, ek = moments.pair_enumeration_moments(n, c, d)
            assert ez == pytest.approx(moments.ez2_pairwalk(n, c, d), rel=1e-11)
            assert ez == pytest.approx(moments.ez2_renewal(n, c, d), rel=1e-11)
            assert ek == pytest.approx(moments.ek2_pairwalk(n, c, d), rel=1e-11)


@pytest.mark.parametrize("c", [0.05, 0.3, 0.6])
@pytest.mark.parametrize(
    "d,n", [(1, 1), (1, 2), (1, 37), (1, 300), (2, 1), (2, 2), (2, 37), (2, 120)]
)
def test_renewal_equals_pairwalk(d, n, c):
    assert moments.ez2_renewal(n, c, d) == pytest.approx(
        moments.ez2_pairwalk(n, c, d), rel=1e-12
    )


def test_renewal_beyond_expansion_cap():
    # The renewal has no cap; at the cap it agrees with the expansion.
    for d in (1, 2):
        cap = moments.EXPANSION_MAX_N[d]
        c = 0.1
        assert moments.ez2_renewal(cap, c, d) == pytest.approx(
            moments.ez2_expansion(cap, c, d).total, rel=1e-12
        )
    assert moments.ez2_renewal(2 * moments.EXPANSION_MAX_N[2], 0.0, 2) == 1.0
    with pytest.raises(ValueError, match="--N"):
        moments.ez2_expansion(moments.EXPANSION_MAX_N[2] + 1, 0.1, 2)


def test_enumeration_cap():
    with pytest.raises(ValueError):
        moments.pair_enumeration_moments(13, 0.2, 1)


@pytest.mark.parametrize("d,horizon", [(1, 3), (2, 2)])
def test_environment_average_matches_oracles(d, horizon):
    c = 0.35
    sums = moments.environment_average_moments(d, horizon, c)
    assert sums["mean_Z"] == pytest.approx(1.0, abs=1e-13)
    assert sums["mean_K"] == pytest.approx(float(horizon), rel=1e-13)
    assert sums["mean_Z2"] == pytest.approx(moments.ez2_pairwalk(horizon, c, d), rel=1e-12)
    assert sums["mean_K2"] == pytest.approx(moments.ek2_pairwalk(horizon, c, d), rel=1e-12)


def test_weighted_fourth_sum_hand_values():
    assert moments.weighted_fourth_sum((1,), 3, 1) == 9.0
    assert moments.weighted_fourth_sum((1, 2), 2, 1) == 8.0


@given(
    d=st.sampled_from([1, 2]),
    data=st.data(),
)
@settings(max_examples=50, deadline=None)
def test_weighted_fourth_sum_closed_form(d, data):
    n = data.draw(st.integers(min_value=1, max_value=10))
    times = sorted(
        data.draw(
            st.sets(st.integers(min_value=1, max_value=n), min_size=1, max_size=min(n, 5))
        )
    )
    a = moments.weighted_fourth_sum(tuple(times), n, d)
    b = moments.weighted_fourth_sum_direct(tuple(times), n, d)
    assert a == pytest.approx(b, rel=1e-12)


def test_weighted_fourth_sum_validation():
    with pytest.raises(ValueError):
        moments.weighted_fourth_sum((2, 2), 4, 1)  # not strictly increasing
    with pytest.raises(ValueError):
        moments.weighted_fourth_sum((0,), 4, 1)
    with pytest.raises(ValueError):
        moments.weighted_fourth_sum((5,), 4, 1)  # beyond N


def test_expansion_orders_positive_and_truncation():
    exp = moments.ez2_expansion(200, 0.2, 1)
    assert exp.orders[0] == 1.0
    assert np.all(exp.orders >= 0.0)
    assert exp.total == pytest.approx(math.fsum(exp.orders.tolist()), rel=1e-15)
    # strong disorder at long horizon must truncate before order N
    assert exp.truncated or exp.orders.shape[0] == 201


def test_centered_moments_routing_agrees_at_cap():
    # below the joint-DP cap both routes must coincide
    for d, n in ((1, 40), (2, 12)):
        c = 0.3
        pair = moments.ek2_pairwalk(n, c, d)
        exp = moments.ek2_expansion(n, c, d).total
        assert exp == pytest.approx(pair, rel=1e-12)
        _, var_k = moments.centered_moments(n, c, d)
        assert var_k == pytest.approx(pair - float(n) * n, rel=1e-10, abs=1e-9)


def test_monotone_in_c():
    for d in (1, 2):
        vals = [moments.ez2_pairwalk(6, c, d) for c in (0.0, 0.1, 0.3, 0.6)]
        assert vals == sorted(vals)
        assert vals[0] == 1.0


def test_bound_calibration_geometric_domination():
    rule = fluctuation.scaling(1, 0.05)
    rows = moments.bound_calibration(1, (16, 64), rule)
    for r in rows:
        # the series closes: per-order constants keep s*A below 1
        assert 0.0 < r.s < 1.0
        assert r.s * r.a_order_z2 < 1.0
        assert r.s * r.a_order_k2 < 1.0
        # total-domination constants are no larger than per-order ones
        assert r.a_total_z2 <= r.a_order_z2 + 1e-12
        assert r.a_total_k2 <= r.a_order_k2 + 1e-12


def test_arg_validation():
    for oracle in (moments.ez2_pairwalk, moments.ez2_renewal):
        for bad in ((0, 0.2, 1), (3, 1.0, 1), (3, 0.2, 3)):
            with pytest.raises(ValueError):
                oracle(*bad)
