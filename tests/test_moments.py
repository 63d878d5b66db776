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
        m = moments.centered_moments(5, 0.0, d)
        assert m.var_z == 0.0
        assert m.var_k == pytest.approx(0.0, abs=1e-10)


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
    assert moments.centered_moments(n, c, d).ez2 == pytest.approx(a, rel=1e-12)
    ak = moments.ek2_pairwalk(n, c, d)
    bk = moments.ek2_expansion(n, c, d).total
    assert bk == pytest.approx(ak, rel=1e-12)


@pytest.mark.parametrize("d,n_hi", [(1, 8), (2, 5)])
def test_enumeration_agrees(d, n_hi):
    for n in range(1, n_hi + 1):
        for c in (0.15, 0.45):
            ez, ek = moments.pair_enumeration_moments(n, c, d)
            assert ez == pytest.approx(moments.ez2_pairwalk(n, c, d), rel=1e-11)
            assert ez == pytest.approx(moments.centered_moments(n, c, d).ez2, rel=1e-11)
            assert ek == pytest.approx(moments.ek2_pairwalk(n, c, d), rel=1e-11)


@pytest.mark.parametrize("c", [0.05, 0.3, 0.6])
@pytest.mark.parametrize(
    "d,n", [(1, 1), (1, 2), (1, 37), (1, 300), (2, 1), (2, 2), (2, 37), (2, 120)]
)
def test_renewal_equals_pairwalk(d, n, c):
    assert moments.centered_moments(n, c, d).ez2 == pytest.approx(
        moments.ez2_pairwalk(n, c, d), rel=1e-12
    )


def test_renewal_beyond_expansion_cap(monkeypatch):
    # The renewal runs past the expansion's cap, up to its own; at the
    # expansion's cap the two agree.  Past its own cap it refuses before it
    # builds anything of length N.
    for d in (1, 2):
        cap = moments.EXPANSION_MAX_N[d]
        c = 0.1
        assert moments.centered_moments(cap, c, d).ez2 == pytest.approx(
            moments.ez2_expansion(cap, c, d).total, rel=1e-12
        )
    assert moments.centered_moments(2 * moments.EXPANSION_MAX_N[2], 0.0, 2).ez2 == 1.0
    with pytest.raises(ValueError, match="--N"):
        moments.ez2_expansion(moments.EXPANSION_MAX_N[2] + 1, 0.1, 2)

    def no_returns(*args):
        raise AssertionError("the renewal started before its cap was checked")

    monkeypatch.setattr(walk, "central_return_sequence", no_returns)
    for d in (1, 2):
        cap = moments.RENEWAL_MAX_N[d]
        for N in (cap + 1, 10 ** 10):
            with pytest.raises(ValueError, match=f"choose --N <= {cap}"):
                moments.centered_moments(N, 0.1, d)


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


def test_expansion_orders_positive_and_truncation():
    exp = moments.ez2_expansion(200, 0.2, 1)
    assert exp.orders[0] == 1.0
    assert np.all(exp.orders >= 0.0)
    assert exp.total == pytest.approx(math.fsum(exp.orders.tolist()), rel=1e-15)
    # strong disorder at long horizon must truncate before order N
    assert exp.truncated or exp.orders.shape[0] == 201


_B = moments._HEAD_BLOCK


@pytest.mark.parametrize(
    "m, len_b",
    # len(b) > m, and one b shorter than m (the output's tail stays zero).
    [(1, 9), (_B - 1, _B + 3), (_B, _B + 1), (_B + 1, 2 * _B), (3 * _B + 5, 3 * _B + 9),
     (3 * _B + 5, _B)],
)
def test_convolve_head_matches_full_convolution(monkeypatch, m, len_b):
    rng = np.random.default_rng(m)
    a, b = rng.random(3 * _B + 20), rng.random(len_b)
    want = np.zeros(m)
    full = np.convolve(a, b)[:m]
    want[: full.size] = full
    shapes = []
    real = np.convolve

    def recording(x, y, *args, **kwargs):
        shapes.append((len(x), len(y)))
        return real(x, y, *args, **kwargs)

    monkeypatch.setattr(np, "convolve", recording)
    got = moments._convolve_head(a, b, m)
    assert got.shape == (m,)
    # Sums of nonnegative terms in another order: a few ulps, relative.
    np.testing.assert_allclose(got, want, rtol=8 * np.finfo(float).eps, atol=0.0)
    assert shapes and all(min(shape) <= _B for shape in shapes)
    # Bit for bit the blocks' own np.convolve, wherever its inputs sit.
    blocks = np.zeros(m)
    for k in range(0, min(len(a), m), _B):
        head = real(a[k : k + _B], b[: m - k])[: m - k]
        blocks[k : k + len(head)] += head
    assert got.tobytes() == blocks.tobytes()


def test_expansion_head_convolution_accuracy_at_strong_disorder(monkeypatch):
    # The late orders are many decades below the early ones; a route whose
    # error scales with an array's largest entry (an FFT) would move them.
    n, c = 2048, 0.3
    shipped = moments.collision_expansions(n, c, 1)
    monkeypatch.setattr(moments, "_convolve_head", lambda a, b, m: np.convolve(a, b)[:m])
    for got, want in zip(shipped, moments.collision_expansions(n, c, 1)):
        assert got.orders.shape == want.orders.shape
        assert np.all(got.orders > 0.0)
        np.testing.assert_allclose(got.orders, want.orders, rtol=1e-14, atol=0.0)


def _cancellation_tol(ek2: float) -> float:
    # Each route rounds E K^2 within a few ulps; var K = E K^2 - N^2 keeps
    # that absolute error however small var K is.
    return 16 * np.finfo(float).eps * ek2


def test_centered_moments_single_route():
    # var K comes from the renewal at every N; the collision expansion and
    # the joint pair DP are references.
    for d, n in ((1, 40), (2, 12)):
        c = 0.3
        m = moments.centered_moments(n, c, d)
        ek = moments.ek2_expansion(n, c, d).total
        assert m.var_k == pytest.approx(ek - float(n) * n, rel=0.0, abs=_cancellation_tol(ek))
        assert m.var_k == pytest.approx(
            moments.ek2_pairwalk(n, c, d) - float(n) * n, rel=1e-10, abs=1e-9
        )
        assert m.var_z == pytest.approx(moments.ez2_pairwalk(n, c, d) - 1.0, rel=1e-12)
        assert m.var_z == m.ez2 - 1.0


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 37, 4096])
def test_renewal_var_k_matches_expansion_and_pairwalk(d, n):
    for c in (0.05, 0.3):
        var_k = moments.centered_moments(n, c, d).var_k
        ek = moments.ek2_expansion(n, c, d).total
        assert var_k == pytest.approx(ek - float(n) * n, rel=0.0, abs=_cancellation_tol(ek))
        if n <= moments.EK2_PAIRWALK_MAX_N[d]:
            pw = moments.ek2_pairwalk(n, c, d)
            assert var_k == pytest.approx(pw - float(n) * n, rel=0.0, abs=_cancellation_tol(pw))


@pytest.mark.parametrize("c", [0.0, 0.05, 0.4])
@pytest.mark.parametrize("d,n", [(1, 1), (1, 16), (1, 200), (2, 1), (2, 12), (2, 64)])
def test_exact_moments_record_against_references(d, n, c):
    m = moments.centered_moments(n, c, d)
    assert m.ez2 == pytest.approx(moments.ez2_pairwalk(n, c, d), rel=1e-12, abs=0.0)
    assert m.lin_var == fluctuation.linear_variance_exact(n, c, d)
    assert m.rem_var == max(m.var_z - m.lin_var, 0.0)
    ez, ek = moments.collision_expansions(n, c, d)
    assert m.ez2 == pytest.approx(ez.total, rel=1e-14, abs=0.0)
    assert float(n) * n + m.var_k == pytest.approx(ek.total, rel=1e-14, abs=0.0)


def test_renewal_var_k_hand_value():
    # One step: only a collision at time 1 counts, with sum_u u^4 b_1(u)^2 = 1/2.
    c = 0.1
    assert moments.centered_moments(1, c, 1).var_k == c * c / 2


# `first` names the chain that stops at an earlier order; at (1, 16, 0.35)
# and (2, 16, 0.5) the K^2 chain runs to order N untruncated.
@pytest.mark.parametrize(
    "first,d,n,c",
    [("z2", 1, 16, 0.35), ("z2", 1, 32, 0.3), ("z2", 2, 16, 0.5), ("z2", 2, 24, 0.75),
     ("k2", 1, 200, 0.1), ("k2", 2, 32, 0.2), ("k2", 2, 48, 0.15)],
)
def test_shared_pass_matches_references(first, d, n, c):
    ez, ek = moments.collision_expansions(n, c, d)
    assert (ez.kind, ek.kind) == ("z2", "k2")
    lengths = {"z2": ez.orders.shape[0], "k2": ek.orders.shape[0]}
    assert lengths[first] < max(lengths.values())
    assert ez.truncated == (ez.orders.shape[0] <= n)
    assert ek.truncated == (ek.orders.shape[0] <= n)
    assert ez.total == pytest.approx(moments.centered_moments(n, c, d).ez2, rel=1e-12)
    assert ek.total == pytest.approx(moments.ek2_pairwalk(n, c, d), rel=1e-12)
    assert np.array_equal(moments.ez2_expansion(n, c, d).orders, ez.orders)
    assert np.array_equal(moments.ek2_expansion(n, c, d).orders, ek.orders)


def test_overflow_refused_on_both_routes():
    # E Z^2 at d = 1, N = 2800, c = 0.95 is beyond float64.  The expansion
    # runs hundreds of orders before its sum overflows, so it is called once.
    # remainder_variance_exact reads the renewal's record.
    routes = (fluctuation.remainder_variance_exact, moments.collision_expansions,
              moments.centered_moments)
    for route in routes:
        with pytest.raises(ValueError, match=r"N = 2800, c = 0\.95") as exc:
            route(2800, 0.95, 1)
        assert "--c" in str(exc.value) and "--eps" in str(exc.value)
        assert "--N" in str(exc.value)


def test_monotone_in_c():
    for d in (1, 2):
        vals = [moments.ez2_pairwalk(6, c, d) for c in (0.0, 0.1, 0.3, 0.6)]
        assert vals == sorted(vals)
        assert vals[0] == 1.0


def test_bound_calibration_geometric_domination():
    rule = fluctuation.scaling(1, 0.05)
    for n in (16, 64):
        r = moments.calibrate(n, rule.c_of(n), 1)
        # the series closes: per-order constants keep s*A below 1
        assert 0.0 < r.s < 1.0
        assert r.s * r.a_order_z2 < 1.0
        assert r.s * r.a_order_k2 < 1.0
        # total-domination constants are no larger than per-order ones
        assert r.a_total_z2 <= r.a_order_z2 + 1e-12
        assert r.a_total_k2 <= r.a_order_k2 + 1e-12


@pytest.mark.parametrize("d,n,c", [(2, 1, 0.3), (1, 3, 0.0), (2, 16, 0.0)])
def test_calibrate_at_zero_scale(d, n, c):
    # s = c^2 log 1 = 0 at d = 2, N = 1, and s = 0 at c = 0: nothing to dominate.
    r = moments.calibrate(n, c, d)
    assert r.s == 0.0
    assert (r.a_total_z2, r.a_order_z2, r.a_total_k2, r.a_order_k2) == (0.0,) * 4
    assert r.z2.total == moments.ez2_expansion(n, c, d).total


def _smallest_dominating_a_full_loop(total, s, N, scale):
    """The bisection with every term up to min(N, 4096) summed: the reference
    for the early exit in moments._smallest_dominating_a."""
    if total <= scale:
        return 0.0
    terms = min(N, 4096)

    def dominated(a):
        g = a * s
        acc = 1.0
        p = 1.0
        for _ in range(terms):
            p *= g
            acc += p
            if acc * scale >= total or not np.isfinite(acc):
                return True
        return acc * scale >= total

    hi = 1.0
    while not dominated(hi):
        hi *= 2.0
        if hi > 1e12:
            raise ArithmeticError("domination constant diverged")
    lo = 0.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if dominated(mid):
            hi = mid
        else:
            lo = mid
    return hi


def _expansion_case(n, c, d, kind):
    cal = moments.calibrate(n, c, d)
    if kind == "z2":
        return cal.z2.total, cal.s, n, 1.0
    return cal.k2.total, cal.s, n, float(n) * n


@pytest.mark.parametrize(
    "case",
    [
        (1.5, 0.4, 64, 1.0),  # g < 1 at the answer
        (1e6, 0.5, 40, 1.0),  # the answer needs g = A s > 1
        (50.0, 0.9, 3, 2.0),  # three terms, g > 1
        (1.0 + 1e-12, 0.43, 4096, 1.0),  # tiny excess: a long run of terms
        (1.2, 0.3, 10000, 1.0),  # N > 4096: terms capped at 4096
        (1.0, 0.3, 16, 1.0),  # total <= scale
        (0.5, 0.0, 16, 1.0),  # s = 0, total <= scale
        ("z2", 4096, 4096 ** -0.3, 1),
        ("k2", 4096, 4096 ** -0.3, 1),
        ("z2", 512, math.log(512) ** -0.75, 2),
        ("k2", 512, math.log(512) ** -0.75, 2),
        ("z2", 64, 0.6, 1),
    ],
)
def test_dominating_a_early_exit_matches_full_loop(case):
    if isinstance(case[0], str):
        kind, n, c, d = case
        case = _expansion_case(n, c, d, kind)
    assert moments._smallest_dominating_a(*case) == _smallest_dominating_a_full_loop(*case)


def test_dominating_a_diverges_alike_at_zero_scale():
    for route in (moments._smallest_dominating_a, _smallest_dominating_a_full_loop):
        with pytest.raises(ArithmeticError):
            route(1.5, 0.0, 16, 1.0)


def test_arg_validation():
    for oracle in (moments.ez2_pairwalk, moments.centered_moments):
        for bad in ((0, 0.2, 1), (3, 1.0, 1), (3, 0.2, 3)):
            with pytest.raises(ValueError):
                oracle(*bad)
