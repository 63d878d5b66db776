import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymer_lab import environment, walk

# Measured over n <= 256 (d=1) and n <= 128 (d=2); the products
# sup_x p0(n,x) * n^(d/2) increase toward sqrt(2/pi) resp. 2/pi, so these
# constants bound every n.
UNIFORM_BOUND = {1: 0.80, 2: 0.64}


def test_layer_zero_is_point_mass(kernel1, kernel2):
    assert kernel1.layer(0).tolist() == [1.0]
    assert kernel2.layer(0).tolist() == [[1.0]]


@pytest.mark.parametrize("d", [1, 2])
def test_normalization_and_symmetry(d, kernel1, kernel2):
    kernel = kernel1 if d == 1 else kernel2
    for n in range(kernel.n_max + 1):
        lay = kernel.layer(n)
        assert abs(float(lay.sum()) - 1.0) < 1e-12
        if d == 1:
            assert np.array_equal(lay, lay[::-1])
        else:
            # axis-by-axis convolution leaves sub-ulp asymmetry in d = 2
            assert float(np.abs(lay - lay[::-1, ::-1]).max()) < 1e-16


@pytest.mark.parametrize("d", [1, 2])
def test_uniform_sup_bound(d, kernel1, kernel2):
    kernel = kernel1 if d == 1 else kernel2
    for n in range(1, kernel.n_max + 1):
        assert float(kernel.layer(n).max()) <= UNIFORM_BOUND[d] / n ** (d / 2.0)


def test_probability_basic_values(kernel1, kernel2):
    assert kernel1.probability(1, (1,)) == 0.5
    assert kernel1.probability(2, (0,)) == 0.5
    assert kernel2.probability(1, (1, 0)) == 0.25
    assert kernel2.probability(2, (0, 0)) == 0.25
    # off parity and out of cone are zero, not errors
    assert kernel1.probability(2, (1,)) == 0.0
    assert kernel1.probability(2, (4,)) == 0.0
    assert kernel2.probability(2, (2, 1)) == 0.0


def test_probability_matches_binomial(kernel1):
    for n in (3, 8, 15):
        for j in range(n + 1):
            x = 2 * j - n
            assert kernel1.probability(n, (x,)) == pytest.approx(
                math.comb(n, j) * 0.5 ** n, rel=1e-14
            )


def test_d2_factorizes_into_diagonal_walks(kernel2):
    # p0(n, x) = P(u walk) * P(v walk) with u = x1+x2, v = x1-x2.
    for n in (2, 5, 9):
        for x1 in range(-n, n + 1):
            for x2 in range(-n, n + 1):
                u, v = x1 + x2, x1 - x2
                if (x1 + x2 + n) % 2 or abs(u) > n or abs(v) > n:
                    continue
                pu = math.comb(n, (u + n) // 2) * 0.5 ** n
                pv = math.comb(n, (v + n) // 2) * 0.5 ** n
                assert kernel2.probability(n, (x1, x2)) == pytest.approx(pu * pv, rel=1e-13)


@pytest.mark.parametrize("d", [1, 2])
def test_moment_closed_forms(d, kernel1, kernel2):
    kernel = kernel1 if d == 1 else kernel2
    for n in range(1, 51):
        for kind in walk.MOMENT_KINDS[d]:
            got = walk.moment(kernel, kind, n)
            ref = walk.closed_form_moment(d, kind, n)
            assert got == pytest.approx(ref, rel=1e-12, abs=1e-12)


def test_moment_kind_validation(kernel1):
    with pytest.raises(ValueError):
        walk.moment(kernel1, "sixth", 3)
    with pytest.raises(ValueError):
        walk.moment(kernel1, "second", 0)
    with pytest.raises(ValueError):
        walk.moment(kernel1, "cross", 3)
    with pytest.raises(ValueError):
        walk.closed_form_moment(1, "partial-second", 3)
    # The same check guards both routines.
    with pytest.raises(ValueError):
        walk.closed_form_moment(2, "sixth", 3)
    with pytest.raises(ValueError):
        walk.closed_form_moment(1, "second", 0)
    # Only |x + y|^2 and |x + y|^4 take a shift.
    with pytest.raises(ValueError, match="no shift"):
        walk.closed_form_moment(2, "cross", 3, shift=(1, 0))


@pytest.mark.parametrize("d", [1, 2])
def test_collision_identity(d, kernel1, kernel2):
    kernel = kernel1 if d == 1 else kernel2
    for n in range(1, kernel.n_max // 2 + 1):
        lhs = walk.collision_mass(kernel, n)
        assert abs(lhs - kernel.probability(2 * n, (0,) * d)) < 1e-12
        assert abs(lhs - walk.return_probability(d, 2 * n)) < 1e-12


def test_return_probability_exact_values():
    assert walk.return_probability(1, 0) == 1.0
    assert walk.return_probability(1, 1) == 0.0
    assert walk.return_probability(1, 2) == 0.5
    assert walk.return_probability(1, 4) == 0.375
    assert walk.return_probability(2, 2) == 0.25
    assert walk.return_probability(2, 4) == 0.140625


def test_central_return_sequence_matches_products():
    for d in (1, 2):
        seq = walk.central_return_sequence(d, 200)
        for k in (1, 7, 64, 200):
            assert seq[k - 1] == pytest.approx(walk.return_probability(d, 2 * k), rel=1e-15)


def test_return_probability_asymptotics():
    # p0(2k, 0) ~ (pi k)^(-d/2)
    for d, k in ((1, 4000), (2, 4000)):
        ratio = walk.return_probability(d, 2 * k) * (math.pi * k) ** (d / 2.0)
        assert abs(ratio - 1.0) < 1e-3


@given(
    d=st.sampled_from([1, 2]),
    n=st.integers(min_value=1, max_value=24),
    data=st.data(),
)
@settings(max_examples=40, deadline=None)
def test_step_layer_preserves_mass_and_mean(d, n, data):
    shape = (n + 1,) if d == 1 else (n + 1, n + 1)
    vals = data.draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            min_size=int(np.prod(shape)),
            max_size=int(np.prod(shape)),
        )
    )
    lay = np.array(vals).reshape(shape)
    out = walk.step_layer(lay, d)
    assert out.shape == ((n + 2,) if d == 1 else (n + 2, n + 2))
    assert float(out.sum()) == pytest.approx(float(lay.sum()), rel=1e-12, abs=1e-12)
    # first-moment preservation: mean position is unchanged by the fair step
    pos_in = walk.slice_positions(d, n)[0]
    pos_out = walk.slice_positions(d, n + 1)[0]
    assert float((out * pos_out).sum()) == pytest.approx(
        float((lay * pos_in).sum()), rel=1e-10, abs=1e-10
    )


def test_slice_sqnorm_values():
    assert walk.slice_sqnorm(1, 3).tolist() == [9.0, 1.0, 1.0, 9.0]
    sq = walk.slice_sqnorm(2, 2)
    # (u,v) grid corners are (+-2, +-2) -> |x|^2 = 4; center (0,0) -> 0
    assert sq[0, 0] == 4.0 and sq[1, 1] == 0.0 and sq[2, 0] == 4.0
    assert sq[1, 0] == 2.0


@pytest.mark.parametrize("d", [1, 2])
def test_packed_index_round_trips_and_refuses(d, kernel1, kernel2):
    # Every site of the packed slice maps back to its own index; every
    # other point of a box around the cone is off the cone or off parity,
    # where the kernel reads 0 and both environments refuse the site.
    kernel = kernel1 if d == 1 else kernel2
    for n in range(7):
        positions = walk.slice_positions(d, n)
        shape = walk.slice_shape(d, n)
        assert positions[0].shape == shape
        sites = set()
        for idx in np.ndindex(shape):
            x = tuple(int(p[idx]) for p in positions)
            assert walk.packed_index(d, n, x) == idx
            sites.add(x)
        assert len(sites) == walk.slice_size(d, n)
        fields = []
        if n >= 1:
            fld = environment.EnvironmentField(seed=7, d=d, horizon=n)
            fields = [fld, environment.EnvironmentTable.from_field(fld, n)]
        box = range(-n - 2, n + 3)
        for x in itertools.product(box, repeat=d):
            if x in sites:
                continue
            assert walk.packed_index(d, n, x) is None
            assert kernel.probability(n, x) == 0.0
            for env in fields:
                with pytest.raises(ValueError):
                    env.value(n, x)


def test_lclt_estimate_decay(kernel1, kernel2):
    r16 = abs(walk.lclt_estimate(kernel1, 16, (0,)).residual)
    r64 = abs(walk.lclt_estimate(kernel1, 64, (0,)).residual)
    # residual at the origin decays like n^(-3/2): factor ~ 8 per 4x in n
    assert 6.0 < r16 / r64 < 10.0
    s16 = abs(walk.lclt_estimate(kernel2, 16, (0, 0)).residual)
    s64 = abs(walk.lclt_estimate(kernel2, 64, (0, 0)).residual)
    # d=2: n^(-2) residual -> factor ~ 16
    assert 10.0 < s16 / s64 < 24.0


def test_lclt_estimate_parity_error(kernel1):
    with pytest.raises(ValueError):
        walk.lclt_estimate(kernel1, 3, (0,))


def test_residual_envelope_frozen_constants(kernel1, kernel2):
    env1 = walk.residual_envelope(kernel1, (1, 64))
    env2 = walk.residual_envelope(kernel2, (1, 64))
    # measured 0.199 / 0.346 (d=1) and 0.317 / 0.155 (d=2); frozen with margin
    assert 0.0 < env1.flat < 0.25
    assert 0.0 < env1.tail < 0.40
    assert 0.0 < env2.flat < 0.36
    assert 0.0 < env2.tail < 0.20


def test_residual_envelope_bounds_hold(kernel1):
    env = walk.residual_envelope(kernel1, (1, 64))
    for n in (10, 33, 64):
        sq = walk.slice_sqnorm(1, n)
        gauss = 2.0 * (1.0 / (2.0 * math.pi * n)) ** 0.5 * np.exp(-sq / (2.0 * n))
        resid = np.abs(kernel1.layer(n) - gauss)
        assert float(resid.max()) <= env.flat * n ** -1.5 + 1e-15
        mask = sq > 0
        assert np.all(resid[mask] <= env.tail / sq[mask] / math.sqrt(n) + 1e-15)


@given(
    d=st.sampled_from([1, 2]),
    m=st.integers(min_value=1, max_value=20),
    kind=st.sampled_from(["second", "fourth"]),
    data=st.data(),
)
@settings(max_examples=60, deadline=None)
def test_shifted_moment_closed_form(d, m, kind, data, kernel1, kernel2):
    kernel = kernel1 if d == 1 else kernel2
    if d == 1:
        y = (data.draw(st.integers(min_value=-6, max_value=6)),)
    else:
        y = (
            data.draw(st.integers(min_value=-4, max_value=4)),
            data.draw(st.integers(min_value=-4, max_value=4)),
        )
    got = walk.moment(kernel, kind, m, shift=y)
    ref = walk.closed_form_moment(d, kind, m, shift=y)
    assert got == pytest.approx(ref, rel=1e-11, abs=1e-11)


def test_shifted_moment_hand_values():
    # E|y + w(m)|^2 = |y|^2 + m; fourth moments from the binomial formulas
    assert walk.closed_form_moment(1, "second", 2, shift=(1,)) == 3.0
    assert walk.closed_form_moment(1, "fourth", 2, shift=(1,)) == 21.0
    assert walk.closed_form_moment(2, "fourth", 1, shift=(1, 0)) == 6.0


@pytest.mark.parametrize("d", [1, 2])
def test_collision_layer_moments_match_direct_sums(d, kernel1, kernel2):
    kernel = kernel1 if d == 1 else kernel2
    depth = kernel.n_max // 2
    q = walk.collision_layer_moments(d, depth)
    for g in range(1, depth + 1):
        lay = kernel.layer(g)
        sq = walk.slice_sqnorm(d, g)
        assert q.mass[g - 1] == pytest.approx(float((lay * lay).sum()), rel=1e-13)
        assert q.sq[g - 1] == pytest.approx(float((lay * lay * sq).sum()), rel=1e-13)
        assert q.quart[g - 1] == pytest.approx(float((lay * lay * sq * sq).sum()), rel=1e-13)


def test_collision_layer_moments_d2_factorisation_full_depth(kernel2):
    # The d = 2 pass holds only the 1-D binomial layer; pin it at every depth
    # the dense 2-D kernel holds, against the 2-D lattice sums and against
    # the collision identity sum_x p0(g, x)^2 = p0(2g, 0).
    depth = kernel2.n_max
    q = walk.collision_layer_moments(2, depth)
    assert q.mass.shape == q.sq.shape == q.quart.shape == (depth,)
    for g in range(1, depth + 1):
        q2 = kernel2.layer(g) ** 2
        sq = walk.slice_sqnorm(2, g)
        assert q.mass[g - 1] == pytest.approx(float(q2.sum()), rel=1e-13)
        assert q.mass[g - 1] == pytest.approx(walk.return_probability(2, 2 * g), rel=1e-13)
        assert q.sq[g - 1] == pytest.approx(float((q2 * sq).sum()), rel=1e-13)
        assert q.quart[g - 1] == pytest.approx(float((q2 * sq * sq).sum()), rel=1e-13)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 37, 4096])
def test_collision_layer_moments_closed_form(d, n, monkeypatch):
    # Closed form, O(n): no layer is stepped or weighted, and the mass is
    # the collision sequence itself, bit for bit.
    def no_layers(*args):
        raise AssertionError("collision_layer_moments built a layer")

    monkeypatch.setattr(walk, "step_layer", no_layers)
    monkeypatch.setattr(walk, "slice_sqnorm", no_layers)
    q = walk.collision_layer_moments(d, n)
    assert np.array_equal(q.mass, walk.central_return_sequence(d, n))


def test_build_kernel_validation():
    with pytest.raises(ValueError):
        walk.build_kernel(3, 4)
    with pytest.raises(ValueError):
        walk.build_kernel(1, -1)
    with pytest.raises(ValueError):
        walk.build_kernel(1, walk.MAX_KERNEL_DEPTH + 1)
    with pytest.raises(ValueError, match="--nmax"):
        walk.build_kernel(2, 2 ** 14)


def test_layers_are_immutable(kernel1):
    with pytest.raises(ValueError):
        kernel1.layer(3)[0] = 7.0


def reference_step(layer, d):
    """walk.step_layer on one slice as it was before it took stacks: add
    each of the 2d neighbours onto zeros, then scale."""
    n = layer.shape[0]
    if d == 1:
        out = np.zeros(n + 1)
        out[:-1] += layer
        out[1:] += layer
        out *= 0.5
        return out
    out = np.zeros((n + 1, n + 1))
    out[:-1, :-1] += layer
    out[:-1, 1:] += layer
    out[1:, :-1] += layer
    out[1:, 1:] += layer
    out *= 0.25
    return out


@given(
    d=st.sampled_from([1, 2]),
    n=st.integers(min_value=0, max_value=12),
    seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_step_layer_matches_reference_bit_for_bit(d, n, seed):
    # Nonnegative values over many binades, zeros and subnormals included.
    rng = np.random.default_rng(seed)
    lay = rng.random((n + 1,) * d) * 2.0 ** rng.integers(-1074, 1000, (n + 1,) * d)
    lay[rng.random(lay.shape) < 0.2] = 0.0
    assert walk.step_layer(lay, d).tobytes() == reference_step(lay, d).tobytes()


@pytest.mark.parametrize("d,n", [(1, 0), (1, 6), (2, 0), (2, 5)])
def test_step_layer_steps_each_slice_of_a_stack_alone(d, n):
    rng = np.random.default_rng(n)
    stack = rng.random((3,) + (n + 1,) * d)
    want = np.stack([walk.step_layer(lay, d) for lay in stack])
    assert walk.step_layer(stack, d).tobytes() == want.tobytes()
    out = np.full(want.shape, np.nan)
    assert walk.step_layer(stack, d, out=out) is out
    assert out.tobytes() == want.tobytes()
