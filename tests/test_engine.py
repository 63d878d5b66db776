import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymer_lab import engine, environment, walk
from test_environment import reference_slice_signs
from test_walk import reference_step


def _random_field(seed, d, horizon):
    return environment.EnvironmentField(seed=seed, d=d, horizon=horizon)


def test_zero_disorder_is_free_walk():
    for d in (1, 2):
        env = _random_field(1, d, 12)
        lay = engine.evolve_density(env, 0.0, 12)
        obs = engine.observables(lay)
        assert obs.Z == pytest.approx(1.0, abs=1e-14)
        assert obs.K == pytest.approx(12.0, rel=1e-14)
        assert obs.msd == pytest.approx(12.0, rel=1e-14)
        kernel = walk.build_kernel(d, 12)
        assert np.allclose(lay.values, kernel.layer(12), atol=1e-15)


def test_constant_environment_scales_z_only():
    # h identically +1 multiplies every path weight by (1+c)^N and leaves
    # msd at the free-walk value.
    c, N = 0.25, 7
    for d in (1, 2):
        tab = environment.EnvironmentTable.constant(d, N, 1)
        obs = engine.observables(engine.evolve_density(tab, c, N))
        assert obs.Z == pytest.approx((1 + c) ** N, rel=1e-13)
        assert obs.msd == pytest.approx(float(N), rel=1e-13)


@pytest.mark.parametrize("d,n_hi", [(1, 10), (2, 5)])
def test_engine_matches_brute_force(d, n_hi):
    worst = 0.0
    for seed in range(20):
        N = 1 + seed % n_hi
        env = _random_field(1000 + seed, d, N)
        obs = engine.observables(engine.evolve_density(env, 0.4, N))
        ref = engine.brute_force_observables(env, 0.4, N)
        worst = max(worst, abs(obs.Z - ref.Z) / ref.Z, abs(obs.K - ref.K) / max(ref.K, 1.0))
    assert worst < 1e-12


@given(
    d=st.sampled_from([1, 2]),
    c=st.floats(min_value=0.0, max_value=0.9),
    bits=st.integers(min_value=0, max_value=2 ** 13 - 1),
)
@settings(max_examples=40, deadline=None)
def test_engine_matches_brute_force_enumerated(d, c, bits):
    N = 3 if d == 1 else 2
    tab = environment.EnvironmentTable.from_assignment(d, N, bits % 2 ** environment.cone_site_count(d, N))
    obs = engine.observables(engine.evolve_density(tab, c, N))
    ref = engine.brute_force_observables(tab, c, N)
    assert obs.Z == pytest.approx(ref.Z, rel=1e-13)
    assert obs.K == pytest.approx(ref.K, rel=1e-13, abs=1e-13)


def test_path_batches_cover_all_paths():
    for d, N in ((1, 6), (2, 3)):
        batches = list(engine.path_batches(d, N))
        total = sum(end.shape[0] for _, end in batches)
        assert total == (2 * d) ** N
        # endpoint square norms over all paths average to the second moment
        ends = np.concatenate([end for _, end in batches])
        assert float(ends.mean()) == pytest.approx(walk.closed_form_moment(d, "second", N), rel=1e-12)


def test_density_positive_and_normalized_mean():
    env = _random_field(7, 1, 30)
    lay = engine.evolve_density(env, 0.5, 30)
    assert np.all(lay.values >= 0.0)
    assert lay.n == 30


def test_observables_rejects_nonpositive_z():
    lay = engine.DensityLayer(d=1, n=2, values=np.zeros(3))
    with pytest.raises(ValueError):
        engine.observables(lay)


def test_run_arg_validation():
    env = _random_field(1, 1, 4)
    with pytest.raises(ValueError):
        engine.evolve_density(env, 1.0, 4)  # c must be < 1
    with pytest.raises(ValueError):
        engine.evolve_density(env, -0.1, 4)
    with pytest.raises(ValueError):
        engine.evolve_density(env, 0.3, 0)
    with pytest.raises(ValueError):
        engine.evolve_density(env, 0.3, 5)  # horizon too small


def test_lockstep_matches_single_passes():
    for d, N in ((1, 17), (2, 9)):
        envs = [_random_field(seed, d, N) for seed in range(4)]
        envs.append(environment.EnvironmentTable.from_field(_random_field(9, d, N), N))
        for env, got in zip(envs, engine.evolve_replicas(envs, 0.3, N)):
            want = engine.evolve_density(env, 0.3, N)
            assert np.array_equal(got.values, want.values)
            assert got.linear == want.linear
    with pytest.raises(ValueError):
        engine.evolve_replicas([], 0.3, 4)
    with pytest.raises(ValueError):
        engine.evolve_replicas([_random_field(1, 1, 4), _random_field(1, 2, 4)], 0.3, 4)


def _reference_signs(env, n):
    if isinstance(env, environment.EnvironmentField):
        return reference_slice_signs(env.seed, env.d, n)
    return env.slice_signs(n)


def _reference_replicas(envs, c, N):
    """The recursion one replica and step at a time over whole slices: one
    slice hash, one step, one weight multiply, one sum checked against the
    limit at every step, and the linear term as the pairwise sum of p0 * h.
    Returns (values, linear) per environment."""
    d = envs[0].d
    p0 = np.ones((1,) * d)
    lays = [p0] * len(envs)
    comps = [np.empty(N) for _ in envs]
    for n in range(1, N + 1):
        p0 = reference_step(p0, d)
        sums = []
        for i, env in enumerate(envs):
            signs = _reference_signs(env, n)
            lay = reference_step(lays[i], d)
            lay *= 1.0 + c * signs
            sums.append(lay.sum())
            comps[i][n - 1] = c * float((p0.ravel() * signs.ravel()).sum())
            lays[i] = lay
        if not max(sums) <= engine.DENSITY_SUM_LIMIT:
            raise OverflowError(
                f"density sum {max(sums)} exceeded {engine.DENSITY_SUM_LIMIT} at step {n}"
            )
    return [(lay, float(np.sum(comp))) for lay, comp in zip(lays, comps)]


def _task(d, N, size, seeds):
    """size environments; every third one is a table, so lists mix types."""
    envs = []
    for k in range(size):
        fld = _random_field(seeds[k % len(seeds)] ^ k, d, N)
        envs.append(environment.EnvironmentTable.from_field(fld, N) if k % 3 == 2 else fld)
    return envs


@pytest.mark.parametrize(
    "d,N,c",
    [(1, 1, 0.3), (1, 2, 0.3), (1, 17, 0.6), (1, 300, 0.3), (2, 1, 0.3), (2, 3, 0.6), (2, 17, 0.3)],
)
@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_stacked_pass_matches_reference_bit_for_bit(d, N, c, size):
    seeds = (0, 1, 2 ** 64 - 1, 0x5DEECE66D, 0x2545F4914F6CDD1D)
    for envs in (_task(d, N, size, seeds), [_random_field(s, d, N) for s in seeds[:size]]):
        got = engine.evolve_replicas(envs, c, N)
        for layer, (values, linear) in zip(got, _reference_replicas(envs, c, N), strict=True):
            assert layer.values.tobytes() == values.tobytes()
            assert layer.linear == linear


def test_stacked_pass_above_blas_threshold_and_across_row_blocks():
    # At d = 2, N = 130 a slice has 131^2 > 10^4 sites, where a BLAS dot
    # would split across threads, and a row block holds fewer than 5
    # replicas: the engine steps the stack it is given, whatever its size.
    d, N = 2, 130
    assert engine.block_rows(d, N) < 5
    envs = _task(d, N, 5, (3, 2 ** 64 - 1))
    for layer, (values, linear) in zip(
        engine.evolve_replicas(envs, 0.3, N), _reference_replicas(envs, 0.3, N), strict=True
    ):
        assert layer.values.tobytes() == values.tobytes()
        assert layer.linear == linear


def _assert_matches_reference(envs, c, N):
    got = engine.evolve_replicas(envs, c, N)
    for layer, (values, linear) in zip(got, _reference_replicas(envs, c, N), strict=True):
        assert layer.values.tobytes() == values.tobytes()
        assert layer.linear == linear


@pytest.mark.parametrize("c,limit", [(0.0825, None), (0.6, None), (0.3, 1e120)])
@pytest.mark.parametrize("size", [1, 2, 3])
def test_windowed_pass_matches_reference_bit_for_bit(monkeypatch, c, limit, size):
    # At d = 1, N = 1500 the tails of p0 and of every layer underflow to
    # exactly 0.0 from about n = 1075 on, so the pass runs on a window
    # narrower than the slice.  At the limit 1e120 the guard sums run from
    # n = 1050 on, across the trimmed steps.
    if limit is not None:
        monkeypatch.setattr(engine, "DENSITY_SUM_LIMIT", limit)
    _assert_matches_reference(_task(1, 1500, size, (7, 2 ** 64 - 1)), c, 1500)


def test_windowed_pass_hashes_fewer_sites_than_the_cone(monkeypatch):
    widths = []
    inner = environment.SignHasher.sign_bits

    def spy(self, n, lo=0, width=None, tmp=None):
        widths.append(width)
        return inner(self, n, lo, width, tmp)

    monkeypatch.setattr(environment.SignHasher, "sign_bits", spy)
    N = 1500
    engine.evolve_replicas([_random_field(s, 1, N) for s in (7, 8)], 0.0825, N)
    assert len(widths) == N
    # 2.6% of the cone's sites are 0.0 in p0 and in both layers.
    assert sum(widths) < 0.98 * environment.cone_site_count(1, N)


@pytest.mark.parametrize("d,N", [(1, 60), (2, 24)])
@pytest.mark.parametrize("c", [0.3, 0.9])
@pytest.mark.parametrize("limit", [2.0, 10.0, 1e3, 1e6])
def test_overflow_guard_matches_a_per_step_guard(monkeypatch, d, N, c, limit):
    # The +1 row's sum is (1 + c)^n; the guard skips its sums only at steps
    # where no row can come within a factor e of the limit, so it raises at
    # the step the per-step guard does, with the same message.
    monkeypatch.setattr(engine, "DENSITY_SUM_LIMIT", limit)
    envs = [_random_field(5, d, N), environment.EnvironmentTable.constant(d, N, 1)]
    envs.append(environment.EnvironmentTable.from_field(_random_field(6, d, N), N))
    try:
        want = _reference_replicas(envs, c, N)
    except OverflowError as exc:
        with pytest.raises(OverflowError) as got:
            engine.evolve_replicas(envs, c, N)
        assert str(got.value) == str(exc)
    else:
        for layer, (values, _) in zip(engine.evolve_replicas(envs, c, N), want, strict=True):
            assert layer.values.tobytes() == values.tobytes()


def test_overflow_guard_names_the_step(monkeypatch):
    # Under h = +1 the layer sum is (1 + c)^n; one such row in a block of
    # decaying ones trips the guard at the first step above the limit.
    monkeypatch.setattr(engine, "DENSITY_SUM_LIMIT", 10.0)
    for d in (1, 2):
        envs = [environment.EnvironmentTable.constant(d, 6, s) for s in (-1, -1, 1)]
        with pytest.raises(OverflowError, match="at step 4$"):
            list(engine.evolve_replicas(envs, 0.9, 6))
        list(engine.evolve_replicas(envs[:2], 0.9, 6))


def test_determinism():
    env = _random_field(99, 2, 9)
    a = engine.evolve_density(env, 0.3, 9)
    b = engine.evolve_density(env, 0.3, 9)
    assert np.array_equal(a.values, b.values)
