import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polymer_lab import environment, walk

_U = np.uint64
SEEDS = (0, 1, 2 ** 64 - 1)


def _reference_finalize(z):
    z ^= z >> _U(30)
    z *= _U(environment._MIX_A)
    z ^= z >> _U(27)
    z *= _U(environment._MIX_B)
    z ^= z >> _U(31)
    return z


def _reference_absorb(state, words):
    with np.errstate(over="ignore"):
        z = words.astype(np.int64).astype(np.uint64)
        z += _U((int(state) + environment._GOLDEN) & environment._MASK)
        return _reference_finalize(z)


def reference_slice_signs(seed, d, n):
    """The vector slice hash as it was before SignHasher: one absorb per
    word over the whole slice, two full finalizes per site in d = 2."""
    state = environment.hash_words(seed, n)
    if d == 1:
        (xs,) = walk.slice_positions(1, n)
        z = _reference_absorb(state, xs)
    else:
        x1, x2 = walk.slice_positions(2, n)
        z = _reference_absorb(state, x1)
        with np.errstate(over="ignore"):
            z += x2.astype(np.int64).astype(np.uint64)
            z += _U(environment._GOLDEN)
            z = _reference_finalize(z)
    return 1.0 - 2.0 * (z >> _U(63)).astype(np.float64)

# Frozen seed-derivation goldens: these values are a compatibility contract
# (archived runs are replayable only if they never change).
DERIVED_SEED_GOLDENS = {
    (0, 0, 0): 8565540679836457251,
    (0, 0, 1): 11069304462203028372,
    (0, 1, 0): 3641617979310540863,
    (1, 0, 0): 4044108308971250965,
}


def test_derive_replica_seed_goldens():
    for (m, g, r), want in DERIVED_SEED_GOLDENS.items():
        assert environment.derive_replica_seed(m, g, r) == want


@given(
    master=st.integers(min_value=0, max_value=2 ** 64 - 1),
    grid=st.integers(min_value=0, max_value=63),
    replica=st.integers(min_value=0, max_value=10 ** 6),
)
@settings(max_examples=80, deadline=None)
def test_derive_replica_seed_range(master, grid, replica):
    s = environment.derive_replica_seed(master, grid, replica)
    assert 0 <= s < 2 ** 64


def test_values_are_pm_one():
    field = environment.EnvironmentField(seed=5, d=1, horizon=16)
    vals = {field.value(n, (2 * j - n,)) for n in range(1, 17) for j in range(n + 1)}
    assert vals == {-1.0, 1.0}


@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1), n=st.integers(min_value=1, max_value=12))
@settings(max_examples=40, deadline=None)
def test_scalar_vector_agreement_d1(seed, n):
    field = environment.EnvironmentField(seed=seed, d=1, horizon=12)
    sl = field.slice_signs(n)
    for j in range(n + 1):
        assert sl[j] == field.value(n, (2 * j - n,))


@given(seed=st.integers(min_value=0, max_value=2 ** 64 - 1), n=st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_scalar_vector_agreement_d2(seed, n):
    field = environment.EnvironmentField(seed=seed, d=2, horizon=8)
    sl = field.slice_signs(n)
    for iu in range(n + 1):
        for iv in range(n + 1):
            u, v = 2 * iu - n, 2 * iv - n
            x = ((u + v) // 2, (u - v) // 2)
            assert sl[iu, iv] == field.value(n, x)


def test_reproducible_and_seed_sensitive():
    a = environment.EnvironmentField(seed=1234, d=2, horizon=20).slice_signs(11)
    b = environment.EnvironmentField(seed=1234, d=2, horizon=20).slice_signs(11)
    c = environment.EnvironmentField(seed=1235, d=2, horizon=20).slice_signs(11)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_site_validation():
    field = environment.EnvironmentField(seed=1, d=1, horizon=4)
    with pytest.raises(ValueError):
        field.value(5, (1,))  # beyond horizon
    with pytest.raises(ValueError):
        field.value(2, (1,))  # parity
    with pytest.raises(ValueError):
        field.value(2, (4,))  # outside cone
    with pytest.raises(ValueError):
        field.slice_signs(0)  # no signs at time zero


def test_fairness_at_frozen_seed():
    # Statistical check at one pinned seed (deterministic, no flake): mean of
    # ~0.5M signs within 4/sqrt(M), negligible lag-1 correlations.
    field = environment.EnvironmentField(seed=777, d=2, horizon=800)
    sl = field.slice_signs(700)
    m = sl.size
    assert abs(float(sl.mean())) < 4.0 / np.sqrt(m)
    row = float(np.mean(sl[:, :-1] * sl[:, 1:]))
    col = float(np.mean(sl[:-1, :] * sl[1:, :]))
    assert abs(row) < 4.0 / np.sqrt(sl[:, :-1].size)
    assert abs(col) < 4.0 / np.sqrt(sl[:-1, :].size)
    nxt = field.slice_signs(701)[:700, :700].ravel()
    cur = sl[:700, :700].ravel()
    assert abs(float(np.mean(cur * nxt))) < 4.0 / np.sqrt(cur.size)


def test_constant_table():
    tab = environment.EnvironmentTable.constant(1, 5, -1.0)
    assert tab.value(3, (1,)) == -1.0
    assert np.all(tab.slice_signs(4) == -1.0)
    with pytest.raises(ValueError):
        environment.EnvironmentTable.constant(1, 5, 0.5)


def _good_slices(d, horizon):
    return environment.EnvironmentTable.constant(d, horizon, 1).slices


@pytest.mark.parametrize(
    "d,horizon,slices,match",
    [
        (1, 3, _good_slices(1, 2), "2 slices for horizon 3"),
        (1, 1, _good_slices(1, 2), "2 slices for horizon 1"),
        (1, 2, (np.ones(2), np.ones(2)), "time 2 has shape"),
        (2, 2, (np.ones((2, 2)), np.ones(3)), "time 2 has shape"),
        (1, 1, (np.array([0.5, 1.0]),), "time 1 holds a value"),
        (1, 2, (np.ones(2), np.array([1.0, -0.0, -1.0])), "time 2 holds a value"),
        (1, 1, (np.array([1, -1]),), "time 1 holds a value"),
        (1, 1, (np.array([np.nan, 1.0]),), "time 1 holds a value"),
    ],
)
def test_table_refuses_bad_slices(d, horizon, slices, match):
    with pytest.raises(ValueError, match=match):
        environment.EnvironmentTable(d=d, horizon=horizon, slices=slices)


def test_from_field_round_trip():
    field = environment.EnvironmentField(seed=3, d=2, horizon=5)
    tab = environment.EnvironmentTable.from_field(field, 5)
    for n in range(1, 6):
        assert np.array_equal(tab.slice_signs(n), field.slice_signs(n))


def test_from_assignment_bit_order():
    # bit b of the integer (LSB first, slice-major order) set -> sign -1
    tab = environment.EnvironmentTable.from_assignment(1, 2, 0b00001)
    assert tab.slice_signs(1).tolist() == [-1.0, 1.0]
    assert tab.slice_signs(2).tolist() == [1.0, 1.0, 1.0]
    tab = environment.EnvironmentTable.from_assignment(1, 2, 0b00100)
    assert tab.slice_signs(1).tolist() == [1.0, 1.0]
    assert tab.slice_signs(2).tolist() == [-1.0, 1.0, 1.0]


def test_enumeration_is_exhaustive_and_distinct():
    tables = list(environment.enumerate_environments(1, 2))
    assert len(tables) == 2 ** 5
    seen = {tuple(np.concatenate([t.slice_signs(n) for n in (1, 2)])) for t in tables}
    assert len(seen) == 2 ** 5


def test_enumeration_guard():
    with pytest.raises(ValueError):
        list(environment.enumerate_environments(1, 7))  # 2+..+8 = 35 sites > 24


def test_cone_site_count():
    assert environment.cone_site_count(1, 4) == 2 + 3 + 4 + 5
    assert environment.cone_site_count(2, 2) == 4 + 9


def _corners(d, n):
    if d == 1:
        return [(0,), (n,)], [(-n,), (n,)]
    idx = [(0, 0), (0, n), (n, 0), (n, n)]
    # (i, j) -> u = 2i - n, v = 2j - n -> x = ((u + v)/2, (u - v)/2)
    return idx, [(i + j - n, i - j) for i, j in idx]


@given(
    extra=st.lists(st.integers(min_value=0, max_value=2 ** 64 - 1), max_size=3),
    d=st.sampled_from([1, 2]),
)
@settings(max_examples=20, deadline=None)
def test_hasher_matches_reference_bit_for_bit(extra, d):
    horizon = 300 if d == 1 else 40
    seeds = list(SEEDS) + extra
    hasher = environment.SignHasher(seeds, d, horizon)
    for n in (1, 2, 3, 17, horizon):
        got = hasher.sign_bits(n)
        assert got.shape == (len(seeds),) + (n + 1,) * d
        for row, seed in zip(got, seeds):
            want = reference_slice_signs(seed, d, n)
            assert row.dtype == _U and row.tobytes() == _reference_sign_bits(seed, d, n).tobytes()
            fld = environment.EnvironmentField(seed=seed, d=d, horizon=horizon)
            signs = fld.slice_signs(n)
            assert signs.dtype == want.dtype and signs.tobytes() == want.tobytes()
            for idx, x in zip(*_corners(d, n)):
                assert 1 - 2 * int(row[idx] >> _U(63)) == signs[idx] == fld.value(n, x)


def test_hasher_reuses_its_buffers():
    hasher = environment.SignHasher(SEEDS, 2, 9)
    bits = hasher.sign_bits(5, tmp=np.full((3, 6, 6), 7, dtype=_U))
    first = bits.copy()
    assert np.shares_memory(hasher.sign_bits(9), bits)  # fills the whole buffer
    assert np.array_equal(hasher.sign_bits(5), first)
    for row, seed in zip(first, SEEDS):
        assert np.array_equal(row, _reference_sign_bits(seed, 2, 5))
    with pytest.raises(ValueError):
        hasher.sign_bits(10)
    with pytest.raises(ValueError):
        hasher.sign_bits(0)
    late = environment.SignHasher(SEEDS, 2, 9, first=5)
    assert late.sign_bits(5).tobytes() == first.tobytes()
    with pytest.raises(ValueError):
        late.sign_bits(4)
    with pytest.raises(ValueError):
        environment.SignHasher(SEEDS, 3, 9)


def _reference_sign_bits(seed, d, n):
    """reference_slice_signs as sign bits: bit 63 set where the sign is -1."""
    return reference_slice_signs(seed, d, n).view(_U) & _U(1 << 63)


def test_hasher_sign_bits_match_reference_in_windows():
    hasher = environment.SignHasher(SEEDS, 1, 300)
    windows = {n: [(lo, w) for lo in range(n + 1) for w in range(1, n + 2 - lo)] for n in (1, 2, 17)}
    windows[300] = [(0, 301), (0, 1), (300, 1), (100, 57), (1, 299)]
    for n, spans in windows.items():
        want = np.stack([_reference_sign_bits(seed, 1, n) for seed in SEEDS])
        for lo, width in spans:
            got = hasher.sign_bits(n, lo, width)
            assert got.dtype == _U and got.tobytes() == want[:, lo : lo + width].tobytes()
        tmp = np.empty((len(SEEDS), n + 1), dtype=_U)
        assert hasher.sign_bits(n, tmp=tmp).tobytes() == want.tobytes()
    for lo, width in ((-1, 3), (0, 0), (299, 3)):
        with pytest.raises(ValueError, match="window"):
            hasher.sign_bits(300, lo, width)


def test_hasher_sign_bits_match_reference_in_whole_slices_d2():
    hasher = environment.SignHasher(SEEDS, 2, 40)
    for n in (1, 2, 17, 40):
        want = np.stack([_reference_sign_bits(seed, 2, n) for seed in SEEDS])
        assert hasher.sign_bits(n).tobytes() == want.tobytes()
        assert hasher.sign_bits(n, 0, n + 1).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="whole slices"):
        hasher.sign_bits(17, 1, 17)


@pytest.mark.parametrize("d,horizon", [(1, 40), (2, 12)])
def test_stack_sign_bits_of_fields_tables_and_mixed_stacks(d, horizon):
    fields = [environment.EnvironmentField(seed=seed, d=d, horizon=horizon) for seed in SEEDS]
    tables = [environment.EnvironmentTable.from_field(fld, horizon) for fld in fields]
    stacks = (fields, tables, [fields[0], tables[1], fields[2]])
    sources = [environment.stack_sign_bits(stack, horizon) for stack in stacks]
    assert isinstance(sources[0].__self__, environment.SignHasher)
    for n in (1, 2, 7, horizon):
        want = np.stack([_reference_sign_bits(seed, d, n) for seed in SEEDS])
        spans = [(0, n + 1)]
        if d == 1:
            spans += [(0, 1), (n, 1), (1, max(1, n - 1)), (n // 2, n + 1 - n // 2)]
        for lo, width in spans:
            for source in sources:
                tmp = np.zeros((len(SEEDS),) + (width,) * d, dtype=_U)
                got = source(n, lo, width, tmp=tmp)
                tmp[...] = _U(2 ** 64 - 1)  # the engine writes its weights there
                assert got.dtype == _U and got.tobytes() == want[..., lo : lo + width].tobytes()
