"""Counter-based +/-1 environment field and exhaustive small-cone enumeration.

The field value at a space-time site is a pure function of (seed, n, x): the
seed and the site words are absorbed one at a time into a splitmix64-style
chain and the sign is the top bit of the final state.  No generator state is
ever advanced, so lookups are order independent, thread safe and reproducible
across platforms; two replicas differ only through their seeds.

So a time slice of many fields can be hashed in one vector pass (the
counter-based generators of Salmon et al., "Parallel random numbers: as
easy as 1, 2, 3", SC'11).
SignHasher does that for the sampler's row blocks at one finalize per site;
in d = 2 the first site word takes only 2n + 1 values per slice, so it is
finalized once per field and broadcast through a Hankel view.  Its one
output, sign_bits, keeps the sign as bit 63 of a uint64 (set for -1), and
in d = 1 hashes any window of consecutive sites.  stack_sign_bits is where
the sampler takes a stack's sign bits from.  EnvironmentField.slice_signs
ORs the bits of 1.0 into a one-field sign_bits, and EnvironmentField.value
is the independent scalar route.

Replica seed derivation is part of the on-disk contract: CSV outputs record
per-replica seeds, and re-running any single replica from its recorded seed
must reproduce its row.  The chain below is therefore frozen (see
derive_replica_seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .walk import as_point, check_dim, packed_index, slice_shape, slice_size

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
# Bit pattern of the float64 1.0.
_ONE_BITS = 0x3FF0000000000000
# The sign bit of a float64; SignHasher.sign_bits sets it where h = -1.
_SIGN_BIT = 1 << 63
# Domain separation word for replica seed derivation.
_REPLICA_DOMAIN = 0x7265706C69636173

# Exhaustive enumeration is capped so 2^(site count) stays enumerable.
MAX_ENUMERATION_SITES = 24


def _finalize(z: int) -> int:
    z &= _MASK
    z ^= z >> 30
    z = (z * _MIX_A) & _MASK
    z ^= z >> 27
    z = (z * _MIX_B) & _MASK
    z ^= z >> 31
    return z


def hash_words(seed: int, *words: int) -> int:
    """Absorb integer words (two's complement, 64-bit) into a mixed state."""
    state = _finalize((seed + _GOLDEN) & _MASK)
    for w in words:
        state = _finalize((state + _GOLDEN + (w & _MASK)) & _MASK)
    return state


def _finalize_sign_bit(z: np.ndarray, tmp: np.ndarray) -> None:
    """_finalize over a uint64 array in place, up to its last step.

    The last step, z ^= z >> 31, leaves bit 63 as it is, and the sign reads
    only bit 63, so it is skipped.  tmp is a buffer of z's shape.
    """
    np.right_shift(z, np.uint64(30), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX_A)
    np.right_shift(z, np.uint64(27), out=tmp)
    z ^= tmp
    z *= np.uint64(_MIX_B)


def _finalize_vec(z: np.ndarray) -> np.ndarray:
    """_finalize over a uint64 array in place: _finalize_sign_bit and its last step."""
    _finalize_sign_bit(z, np.empty_like(z))
    z ^= z >> np.uint64(31)
    return z


def derive_replica_seed(master_seed: int, grid_index: int, replica_index: int) -> int:
    """Stable per-replica seed: H(master, domain, grid_index, replica_index).

    Frozen contract; golden values are pinned in the test suite.  Changing
    this chain silently invalidates every recorded CSV, so do not.
    """
    return hash_words(master_seed, _REPLICA_DOMAIN, grid_index, replica_index)


def cone_site_count(d: int, horizon: int) -> int:
    """Total parity-valid sites with 1 <= n <= horizon."""
    return sum(slice_size(d, n) for n in range(1, horizon + 1))


def _site_index(d: int, horizon: int, n: int, x) -> tuple[int, ...]:
    """Packed index of site x at time n; refuses sites outside the field."""
    if not 1 <= n <= horizon:
        raise ValueError(f"time {n} outside environment horizon [1, {horizon}]")
    idx = packed_index(d, n, x)
    if idx is None:
        raise ValueError(f"site {x} outside the light cone or off parity at time {n}")
    return idx


class SignHasher:
    """Signs of one time slice of several fields, hashed in one vector pass.

    Built for the seeds of R fields in dimension d for the times first to
    horizon (first defaults to 1); sign_bits(n) returns the packed slices of
    all R fields at time n stacked on a leading axis, shape (R, n+1) or
    (R, n+1, n+1), with each sign of EnvironmentField.value as bit 63 of a
    uint64, and in d = 1 hashes a window of the slice only.  The per-time
    states and the uint64 hash-word buffer, sized for the slices at the
    horizon, are made once, so a pass over many times allocates nothing per
    slice but the finalizer's scratch when tmp is not given.

    Each site costs one add and one finalize:

    - d = 1: the word x = 2j - n of every site is added to the state of each
      field, then finalized.
    - d = 2: the first word x1 = i + j - n takes only 2n + 1 values, so
      those are finalized once per field and read through a Hankel view
      (entry (i, j) is element i + j).  The second word x2 = i - j, plus
      _GOLDEN, is a Toeplitz view of one (2n+1)-array shared by all fields.
      Their sum is finalized once per site.
    """

    def __init__(self, seeds, d: int, horizon: int, first: int = 1) -> None:
        check_dim(d)
        self.d = d
        self.horizon = horizon
        self.first = first
        # Row n-first holds hash_words(seed, n) + _GOLDEN for each field: the
        # state after absorbing n, plus the _GOLDEN of the next absorb.
        seed_states = np.array(
            [(_finalize(seed + _GOLDEN) + _GOLDEN) & _MASK for seed in seeds], dtype=np.uint64
        )
        times = np.arange(first, horizon + 1, dtype=np.uint64)
        self._states = _finalize_vec(times[:, None] + seed_states)
        self._states += np.uint64(_GOLDEN)
        # The words -horizon, ..., horizon as uint64 (two's complement).
        self._words = np.arange(-horizon, horizon + 1, dtype=np.int64).view(np.uint64)
        self._z = np.empty(len(seed_states) * slice_size(d, horizon), dtype=np.uint64)

    def sign_bits(
        self, n: int, lo: int = 0, width: int | None = None, tmp: np.ndarray | None = None
    ) -> np.ndarray:
        """Stacked sign bits at time n: bit 63 set where the sign is -1, every
        other bit clear.

        In d = 1 only the packed indices lo, ..., lo + width - 1 are hashed
        (all n + 1 by default), shape (R, width); d = 2 hashes the whole
        slice, shape (R, n+1, n+1).  The result is a view of the hasher's
        uint64 buffer, valid until the next call.  tmp, if given, is the
        finalizer's scratch space, a uint64 array of the result's shape.
        """
        if not self.first <= n <= self.horizon:
            raise ValueError(f"time {n} outside the hashed times [{self.first}, {self.horizon}]")
        if width is None:
            width = n + 1 - lo
        if not (0 <= lo and 1 <= width and lo + width <= n + 1):
            raise ValueError(f"window [{lo}, {lo + width}) outside the slice at time {n}")
        if self.d == 2 and width != n + 1:
            raise ValueError("d = 2 hashes whole slices only")
        states = self._states[n - self.first, :, None]
        shape = states.shape[:1] + (width,) * self.d
        z = self._z[: states.shape[0] * width**self.d].reshape(shape)
        # Entry k is the word k - n, k = 0..2n; index j of the slice has word 2j - n.
        words = self._words[self.horizon - n : self.horizon + n + 1]
        if self.d == 1:
            np.add(states, words[2 * lo : 2 * (lo + width) - 1 : 2], out=z)
        else:
            first = _finalize_vec(states + words)
            second = words + np.uint64(_GOLDEN)
            hankel = sliding_window_view(first, n + 1, axis=1)
            toeplitz = sliding_window_view(second[::-1], n + 1)[::-1]
            np.add(hankel, toeplitz, out=z)
        _finalize_sign_bit(z, np.empty_like(z) if tmp is None else tmp)
        z &= np.uint64(_SIGN_BIT)
        return z


@dataclass(frozen=True)
class EnvironmentField:
    """Deterministic +/-1 field over the light cone, keyed by a 64-bit seed."""

    seed: int
    d: int
    horizon: int

    def __post_init__(self) -> None:
        check_dim(self.d)
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    def value(self, n: int, x) -> int:
        """Sign at one site; scalar reference path for the vectorized slices."""
        _site_index(self.d, self.horizon, n, x)
        h = hash_words(self.seed, n, *as_point(x, self.d))
        return 1 - 2 * (h >> 63)

    def slice_signs(self, n: int) -> np.ndarray:
        """Packed +/-1.0 float array over the parity slice at time n.

        Layout matches TransitionKernel layers (see walk module docstring).
        A one-field SignHasher's sign_bits, deriving time n's state alone.
        """
        if not 1 <= n <= self.horizon:
            raise ValueError(f"time {n} outside environment horizon [1, {self.horizon}]")
        bits = SignHasher([self.seed], self.d, n, first=n).sign_bits(n)[0]
        # A set sign bit on the bits of 1.0 makes -1.0.
        bits |= np.uint64(_ONE_BITS)
        return bits.view(np.float64)


@dataclass(frozen=True)
class EnvironmentTable:
    """Explicit sign assignment over a small cone; same interface as the field."""

    d: int
    horizon: int
    slices: tuple = field(repr=False)

    def __post_init__(self) -> None:
        """One float64 slice of shape slice_shape(d, n) per time n = 1..horizon,
        every entry exactly +1.0 or -1.0: the sampler reads a sign from its
        sign bit alone."""
        check_dim(self.d)
        if len(self.slices) != self.horizon:
            raise ValueError(
                f"{len(self.slices)} slices for horizon {self.horizon}; "
                f"need one for each time n = 1..{self.horizon}"
            )
        for n, lay in enumerate(self.slices, start=1):
            if np.shape(lay) != slice_shape(self.d, n):
                raise ValueError(
                    f"slice at time {n} has shape {np.shape(lay)}, "
                    f"want {slice_shape(self.d, n)}"
                )
            if not (
                isinstance(lay, np.ndarray)
                and lay.dtype == np.float64
                and np.all(np.abs(lay) == 1.0)
            ):
                raise ValueError(f"slice at time {n} holds a value other than float64 +1.0 or -1.0")

    def value(self, n: int, x) -> int:
        return int(self.slices[n - 1][_site_index(self.d, self.horizon, n, x)])

    def slice_signs(self, n: int) -> np.ndarray:
        if not 1 <= n <= self.horizon:
            raise ValueError(f"time {n} outside environment horizon [1, {self.horizon}]")
        return self.slices[n - 1]

    @classmethod
    def constant(cls, d: int, horizon: int, sign: int = 1) -> "EnvironmentTable":
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        slices = []
        for n in range(1, horizon + 1):
            lay = np.full(slice_shape(d, n), float(sign))
            lay.flags.writeable = False
            slices.append(lay)
        return cls(d=d, horizon=horizon, slices=tuple(slices))

    @classmethod
    def from_field(cls, fld: EnvironmentField, horizon: int) -> "EnvironmentTable":
        slices = []
        for n in range(1, horizon + 1):
            lay = fld.slice_signs(n).copy()
            lay.flags.writeable = False
            slices.append(lay)
        return cls(d=fld.d, horizon=horizon, slices=tuple(slices))

    @classmethod
    def from_assignment(cls, d: int, horizon: int, bits: int) -> "EnvironmentTable":
        """Sign table number `bits`: bit b (LSB first, canonical cone order)
        set means -1 at site b, clear means +1."""
        slices = []
        offset = 0
        for n in range(1, horizon + 1):
            size = slice_size(d, n)
            idx = np.arange(offset, offset + size, dtype=np.uint64)
            b = (np.uint64(bits) >> idx) & np.uint64(1)
            lay = (1.0 - 2.0 * b.astype(np.float64)).reshape(slice_shape(d, n))
            lay.flags.writeable = False
            slices.append(lay)
            offset += size
        return cls(d=d, horizon=horizon, slices=tuple(slices))


def stack_sign_bits(envs, N: int):
    """The sign-bit source of a stack of environments over the times 1..N.

    Returns sign_bits(n, lo, width, tmp) with SignHasher.sign_bits's
    contract; the bits never live in tmp, the caller's scratch.  A stack of
    EnvironmentFields is one SignHasher; any other stack is read row by row
    from each environment's slice_signs into a buffer of its own.
    """
    d = envs[0].d
    if all(isinstance(env, EnvironmentField) for env in envs):
        return SignHasher([env.seed for env in envs], d, N).sign_bits
    buf = np.empty(len(envs) * slice_size(d, N), dtype=np.uint64)

    def sign_bits(n: int, lo: int, width: int, tmp: np.ndarray | None = None) -> np.ndarray:
        bits = buf[: len(envs) * width**d].reshape((len(envs),) + (width,) * d)
        for row, env in zip(bits, envs):
            signs = env.slice_signs(n)[..., lo : lo + width]
            np.bitwise_and(signs.view(np.uint64), np.uint64(_SIGN_BIT), out=row)
        return bits

    return sign_bits


def enumerate_environments(d: int, horizon: int):
    """Yield every sign assignment over the cone up to `horizon`, exactly once.

    Requires cone_site_count(d, horizon) <= MAX_ENUMERATION_SITES so the
    2^sites tables stay enumerable.  Table i uses the bits of i (LSB first)
    over the canonical cone order.
    """
    k = cone_site_count(d, horizon)
    if k > MAX_ENUMERATION_SITES:
        raise ValueError(
            f"cone has {k} sites; exhaustive enumeration capped at {MAX_ENUMERATION_SITES}"
        )
    for bits in range(1 << k):
        yield EnvironmentTable.from_assignment(d, horizon, bits)
