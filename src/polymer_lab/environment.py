"""Counter-based +/-1 environment field and exhaustive small-cone enumeration.

The field value at a space-time site is a pure function of (seed, n, x): the
seed and the site words are absorbed one at a time into a splitmix64-style
chain and the sign is the top bit of the final state.  No generator state is
ever advanced, so lookups are order independent, thread safe and reproducible
across platforms; two replicas differ only through their seeds.

Replica seed derivation is part of the on-disk contract: CSV outputs record
per-replica seeds, and re-running any single replica from its recorded seed
must reproduce its row.  The chain below is therefore frozen (see
derive_replica_seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .walk import as_point, slice_positions

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
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


def _finalize_vec(z: np.ndarray) -> np.ndarray:
    z ^= z >> np.uint64(30)
    z *= np.uint64(_MIX_A)
    z ^= z >> np.uint64(27)
    z *= np.uint64(_MIX_B)
    z ^= z >> np.uint64(31)
    return z


def _absorb_vec(state, words: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = words.astype(np.int64).astype(np.uint64)
        z += np.uint64((int(state) + _GOLDEN) & _MASK)
        return _finalize_vec(z)


def derive_replica_seed(master_seed: int, grid_index: int, replica_index: int) -> int:
    """Stable per-replica seed: H(master, domain, grid_index, replica_index).

    Frozen contract; golden values are pinned in the test suite.  Changing
    this chain silently invalidates every recorded CSV, so do not.
    """
    return hash_words(master_seed, _REPLICA_DOMAIN, grid_index, replica_index)


def cone_slice_size(d: int, n: int) -> int:
    """Number of parity-valid sites at time n."""
    return n + 1 if d == 1 else (n + 1) * (n + 1)


def cone_site_count(d: int, horizon: int) -> int:
    """Total parity-valid sites with 1 <= n <= horizon."""
    return sum(cone_slice_size(d, n) for n in range(1, horizon + 1))


def _check_site(d: int, horizon: int, n: int, pt: tuple[int, ...]) -> None:
    if not 1 <= n <= horizon:
        raise ValueError(f"time {n} outside environment horizon [1, {horizon}]")
    if sum(abs(c) for c in pt) > n:
        raise ValueError(f"site {pt} outside the light cone at time {n}")
    if (sum(pt) + n) % 2:
        raise ValueError(f"site {pt} violates parity at time {n}")


@dataclass(frozen=True)
class EnvironmentField:
    """Deterministic +/-1 field over the light cone, keyed by a 64-bit seed."""

    seed: int
    d: int
    horizon: int

    def __post_init__(self) -> None:
        if self.d not in (1, 2):
            raise ValueError(f"dimension must be 1 or 2, got {self.d!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    def value(self, n: int, x) -> int:
        """Sign at one site; scalar reference path for the vectorized slices."""
        pt = as_point(x, self.d)
        _check_site(self.d, self.horizon, n, pt)
        h = hash_words(self.seed, n, *pt)
        return 1 - 2 * (h >> 63)

    def slice_signs(self, n: int) -> np.ndarray:
        """Packed +/-1.0 float array over the parity slice at time n.

        Layout matches TransitionKernel layers (see walk module docstring).
        """
        if not 1 <= n <= self.horizon:
            raise ValueError(f"time {n} outside environment horizon [1, {self.horizon}]")
        state = hash_words(self.seed, n)
        if self.d == 1:
            (xs,) = slice_positions(1, n)
            z = _absorb_vec(state, xs)
        else:
            x1, x2 = slice_positions(2, n)
            z = _absorb_vec(state, x1)
            with np.errstate(over="ignore"):
                z += x2.astype(np.int64).astype(np.uint64)
                z += np.uint64(_GOLDEN)
                z = _finalize_vec(z)
        return 1.0 - 2.0 * (z >> np.uint64(63)).astype(np.float64)

    def sign_stream(self, count: int) -> np.ndarray:
        """First `count` signs in canonical cone order (slices ascending,
        packed index ascending); used by the fairness diagnostics."""
        out = []
        total = 0
        n = 0
        while total < count:
            n += 1
            if n > self.horizon:
                raise ValueError(f"horizon {self.horizon} too small for {count} sites")
            s = self.slice_signs(n).ravel()
            out.append(s)
            total += s.size
        return np.concatenate(out)[:count]


@dataclass(frozen=True)
class EnvironmentTable:
    """Explicit sign assignment over a small cone; same interface as the field."""

    d: int
    horizon: int
    slices: tuple = field(repr=False)

    def value(self, n: int, x) -> int:
        pt = as_point(x, self.d)
        _check_site(self.d, self.horizon, n, pt)
        lay = self.slices[n - 1]
        if self.d == 1:
            return int(lay[(pt[0] + n) // 2])
        u, v = pt[0] + pt[1], pt[0] - pt[1]
        return int(lay[(u + n) // 2, (v + n) // 2])

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
            shape = (n + 1,) if d == 1 else (n + 1, n + 1)
            lay = np.full(shape, float(sign))
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
            size = cone_slice_size(d, n)
            idx = np.arange(offset, offset + size, dtype=np.uint64)
            b = (np.uint64(bits) >> idx) & np.uint64(1)
            lay = 1.0 - 2.0 * b.astype(np.float64)
            if d == 2:
                lay = lay.reshape(n + 1, n + 1)
            lay.flags.writeable = False
            slices.append(lay)
            offset += size
        return cls(d=d, horizon=horizon, slices=tuple(slices))


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
