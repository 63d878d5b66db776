"""Simple-random-walk transition kernel on Z^d (d = 1, 2) with exact lattice sums.

Layers are stored densely over the parity-valid sites of the light cone only.

d = 1: layer n is a vector of length n+1; entry j holds p0(n, x) for x = 2j - n.

d = 2: the walk is rotated to diagonal coordinates u = x1 + x2, v = x1 - x2.
One lattice step changes u and v by +/-1 independently, so the parity-valid
slice at time n is the full (n+1) x (n+1) grid over u, v in {-n, -n+2, ..., n}.
Entry (i, j) holds p0(n, x) for u = 2i - n, v = 2j - n, x = ((u+v)/2, (u-v)/2).
This packing has no parity holes and keeps the nearest-neighbour convolution a
2x2 box filter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Hard cap on kernel depth; dense storage beyond this is never needed here.
MAX_KERNEL_DEPTH = 2 ** 15
# Refuse kernels whose dense layers would not fit comfortably in memory.
MAX_KERNEL_BYTES = 1_250_000_000

MOMENT_KINDS = ("second", "fourth", "partial-second", "partial-fourth", "cross")


def _check_dim(d: int) -> None:
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d!r}")


def step_layer(layer: np.ndarray, d: int) -> np.ndarray:
    """One nearest-neighbour convolution step in packed coordinates.

    Maps the packed slice at time n to the packed slice at time n+1.  Shared
    by the kernel builder, the polymer density recursion and the pair-walk
    dynamic programs so that every consumer applies the identical stencil.
    """
    if d == 1:
        n = layer.shape[0]
        out = np.zeros(n + 1)
        out[:-1] += layer
        out[1:] += layer
        out *= 0.5
        return out
    n = layer.shape[0]
    out = np.zeros((n + 1, n + 1))
    out[:-1, :-1] += layer
    out[:-1, 1:] += layer
    out[1:, :-1] += layer
    out[1:, 1:] += layer
    out *= 0.25
    return out


def slice_positions(d: int, n: int) -> tuple[np.ndarray, ...]:
    """Lattice coordinates of the packed slice at time n.

    d = 1 returns (x,) with shape (n+1,); d = 2 returns (x1, x2) with shape
    (n+1, n+1), following the diagonal packing described in the module
    docstring.
    """
    _check_dim(d)
    if n < 0:
        raise ValueError("time must be nonnegative")
    span = 2 * np.arange(n + 1, dtype=np.int64) - n
    if d == 1:
        return (span,)
    u = span[:, None]
    v = span[None, :]
    return ((u + v) // 2, (u - v) // 2)


def slice_sqnorm(d: int, n: int) -> np.ndarray:
    """|x|^2 over the packed slice at time n (float array)."""
    if d == 1:
        (x,) = slice_positions(1, n)
        return (x * x).astype(np.float64)
    span = 2 * np.arange(n + 1, dtype=np.int64) - n
    u2 = (span * span)[:, None]
    v2 = (span * span)[None, :]
    # |x|^2 = (u^2 + v^2)/2, integer because u and v share parity.
    return ((u2 + v2) // 2).astype(np.float64)


@dataclass(frozen=True)
class MomentSpec:
    """A lattice moment request: kind in MOMENT_KINDS, evaluated at time n.

    "second" and "fourth" are |x|^2 and |x|^4 sums; the "partial-*" kinds are
    single-coordinate moments x1^2 and x1^4 and "cross" is x1^2 x2^2, all of
    which require d = 2.
    """

    kind: str
    n: int

    def __post_init__(self) -> None:
        if self.kind not in MOMENT_KINDS:
            raise ValueError(f"unknown moment kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("moment time must be >= 1")


@dataclass(frozen=True)
class LcltEstimate:
    """Exact transition probability, its Gaussian local-limit value, residual."""

    n: int
    x: tuple[int, ...]
    exact: float
    approx: float
    residual: float


@dataclass(frozen=True)
class ResidualEnvelope:
    """Smallest constants bounding the local-CLT residual over a time range.

    |residual(n, x)| <= min(flat * n^{-(d+2)/2}, tail * |x|^{-2} * n^{-d/2})
    for all parity-valid cone sites; `tail` is fitted over x != 0 only.
    """

    d: int
    n_lo: int
    n_hi: int
    flat: float
    tail: float


@dataclass(frozen=True)
class CollisionMoments:
    """Per-gap moments of the squared kernel q(gap, y) = p0(gap, y)^2.

    Index k holds the value for gap = k+1.  mass = sum_y q, sq = sum |y|^2 q,
    quart = sum |y|^4 q.  These drive the collision-expansion dynamic
    programs, which only ever need these three spatial summaries.
    """

    d: int
    mass: np.ndarray
    sq: np.ndarray
    quart: np.ndarray


@dataclass
class TransitionKernel:
    """Dense parity-packed SRW transition layers p0(n, .) for n <= n_max.

    Layers are built once by repeated convolution and are read-only; a kernel
    instance can be shared freely across replicas and threads.
    """

    d: int
    n_max: int
    _layers: list[np.ndarray] = field(repr=False)

    def layer(self, n: int) -> np.ndarray:
        if not 0 <= n <= self.n_max:
            raise ValueError(f"time {n} outside kernel range [0, {self.n_max}]")
        return self._layers[n]

    def probability(self, n: int, x) -> float:
        """p0(n, x) for any lattice x; 0.0 outside the cone or off parity."""
        if not 0 <= n <= self.n_max:
            raise ValueError(f"time {n} outside kernel range [0, {self.n_max}]")
        pt = as_point(x, self.d)
        if self.d == 1:
            (x1,) = pt
            if abs(x1) > n or (x1 + n) % 2:
                return 0.0
            return float(self._layers[n][(x1 + n) // 2])
        x1, x2 = pt
        u, v = x1 + x2, x1 - x2
        if abs(u) > n or abs(v) > n or (u + n) % 2 or (v + n) % 2:
            return 0.0
        return float(self._layers[n][(u + n) // 2, (v + n) // 2])


def as_point(x, d: int) -> tuple[int, ...]:
    """Normalize a lattice point to a length-d tuple of ints."""
    if d == 1:
        if isinstance(x, (int, np.integer)):
            return (int(x),)
        (x1,) = x
        return (int(x1),)
    x1, x2 = x
    return (int(x1), int(x2))


def build_kernel(d: int, n_max: int) -> TransitionKernel:
    """Build and store all packed layers p0(n, .) for 0 <= n <= n_max."""
    _check_dim(d)
    if not 1 <= n_max <= MAX_KERNEL_DEPTH:
        raise ValueError(f"n_max must lie in [1, {MAX_KERNEL_DEPTH}], got {n_max}")
    count = n_max + 1
    entries = count * (count + 1) // 2 if d == 1 else count * (count + 1) * (2 * count + 1) // 6
    if entries * 8 > MAX_KERNEL_BYTES:
        raise ValueError(
            f"dense kernel (d={d}, n_max={n_max}) would need {entries * 8} bytes, "
            f"more than the {MAX_KERNEL_BYTES}-byte limit; lower --nmax"
        )
    layers = [np.ones((1,) if d == 1 else (1, 1))]
    for _ in range(n_max):
        layers.append(step_layer(layers[-1], d))
    for lay in layers:
        lay.flags.writeable = False
    return TransitionKernel(d=d, n_max=n_max, _layers=layers)


def lclt_estimate(kernel: TransitionKernel, n: int, x) -> LcltEstimate:
    """Exact p0(n, x) against the Gaussian local-limit approximation.

    approx = 2 (d / (2 pi n))^{d/2} exp(-d |x|^2 / (2n)); the factor 2 is the
    parity weight.  Requires x1 + ... + xd + n even.
    """
    if n < 1:
        raise ValueError("time must be >= 1")
    pt = as_point(x, kernel.d)
    if (sum(pt) + n) % 2:
        raise ValueError(f"site {pt} violates parity at time {n}")
    d = kernel.d
    sq = float(sum(c * c for c in pt))
    approx = 2.0 * (d / (2.0 * math.pi * n)) ** (d / 2.0) * math.exp(-d * sq / (2.0 * n))
    exact = kernel.probability(n, pt)
    return LcltEstimate(n=n, x=pt, exact=exact, approx=approx, residual=exact - approx)


def residual_envelope(kernel: TransitionKernel, n_range: tuple[int, int]) -> ResidualEnvelope:
    """Measure the local-CLT residual constants over cone sites in n_range."""
    n_lo, n_hi = n_range
    if not 1 <= n_lo <= n_hi <= kernel.n_max:
        raise ValueError(f"n_range {n_range} outside [1, {kernel.n_max}]")
    d = kernel.d
    flat = 0.0
    tail = 0.0
    for n in range(n_lo, n_hi + 1):
        sq = slice_sqnorm(d, n)
        gauss = 2.0 * (d / (2.0 * math.pi * n)) ** (d / 2.0) * np.exp(-d * sq / (2.0 * n))
        resid = np.abs(kernel.layer(n) - gauss)
        flat = max(flat, float(resid.max()) * n ** ((d + 2) / 2.0))
        off = sq > 0
        tail = max(tail, float((resid[off] * sq[off]).max()) * n ** (d / 2.0))
    return ResidualEnvelope(d=d, n_lo=n_lo, n_hi=n_hi, flat=flat, tail=tail)


def moment(kernel: TransitionKernel, spec: MomentSpec) -> float:
    """Direct lattice sum of the requested monomial against p0(n, .)."""
    if spec.n > kernel.n_max:
        raise ValueError(f"time {spec.n} outside kernel range")
    d = kernel.d
    if d == 1 and spec.kind not in ("second", "fourth"):
        raise ValueError(f"moment kind {spec.kind!r} requires d = 2")
    lay = kernel.layer(spec.n)
    if spec.kind == "second":
        w = slice_sqnorm(d, spec.n)
    elif spec.kind == "fourth":
        w = slice_sqnorm(d, spec.n) ** 2
    else:
        x1, x2 = slice_positions(2, spec.n)
        if spec.kind == "partial-second":
            w = (x1 * x1).astype(np.float64)
        elif spec.kind == "partial-fourth":
            w = (x1 * x1 * x1 * x1).astype(np.float64)
        else:  # cross
            w = (x1 * x1 * x2 * x2).astype(np.float64)
    return float(np.dot(lay.ravel(), w.ravel()))


def closed_form_moment(d: int, kind: str, n: int) -> float:
    """Reference closed forms for the moment sums (exact integers/rationals)."""
    _check_dim(d)
    if kind not in MOMENT_KINDS:
        raise ValueError(f"unknown moment kind {kind!r}")
    if d == 1:
        if kind == "second":
            return float(n)
        if kind == "fourth":
            return float(3 * n * n - 2 * n)
        raise ValueError(f"moment kind {kind!r} requires d = 2")
    if kind == "second":
        return float(n)
    if kind == "fourth":
        return float(2 * n * n - n)
    if kind == "partial-second":
        return n / 2.0
    if kind == "partial-fourth":
        return (3 * n * n - n) / 4.0
    return n * (n - 1) / 4.0  # cross


def shifted_moment(kernel: TransitionKernel, m: int, y, order: int) -> float:
    """sum_x |x|^order p0(m, x - y), evaluated as a direct lattice sum."""
    if order not in (2, 4):
        raise ValueError("order must be 2 or 4")
    if not 1 <= m <= kernel.n_max:
        raise ValueError(f"time {m} outside kernel range")
    pt = as_point(y, kernel.d)
    lay = kernel.layer(m)
    if kernel.d == 1:
        (z,) = slice_positions(1, m)
        shifted = (z + pt[0]).astype(np.float64)
        w = shifted ** order
    else:
        z1, z2 = slice_positions(2, m)
        sq = ((z1 + pt[0]) ** 2 + (z2 + pt[1]) ** 2).astype(np.float64)
        w = sq if order == 2 else sq * sq
    return float(np.dot(lay.ravel(), w.ravel()))


def shifted_moment_closed_form(d: int, m: int, y, order: int) -> float:
    """Closed forms for shifted moments: order 2 is m + |y|^2 in both d."""
    _check_dim(d)
    pt = as_point(y, d)
    ysq = float(sum(c * c for c in pt))
    if order == 2:
        return m + ysq
    if order != 4:
        raise ValueError("order must be 2 or 4")
    if d == 1:
        return 3.0 * m * m - 2.0 * m + 6.0 * ysq * m + ysq * ysq
    return 2.0 * m * m - m + 4.0 * ysq * m + ysq * ysq


def collision_mass(kernel: TransitionKernel, n: int) -> float:
    """sum_x p0(n, x)^2; equals the return probability p0(2n, 0)."""
    if not 1 <= n <= kernel.n_max:
        raise ValueError(f"time {n} outside kernel range")
    if 2 * n > kernel.n_max:
        raise ValueError(f"collision check at n={n} needs kernel depth {2 * n}")
    lay = kernel.layer(n)
    return float(np.dot(lay.ravel(), lay.ravel()))


def return_probability(d: int, n: int) -> float:
    """Exact p0(n, 0): the central binomial value, squared for d = 2.

    Evaluated by the stable product  prod_{j<=n/2} (2j-1)/(2j), not by the
    Gaussian asymptotic, so deep sweeps stay exact without dense layers.
    """
    _check_dim(d)
    if n < 0:
        raise ValueError("time must be nonnegative")
    if n % 2:
        return 0.0
    p = 1.0
    for j in range(1, n // 2 + 1):
        p *= (2 * j - 1) / (2 * j)
    return p if d == 1 else p * p


def central_return_sequence(d: int, k_max: int) -> np.ndarray:
    """Array of p0(2k, 0) for k = 1..k_max via the running central-binomial product."""
    _check_dim(d)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    j = np.arange(1, k_max + 1, dtype=np.float64)
    p = np.cumprod((2.0 * j - 1.0) / (2.0 * j))
    return p if d == 1 else p * p


def collision_layer_moments(d: int, n_max: int) -> CollisionMoments:
    """Rolling 1-D pass collecting mass/sq/quart of p0(gap, .)^2.

    Only the binomial layer b_n = p0(n, .) in d = 1 is ever held, so the pass
    costs O(n_max^2) in both dimensions.  d = 2 factorises in the diagonal
    coordinates: p0 = b_n (x) b_n and |x|^2 = (u^2 + v^2)/2, so with
    S_j = sum_u u^j b_n(u)^2 (the d = 1 mass, sq and quart)

        mass = S0^2,  sq = S0 S2,  quart = (S0 S4 + S2^2)/2.

    The direct lattice sums over a dense kernel are the reference in the
    tests.
    """
    _check_dim(d)
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    mass = np.empty(n_max)
    sq = np.empty(n_max)
    quart = np.empty(n_max)
    lay = np.ones(1)
    for n in range(1, n_max + 1):
        lay = step_layer(lay, 1)
        q = lay * lay
        w = slice_sqnorm(1, n)
        mass[n - 1] = float(q.sum())
        sq[n - 1] = float(np.dot(q, w))
        quart[n - 1] = float(np.dot(q, w * w))
    if d == 2:
        mass, sq, quart = mass * mass, mass * sq, 0.5 * (mass * quart + sq * sq)
    return CollisionMoments(d=d, mass=mass, sq=sq, quart=quart)
