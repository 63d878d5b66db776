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

# The lattice moments each dimension has: |x|^2 and |x|^4 in both; in d = 2
# also the single-coordinate x1^2 and x1^4 and the cross term x1^2 x2^2.
MOMENT_KINDS = {
    1: ("second", "fourth"),
    2: ("second", "fourth", "partial-second", "partial-fourth", "cross"),
}


def check_dim(d: int) -> None:
    if d not in (1, 2):
        raise ValueError(f"dimension must be 1 or 2, got {d!r}")


def slice_shape(d: int, n: int) -> tuple[int, ...]:
    """Shape of the packed slice at time n: (n+1,) or (n+1, n+1)."""
    return (n + 1,) * d


def slice_size(d: int, n: int) -> int:
    """Number of sites in the packed slice at time n."""
    return (n + 1) ** d


def packed_index(d: int, n: int, x) -> tuple[int, ...] | None:
    """Index of lattice point x in the packed slice at time n.

    None if x lies outside the light cone or off parity at time n.
    """
    pt = as_point(x, d)
    coords = pt if d == 1 else (pt[0] + pt[1], pt[0] - pt[1])
    if any(abs(u) > n or (u + n) % 2 for u in coords):
        return None
    return tuple((u + n) // 2 for u in coords)


def _pair_sums(layer: np.ndarray, out: np.ndarray) -> None:
    """out[..., j] = layer[..., j] + layer[..., j-1] along the last axis,
    with a missing neighbour read as 0.0; out is one longer there."""
    np.add(layer[..., 1:], layer[..., :-1], out=out[..., 1:-1])
    out[..., 0] = layer[..., 0]
    out[..., -1] = layer[..., -1]


def step_layer(layer: np.ndarray, d: int, out: np.ndarray | None = None) -> np.ndarray:
    """One nearest-neighbour convolution step in packed coordinates.

    Maps the packed slice at time n to the packed slice at time n+1.  Shared
    by the kernel builder, the polymer density recursion and
    moments.weighted_fourth_sum_direct, so that all three apply the identical
    stencil (the pair-walk dynamic programs keep their own).
    Leading axes of layer are a stack of slices, each stepped alone, bit for
    bit as on its own.  out, if given, receives the result and must have its
    shape.

    Each new site sums its up to 2d parents in a fixed order, starting from
    0.0, then scales by 1/(2d).  In d = 2 the order is (i, j), (i, j-1),
    (i-1, j), (i-1, j-1), and the first two come from one pass of pair sums.
    Adding 0.0 first changes no value a layer holds (only -0.0, which
    sums and products of nonnegative values never give), so the pair sums
    skip it.
    """
    shape = layer.shape[:-d] + tuple(k + 1 for k in layer.shape[-d:])
    if out is None:
        out = np.empty(shape)
    if d == 1:
        _pair_sums(layer, out)
        out *= 0.5
        return out
    _pair_sums(layer, out[..., :-1, :])
    out[..., -1, :] = 0.0
    out[..., 1:, :-1] += layer
    out[..., 1:, 1:] += layer
    out *= 0.25
    return out


def slice_positions(d: int, n: int) -> tuple[np.ndarray, ...]:
    """Lattice coordinates of the packed slice at time n.

    d = 1 returns (x,) with shape (n+1,); d = 2 returns (x1, x2) with shape
    (n+1, n+1), following the diagonal packing described in the module
    docstring.
    """
    check_dim(d)
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
    return sum(x * x for x in slice_positions(d, n)).astype(np.float64)


def lattice_sum(layer: np.ndarray, weights: np.ndarray) -> float:
    """sum_x layer(x) weights(x): numpy's pairwise sum of the elementwise product.

    Every single-layer lattice sum goes through here, never through a BLAS
    dot: a BLAS dot splits vectors longer than about 10 000 elements (d = 2
    slices at n >= 100) across its threads, which changes the order of the
    sum with the BLAS thread count.  The pairwise order is fixed by the
    length alone.
    """
    return float((layer.ravel() * weights.ravel()).sum())


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
    quart = sum |y|^4 q.  These drive the collision expansion and the E K^2
    renewal, which only ever need these three spatial summaries.
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
        idx = packed_index(self.d, n, x)
        return 0.0 if idx is None else float(self._layers[n][idx])


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
    check_dim(d)
    if not 1 <= n_max <= MAX_KERNEL_DEPTH:
        raise ValueError(f"n_max must lie in [1, {MAX_KERNEL_DEPTH}], got {n_max}")
    entries = sum(slice_size(d, n) for n in range(n_max + 1))
    if entries * 8 > MAX_KERNEL_BYTES:
        raise ValueError(
            f"dense kernel (d={d}, n_max={n_max}) would need {entries * 8} bytes, "
            f"more than the {MAX_KERNEL_BYTES}-byte limit; lower --nmax"
        )
    layers = [np.ones(slice_shape(d, 0))]
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


def _moment_args(d: int, kind: str, n: int, shift) -> tuple[int, ...]:
    """Check a moment request; return the shift y as a point (the origin if None)."""
    check_dim(d)
    if kind not in MOMENT_KINDS[2]:
        raise ValueError(f"unknown moment kind {kind!r}")
    if kind not in MOMENT_KINDS[d]:
        raise ValueError(f"moment kind {kind!r} requires d = 2")
    if n < 1:
        raise ValueError("moment time must be >= 1")
    if shift is None:
        return (0,) * d
    if kind not in ("second", "fourth"):
        raise ValueError(f"moment kind {kind!r} takes no shift")
    return as_point(shift, d)


def moment(kernel: TransitionKernel, kind: str, n: int, shift=None) -> float:
    """Direct lattice sum of a monomial of x + y against p0(n, x), y = shift.

    "second" and "fourth" are |x + y|^2 and |x + y|^4; the d = 2 kinds
    "partial-second", "partial-fourth" and "cross" are x1^2, x1^4 and
    x1^2 x2^2 and take no shift.
    """
    y = _moment_args(kernel.d, kind, n, shift)
    if n > kernel.n_max:
        raise ValueError(f"time {n} outside kernel range")
    pos = [x + c for x, c in zip(slice_positions(kernel.d, n), y)]
    if kind in ("second", "fourth"):
        w = sum(x * x for x in pos)
        if kind == "fourth":
            w = w * w
    elif kind == "cross":
        w = pos[0] * pos[0] * pos[1] * pos[1]
    else:
        w = pos[0] ** (2 if kind == "partial-second" else 4)
    return lattice_sum(kernel.layer(n), w.astype(np.float64))


def closed_form_moment(d: int, kind: str, n: int, shift=None) -> float:
    """Closed forms of the moment sums (exact integers/rationals).

    Shifted by y: n + |y|^2 and 3n^2 - 2n + 6|y|^2 n + |y|^4 (d = 1) or
    2n^2 - n + 4|y|^2 n + |y|^4 (d = 2); y = 0 when shift is None.
    """
    y = _moment_args(d, kind, n, shift)
    ysq = sum(c * c for c in y)
    if kind == "second":
        return float(n + ysq)
    if kind == "fourth":
        if d == 1:
            return float(3 * n * n - 2 * n + 6 * ysq * n + ysq * ysq)
        return float(2 * n * n - n + 4 * ysq * n + ysq * ysq)
    if kind == "partial-second":
        return n / 2.0
    if kind == "partial-fourth":
        return (3 * n * n - n) / 4.0
    return n * (n - 1) / 4.0  # cross


def collision_mass(kernel: TransitionKernel, n: int) -> float:
    """sum_x p0(n, x)^2; equals the return probability p0(2n, 0)."""
    if not 1 <= n <= kernel.n_max:
        raise ValueError(f"time {n} outside kernel range")
    if 2 * n > kernel.n_max:
        raise ValueError(f"collision check at n={n} needs kernel depth {2 * n}")
    lay = kernel.layer(n)
    return lattice_sum(lay, lay)


def return_probability(d: int, n: int) -> float:
    """Exact p0(n, 0): the central binomial value, squared for d = 2.

    Evaluated by the stable product  prod_{j<=n/2} (2j-1)/(2j), not by the
    Gaussian asymptotic, so deep sweeps stay exact without dense layers.
    """
    check_dim(d)
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
    check_dim(d)
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    j = np.arange(1, k_max + 1, dtype=np.float64)
    p = np.cumprod((2.0 * j - 1.0) / (2.0 * j))
    return p if d == 1 else p * p


def collision_scale(d: int, N: int) -> float:
    """sqrt(N) (d = 1) or log N (d = 2); c^2 times it is the collision scale."""
    return math.sqrt(N) if d == 1 else math.log(N)


def collision_layer_moments(d: int, n_max: int) -> CollisionMoments:
    """mass/sq/quart of p0(gap, .)^2 for gap = 1..n_max, in closed form, O(n_max).

    With b_k = p0(k, .) in d = 1 and S_j(k) = sum_u u^j b_k(u)^2: S0 = p0(2k, 0),
    S2 = S0 k^2/(2k - 1) and S4 = S0 k^3 (3k - 4)/((2k - 1)(2k - 3)).  d = 2
    factorises in the diagonal coordinates (p0 = b_k (x) b_k, |x|^2 = (u^2 +
    v^2)/2): mass = S0^2, sq = S0 S2, quart = (S0 S4 + S2^2)/2.  mass is
    central_return_sequence(d, n_max) bit for bit.  The direct lattice sums
    over a dense kernel are the reference in the tests.
    """
    check_dim(d)
    s0 = central_return_sequence(1, n_max)
    k = np.arange(1, n_max + 1, dtype=np.float64)
    s2 = s0 * (k * k / (2.0 * k - 1.0))
    s4 = s0 * (k ** 3 * (3.0 * k - 4.0) / ((2.0 * k - 1.0) * (2.0 * k - 3.0)))
    if d == 1:
        return CollisionMoments(d=d, mass=s0, sq=s2, quart=s4)
    return CollisionMoments(d=d, mass=s0 * s0, sq=s0 * s2, quart=0.5 * (s0 * s4 + s2 * s2))
