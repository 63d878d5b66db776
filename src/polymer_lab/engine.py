"""Transfer-matrix evolution of the polymer density and brute-force oracles.

The density recursion is

    p(n, x) = [ (2d)^{-1} sum_{|e|_1 = 1} p(n-1, x-e) ] * (1 + c h(n, x)),
    p(0, .) = delta_0,

carried on the packed parity slices from the walk module with two rolling
layers.  Everything is plain float64; with 0 <= c < 1 every weight factor is
positive, so no log-domain bookkeeping is needed, only an overflow guard.

evolve_replicas is the only implementation of the recursion.  It advances
exactly the environments it is given in lockstep, as one stack of layers
next to one rolling free-walk layer p0(n, .), and does only the work that
can change a bit of its results:

- Window (d = 1).  Far from the origin p0 and every layer underflow to
  exactly 0.0, and a step or a weight keeps such a site at 0.0.  So the
  stack and p0 are window-local arrays over the packed indices
  [lo, lo + w): a step grows the window by one at the top (step_layer reads
  a missing neighbour as 0.0, the bits the full slice gives), and after it
  the edge columns that are 0.0 in every row and in p0 are dropped.  Only
  the window is hashed, stepped and weighted.  In d = 2 the window is the
  whole slice: a square window trims nothing below N of about 2000.
- Sign bits.  environment.stack_sign_bits gives the stack's h as bit 63 of
  a uint64 (set for -1), whatever kind of environment each row is.  c * h is
  c with that bit set, so a weight 1 + c h is one bitwise or and one add,
  and h * p0 is p0 with that bit flipped.
- Guard.  A step keeps a row's sum and a weight is at most 1 + c, so a row
  sum at step n is at most (1 + c)^n, up to rounding.  The overflow guard
  sums only from the step where that bound comes within a factor e of
  DENSITY_SUM_LIMIT, read at call time; at c = 0 never.

Every sum runs over full-length rows, with 0.0 outside the window: the
layer sums of the guard and the sums of h * p0 for the order-one chaos term
f_n = c sum_x h(n, x) p0(n, x) of Z - 1 are one row reduction each over the
stack, numpy's pairwise sum of every contiguous row, the order
walk.lattice_sum gives a lone row and whose order is fixed by the row
length.  The final layers go back into zeroed full-length rows.  So every
result is bit for bit what the whole-slice recursion gives.  A task holds
four stack-sized arrays: two layer stacks, the sign bits' uint64 buffer and
one scratch that takes the finalizer's temporaries, then the weights, then
the products h * p0.  block_rows(d, N) is how many rows a caller should
stack so that the per-step arrays stay within _BLOCK_BYTES;
harness.run_replicas cuts its tasks by it.  evolve_density is the pass over
one environment.

No sum here goes through BLAS (walk.lattice_sum says why): K in observables
is walk.lattice_sum, and brute_force_observables sums its paths pairwise too.

brute_force_observables enumerates all (2d)^N paths directly and is the
independent check for the recursion on small N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import walk
from .environment import stack_sign_bits

# Abort threshold for the running layer sum (overflow guard).
DENSITY_SUM_LIMIT = 1e300
# Path enumeration cap: (2d)^N <= 2^24.
MAX_BRUTE_PATHS = 1 << 24
_PATH_CHUNK = 1 << 16
# A row block's stacked per-step arrays hold at most this many bytes each
# (one layer if a layer is larger).
_BLOCK_BYTES = 1 << 19


@dataclass(frozen=True)
class DensityLayer:
    """Packed polymer density p(n, .) at a single time.

    linear is the order-one chaos part sum_{k<=n} f_k of Z(n) - 1.
    """

    d: int
    n: int
    values: np.ndarray
    linear: float = 0.0


@dataclass(frozen=True)
class PolymerObservables:
    """Partition sum Z, squared-displacement sum K, quenched msd = K/Z."""

    Z: float
    K: float
    msd: float


def _check_run_args(env, c: float, N: int) -> None:
    if not 0.0 <= c < 1.0:
        raise ValueError(f"disorder strength c must satisfy 0 <= c < 1, got {c}")
    if N < 1:
        raise ValueError(f"horizon N must be >= 1, got {N}")
    if env.horizon < N:
        raise ValueError(f"environment horizon {env.horizon} < N = {N}")


def block_rows(d: int, N: int) -> int:
    """Rows of a row block: the most layers at time N within _BLOCK_BYTES, at least one."""
    return max(1, _BLOCK_BYTES // (8 * walk.slice_size(d, N)))


def _full_rows(win: np.ndarray, lo: int, n: int, buf: np.ndarray) -> np.ndarray:
    """A stack of window-local slices at time n, whose last axis starts at
    packed index lo, as full-length slices with 0.0 outside the window: win
    itself where the window is the whole slice, else rows written into buf.
    Only d = 1 windows are ever narrower than the slice."""
    count, width = win.shape[0], win.shape[-1]
    if width == n + 1:
        return win
    full = buf[: count * (n + 1)].reshape(count, n + 1)
    full[:, :lo] = 0.0
    full[:, lo : lo + width] = win
    full[:, lo + width :] = 0.0
    return full


def _trim(lo: int, p0: np.ndarray, lays: np.ndarray):
    """Drop the d = 1 window's edge columns that are 0.0 in p0 and in every
    row; returns the new (lo, p0, lays), views of the old arrays.  p0 holds
    mass 1, so some column always stays."""
    a, b = 0, p0.shape[0]
    while p0[a] == 0.0 and not lays[:, a].any():
        a += 1
    while p0[b - 1] == 0.0 and not lays[:, b - 1].any():
        b -= 1
    return lo + a, p0[a:b], lays[:, a:b]


def evolve_replicas(envs, c: float, N: int) -> list[DensityLayer]:
    """Run the density recursion to time N under each environment, in lockstep.

    Returns one final layer per environment, in order; their values are the
    rows of one stacked array.  The working arrays are flat buffers sized
    for time N, allocated once; step n reads a contiguous prefix of each as
    a stack of window-local slices.
    """
    if not envs:
        raise ValueError("need at least one environment")
    d = envs[0].d
    for env in envs:
        if env.d != d:
            raise ValueError("environments differ in dimension")
        _check_run_args(env, c, N)
    count = len(envs)
    size = walk.slice_size(d, N)
    sign_bits = stack_sign_bits(envs, N)
    free_bufs = (np.empty(size), np.empty(size))
    layer_bufs = (np.empty(count * size), np.empty(count * size))
    # The finalizer's scratch, then the weights, then the products h * p0.
    scratch = np.empty(count * size)
    c_bits = np.float64(c).view(np.uint64)
    # A row sum at step n is at most (1 + c)^n, up to rounding; the guard
    # sums only from the step where that comes within a factor e of the limit.
    headroom = math.log(DENSITY_SUM_LIMIT) - 1.0
    rate = math.log1p(c)
    lo = 0  # packed index of the window's first site
    p0 = np.ones(walk.slice_shape(d, 0))
    lays = np.ones((count,) + p0.shape)
    comps = np.empty((count, N))
    for n in range(1, N + 1):
        width = p0.shape[-1] + 1
        shape = (count,) + (width,) * d
        sites = width**d
        p0 = walk.step_layer(p0, d, out=free_bufs[n % 2][:sites].reshape(shape[1:]))
        lays = walk.step_layer(lays, d, out=layer_bufs[n % 2][: count * sites].reshape(shape))
        weights = scratch[: count * sites].reshape(shape)
        bits = sign_bits(n, lo, width, tmp=weights.view(np.uint64))
        # c * h is c with the sign bit of h.
        np.bitwise_or(bits, c_bits, out=weights.view(np.uint64))
        weights += 1.0
        lays *= weights
        m = walk.slice_size(d, n)
        if n * rate > headroom and c > 0.0:
            # Row reductions over flat (count, m) views: numpy's pairwise sum
            # of each full-length row, the bits walk.lattice_sum gives a lone row.
            sums = _full_rows(lays, lo, n, scratch).reshape(count, m).sum(axis=1)
            if not np.all(sums <= DENSITY_SUM_LIMIT):
                raise OverflowError(
                    f"density sum {sums.max()} exceeded {DENSITY_SUM_LIMIT} at step {n}"
                )
        # h * p0 is p0 with the sign bit of h flipped, in full-length rows
        # with 0.0 outside the window.
        prods = scratch[: count * m].reshape((count,) + walk.slice_shape(d, n))
        prods[..., :lo] = 0.0
        prods[..., lo + width :] = 0.0
        np.bitwise_xor(p0.view(np.uint64), bits, out=prods[..., lo : lo + width].view(np.uint64))
        comps[:, n - 1] = c * prods.reshape(count, m).sum(axis=1)
        if d == 1:
            lo, p0, lays = _trim(lo, p0, lays)
    lays = _full_rows(lays, lo, N, layer_bufs[(N + 1) % 2])
    lays.flags.writeable = False
    return [
        DensityLayer(d=d, n=N, values=lay, linear=float(np.sum(comp)))
        for lay, comp in zip(lays, comps)
    ]


def evolve_density(env, c: float, N: int) -> DensityLayer:
    """Run the density recursion to time N under the given environment."""
    return evolve_replicas([env], c, N)[0]


def observables(layer: DensityLayer) -> PolymerObservables:
    z = float(layer.values.sum())
    if not z > 0.0:
        raise ValueError(f"partition sum must be positive, got {z}")
    k = walk.lattice_sum(layer.values, walk.slice_sqnorm(layer.d, layer.n))
    return PolymerObservables(Z=z, K=k, msd=k / z)


def path_batches(d: int, N: int):
    """Enumerate all (2d)^N nearest-neighbour paths in vectorized chunks.

    Yields (indices, endpoint_sqnorm) where indices is a length-N list with
    one tuple of d packed slice-index arrays per time step (matching the
    packed layer layouts) and endpoint_sqnorm is |omega(N)|^2 per path.
    Paths are driven in diagonal coordinates: d bits of the path number per
    step give the independent +/-1 increments of the d diagonal axes.
    """
    total = (2 * d) ** N
    if total > MAX_BRUTE_PATHS:
        raise ValueError(f"(2d)^N = {total} exceeds enumeration cap {MAX_BRUTE_PATHS}")
    for lo in range(0, total, _PATH_CHUNK):
        hi = min(lo + _PATH_CHUNK, total)
        codes = np.arange(lo, hi, dtype=np.int64)
        digits = (codes[:, None] >> (d * np.arange(N))) & ((1 << d) - 1)
        pos = [np.cumsum(((digits >> a) & 1) * 2 - 1, axis=1) for a in range(d)]
        idx = [tuple((u[:, n - 1] + n) >> 1 for u in pos) for n in range(1, N + 1)]
        # |x|^2 = u^2 in d = 1 and (u^2 + v^2)/2 in d = 2.
        yield idx, (sum(u[:, -1] ** 2 for u in pos) // d).astype(np.float64)


def brute_force_observables(env, c: float, N: int) -> PolymerObservables:
    """Exact Z and K by summing the weight of every path individually."""
    _check_run_args(env, c, N)
    d = env.d
    signs = [env.slice_signs(n) for n in range(1, N + 1)]
    z_acc = 0.0
    k_acc = 0.0
    for idx, end_sq in path_batches(d, N):
        w = np.ones(end_sq.shape[0])
        for n in range(1, N + 1):
            w *= 1.0 + c * signs[n - 1][idx[n - 1]]
        z_acc += float(w.sum())
        k_acc += float((w * end_sq).sum())
    scale = float(2 * d) ** (-N)
    z = z_acc * scale
    k = k_acc * scale
    if not z > 0.0:
        raise ValueError(f"partition sum must be positive, got {z}")
    return PolymerObservables(Z=z, K=k, msd=k / z)
