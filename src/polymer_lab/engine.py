"""Transfer-matrix evolution of the polymer density and brute-force oracles.

The density recursion is

    p(n, x) = [ (2d)^{-1} sum_{|e|_1 = 1} p(n-1, x-e) ] * (1 + c h(n, x)),
    p(0, .) = delta_0,

carried on the packed parity slices from the walk module with two rolling
layers.  Everything is plain float64; with 0 <= c < 1 every weight factor is
positive, so no log-domain bookkeeping is needed, only an overflow guard.

evolve_replicas is the only implementation of the recursion.  It cuts its
environments into row blocks and advances each block in lockstep as one
stack of layers, next to one rolling free-walk layer p0(n, .).  Per step, a
block's slices of signs are hashed in one pass (SignHasher), and the
stencil step and the weight multiply each run once over the whole stack;
both are elementwise, so every row gets the bits a single layer would.  The
signs serve both the weight multiply and the order-one chaos term
f_n = c sum_x h(n, x) p0(n, x) of Z - 1.  The layer sums (overflow guard)
and the sums of h * p0 are one row reduction each over the block: numpy's
pairwise sum of every contiguous row, the order walk.lattice_sum gives a
lone row.  A block's working arrays live in buffers allocated once per block
and sized by _BLOCK_BYTES, and evolve_replicas yields the final layers block
by block, so a caller that consumes each layer as it comes holds the memory
of one block however many environments it runs.  evolve_density is the pass
over one environment.

No sum here goes through BLAS (walk.lattice_sum says why): K in observables
is walk.lattice_sum, and brute_force_observables sums its paths pairwise too.

brute_force_observables enumerates all (2d)^N paths directly and is the
independent check for the recursion on small N.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import walk
from .environment import EnvironmentField, SignHasher

# Abort threshold for the running layer sum (overflow guard).
DENSITY_SUM_LIMIT = 1e300
# Path enumeration cap: (2d)^N <= 2^24.
MAX_BRUTE_PATHS = 1 << 24
_PATH_CHUNK = 1 << 16
# evolve_replicas runs its environments in row blocks whose stacked per-step
# arrays hold at most this many bytes each (one layer if a layer is larger).
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


def evolve_replicas(envs, c: float, N: int) -> Iterator[DensityLayer]:
    """Run the density recursion to time N under each environment, in lockstep.

    The arguments are checked at once; the final layers are then yielded in
    environment order, each row block's computed when its first is asked for.
    """
    if not envs:
        raise ValueError("need at least one environment")
    d = envs[0].d
    for env in envs:
        if env.d != d:
            raise ValueError("environments differ in dimension")
        _check_run_args(env, c, N)
    rows = max(1, _BLOCK_BYTES // (8 * walk.slice_size(d, N)))
    return (
        layer
        for lo in range(0, len(envs), rows)
        for layer in _evolve_block(envs[lo : lo + rows], c, N)
    )


def _evolve_block(envs, c: float, N: int) -> list[DensityLayer]:
    """evolve_replicas on one row block, its layers stacked on a leading axis.

    The working arrays are flat buffers sized for time N, allocated once;
    step n reads a contiguous prefix of each as a stack of packed slices.
    A block of EnvironmentFields is hashed by one SignHasher; any other
    environment fills its row from its own slice_signs.
    """
    d = envs[0].d
    count = len(envs)
    if all(isinstance(env, EnvironmentField) for env in envs):
        hasher = SignHasher([env.seed for env in envs], d, N)
    else:
        hasher = None
    size = walk.slice_size(d, N)
    free_bufs = (np.empty(size), np.empty(size))
    layer_bufs = (np.empty(count * size), np.empty(count * size))
    sign_buf = np.empty(count * size)
    weight_buf = np.empty(count * size)
    p0 = np.ones(walk.slice_shape(d, 0))
    lays = np.ones((count,) + p0.shape)
    comps = np.empty((count, N))
    for n in range(1, N + 1):
        m = walk.slice_size(d, n)
        shape = (count,) + walk.slice_shape(d, n)
        p0 = walk.step_layer(p0, d, out=free_bufs[n % 2][:m].reshape(shape[1:]))
        lays = walk.step_layer(lays, d, out=layer_bufs[n % 2][: count * m].reshape(shape))
        signs = sign_buf[: count * m].reshape(shape)
        if hasher is not None:
            hasher(n, out=signs)
        else:
            for i, env in enumerate(envs):
                signs[i] = env.slice_signs(n)
        weights = np.multiply(signs, c, out=weight_buf[: count * m].reshape(shape))
        weights += 1.0
        lays *= weights
        # Row reductions over the flat (count, m) view: numpy's pairwise sum
        # of each contiguous row, the bits walk.lattice_sum gives a lone row.
        sums = lays.reshape(count, m).sum(axis=1)
        if not np.all(sums <= DENSITY_SUM_LIMIT):
            raise OverflowError(f"density sum {sums.max()} exceeded {DENSITY_SUM_LIMIT} at step {n}")
        # The weights are spent, so their buffer takes the products h * p0.
        prods = np.multiply(signs, p0, out=weights)
        comps[:, n - 1] = c * prods.reshape(count, m).sum(axis=1)
    lays.flags.writeable = False
    return [
        DensityLayer(d=d, n=N, values=lay, linear=float(np.sum(comp)))
        for lay, comp in zip(lays, comps)
    ]


def evolve_density(env, c: float, N: int) -> DensityLayer:
    """Run the density recursion to time N under the given environment."""
    return next(evolve_replicas([env], c, N))


def observables(layer: DensityLayer) -> PolymerObservables:
    z = float(layer.values.sum())
    if not z > 0.0:
        raise ValueError(f"partition sum must be positive, got {z}")
    k = walk.lattice_sum(layer.values, walk.slice_sqnorm(layer.d, layer.n))
    return PolymerObservables(Z=z, K=k, msd=k / z)


def path_batches(d: int, N: int, max_paths: int = MAX_BRUTE_PATHS):
    """Enumerate all (2d)^N nearest-neighbour paths in vectorized chunks.

    Yields (indices, endpoint_sqnorm) where indices is a length-N list of
    packed slice-index arrays (one per time step, matching the packed layer
    layouts) and endpoint_sqnorm is |omega(N)|^2 per path.  d = 2 paths are
    driven in diagonal coordinates: two base-4 digits per step give the
    independent u and v increments.
    """
    total = (2 * d) ** N
    if total > max_paths:
        raise ValueError(f"(2d)^N = {total} exceeds enumeration cap {max_paths}")
    for lo in range(0, total, _PATH_CHUNK):
        hi = min(lo + _PATH_CHUNK, total)
        codes = np.arange(lo, hi, dtype=np.int64)
        if d == 1:
            steps = ((codes[:, None] >> np.arange(N)) & 1) * 2 - 1
            pos = np.cumsum(steps, axis=1)
            idx = [(pos[:, n - 1] + n) >> 1 for n in range(1, N + 1)]
            yield idx, (pos[:, -1] ** 2).astype(np.float64)
        else:
            digits = (codes[:, None] >> (2 * np.arange(N))) & 3
            du = (digits & 1) * 2 - 1
            dv = ((digits >> 1) & 1) * 2 - 1
            u = np.cumsum(du, axis=1)
            v = np.cumsum(dv, axis=1)
            idx = [((u[:, n - 1] + n) >> 1, (v[:, n - 1] + n) >> 1) for n in range(1, N + 1)]
            yield idx, ((u[:, -1] ** 2 + v[:, -1] ** 2) // 2).astype(np.float64)


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
            if d == 1:
                s = signs[n - 1][idx[n - 1]]
            else:
                iu, iv = idx[n - 1]
                s = signs[n - 1][iu, iv]
            w *= 1.0 + c * s
        z_acc += float(w.sum())
        k_acc += float((w * end_sq).sum())
    scale = float(2 * d) ** (-N)
    z = z_acc * scale
    k = k_acc * scale
    if not z > 0.0:
        raise ValueError(f"partition sum must be positive, got {z}")
    return PolymerObservables(Z=z, K=k, msd=k / z)
