"""Exact second-moment oracles for the partition sum Z and displacement sum K.

Averaging the squared polymer weight over the +/-1 environment turns the
disorder into pair collisions: for two independent walks,

    E[Z(N)^2] = E[(1 + c^2)^{#{1 <= n <= N : omega(n) = omega~(n)}}],
    E[K(N)^2] = E[(1 + c^2)^{#collisions} |omega(N)|^2 |omega~(N)|^2],

and expanding the product over collision times gives the chain sum

    E[Z(N)^2] = sum_{n>=0} c^{2n} sum_{0<i_1<...<i_n<=N} sum_{x_1..x_n}
                prod_k p0(i_k - i_{k-1}, x_k - x_{k-1})^2,

with E[K^2] carrying the extra terminal factor ((N - i_n) + |x_n|^2)^2.

Summed over the number of collisions, the chain sum for E Z^2 is a scalar
renewal over collision times, with q(k) = p0(2k, 0) the chance that two
walks meet at time k:

    E[Z(N)^2] = 1 + sum_{i<=N} g(i),   g = c^2 q + c^2 (g * q).

Every quantity here is computed by at least two genuinely different routes:

* renewal: the O(N^2) scalar sum above, and for E K^2 its convolutions with
  the collision moments; the route `simulate`, `concentration` and `clt` take;
* expansion: per-order dynamic programming over the last collision time,
  carrying only the mass / |y|^2 / |y|^4 summaries of the last-collision
  site distribution (the terminal weight needs nothing more); one pass gives
  the per-order terms of both E Z^2 and E K^2, which `oracle` prints;
* pairwalk: direct dynamic programming over the pair of walks (difference
  walk for Z^2, joint state for K^2) with multiplicative collision weights;
  O(N^3) and more, a cross-check only;
* enumeration: literal sums over all path pairs, or over all environments,
  for small N; a cross-check only.

The renewal and the expansion share the closed-form collision moments of
walk.collision_layer_moments; the pair routes step their own difference-walk
and joint-state stencils.  Their agreement is the correctness argument.

Each CLI path computes its exact moments once per grid point: `simulate` and
`concentration` through centered_moments (in harness.exact_moments, before
any replica is sampled), and `oracle` through calibrate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine, walk
from .environment import enumerate_environments

# Joint-state pair DP caps (a route only the tests take): O(N * slice^2) costs.
EK2_PAIRWALK_MAX_N = {1: 512, 2: 48}
# Collision-expansion caps (an O(N^2) convolution per order); they bound
# `oracle`.
EXPANSION_MAX_N = {1: 4096, 2: 4096}
# Orders with relative contribution below this are truncated.
_ORDER_TAIL_REL = 1e-17


def check_expansion_cap(N: int, d: int) -> None:
    """Refuse an N above the collision expansion's cap, naming the --N flag."""
    cap = EXPANSION_MAX_N[d]
    if N > cap:
        raise ValueError(
            f"N = {N} is above the exact-moment cap N <= {cap} "
            f"for d = {d}; choose --N <= {cap}"
        )


def _fsum_finite(values, N: int, c: float, d: int) -> float:
    """math.fsum of nonnegative terms, refusing a sum that float64 cannot hold."""
    try:
        total = math.fsum(values)
        if math.isfinite(total):
            return total
    except OverflowError:
        pass
    raise ValueError(
        f"exact second moments overflow float64 at N = {N}, c = {c!r} (d = {d}); "
        "lower --c (or raise --eps) or --N"
    )


def _check_args(N: int, c: float, d: int) -> None:
    walk.check_dim(d)
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    if not 0.0 <= c < 1.0:
        raise ValueError(f"c must satisfy 0 <= c < 1, got {c}")


@np.errstate(over="ignore")  # callers refuse the overflowed sums
def _renewal(N: int, c: float, d: int) -> np.ndarray:
    """Collision-time renewal sequence U(0..N): U(0) = 1, U(i) = g(i) for i >= 1.

    g(i) = c^2 q(i) + c^2 sum_{j<i} g(j) q(i - j) sums every collision chain
    whose last collision is at time i, with q(k) = p0(2k, 0).  One dot per
    time step against a reversed copy of q: O(N^2) and no spatial layers.
    """
    _check_args(N, c, d)
    c2 = c * c
    q = walk.central_return_sequence(d, N)
    q_rev = q[::-1].copy()
    g = np.empty(N)
    for i in range(1, N + 1):
        # sum_{j=1}^{i-1} g(j) q(i - j); q(i - j) sits at q_rev[N - i + j].
        g[i - 1] = c2 * (q[i - 1] + float(np.dot(g[: i - 1], q_rev[N - i + 1 :])))
    return np.concatenate(([1.0], g))


def ez2_renewal(N: int, c: float, d: int) -> float:
    """E[Z^2] = 1 + sum_{i<=N} g(i) by the collision-time renewal."""
    return 1.0 + _fsum_finite(_renewal(N, c, d)[1:].tolist(), N, c, d)


def ez2_pairwalk(N: int, c: float, d: int) -> float:
    """E[Z^2] via the difference walk D_n = omega(n) - omega~(n).

    D is a lazy +/-2 walk (independent per diagonal axis for d = 2); each
    visit to 0 multiplies the accumulated weight by 1 + c^2.  O(N^3) at
    d = 2; the tests and the benchmark checks use it as a cross-check of
    ez2_renewal.
    """
    _check_args(N, c, d)
    w = 1.0 + c * c
    if d == 1:
        arr = np.ones(1)
        for n in range(1, N + 1):
            new = np.zeros(arr.shape[0] + 2)
            new[1:-1] += 0.5 * arr
            new[:-2] += 0.25 * arr
            new[2:] += 0.25 * arr
            new[n] *= w
            arr = new
        return float(arr.sum())
    arr = np.ones((1, 1))
    for n in range(1, N + 1):
        m = arr.shape[0]
        tmp = np.zeros((m + 2, m))
        tmp[1:-1] += 0.5 * arr
        tmp[:-2] += 0.25 * arr
        tmp[2:] += 0.25 * arr
        new = np.zeros((m + 2, m + 2))
        new[:, 1:-1] += 0.5 * tmp
        new[:, :-2] += 0.25 * tmp
        new[:, 2:] += 0.25 * tmp
        new[n, n] *= w
        arr = new
    return float(arr.sum())


def ek2_pairwalk(N: int, c: float, d: int) -> float:
    """E[K^2] via the joint pair state; needs both endpoints, hence the caps."""
    _check_args(N, c, d)
    cap = EK2_PAIRWALK_MAX_N[d]
    if N > cap:
        raise ValueError(f"joint pair DP capped at N = {cap} for d = {d}")
    w = 1.0 + c * c

    def grow(a: np.ndarray, axis: int) -> np.ndarray:
        # 2-tap packed step along one axis: index j' in {j, j+1}.
        shape = list(a.shape)
        shape[axis] += 1
        out = np.zeros(shape)
        lead = (slice(None),) * axis
        out[lead + (slice(0, -1),)] += a
        out[lead + (slice(1, None),)] += a
        out *= 0.5
        return out

    if d == 1:
        arr = np.ones((1, 1))
        for n in range(1, N + 1):
            arr = grow(grow(arr, 0), 1)
            ii = np.arange(n + 1)
            arr[ii, ii] *= w
        x = (2.0 * np.arange(N + 1) - N) ** 2
        return float(np.einsum("ij,i,j->", arr, x, x))
    arr = np.ones((1, 1, 1, 1))
    for n in range(1, N + 1):
        for ax in range(4):
            arr = grow(arr, ax)
        ii = np.arange(n + 1)
        arr[ii[:, None], ii[None, :], ii[:, None], ii[None, :]] *= w
    span = 2.0 * np.arange(N + 1) - N
    sq = 0.5 * (span[:, None] ** 2 + span[None, :] ** 2)
    return float(np.einsum("ijkl,ij,kl->", arr, sq, sq))


@dataclass(frozen=True)
class CollisionExpansion:
    """Per-order collision-chain contributions T_n, n = 0 .. len(orders)-1.

    orders[0] is the disorder-free term (1 for Z^2, N^2 for K^2).  truncated
    marks that trailing orders below the relative tail cutoff were dropped;
    the stored orders then determine the total to full float precision.
    """

    d: int
    N: int
    c: float
    kind: str  # "z2" or "k2"
    orders: np.ndarray
    truncated: bool

    @property
    def total(self) -> float:
        return math.fsum(self.orders.tolist())


def _extend(orders: list, t: float, N: int, c: float, d: int) -> bool:
    """Append the next order's term; False once it falls below the tail cutoff."""
    orders.append(t)
    return not (t == 0.0 or t < _ORDER_TAIL_REL * _fsum_finite(orders, N, c, d))


@np.errstate(over="ignore", invalid="ignore")  # _fsum_finite refuses overflowed orders
def collision_expansions(N: int, c: float, d: int) -> tuple[CollisionExpansion, CollisionExpansion]:
    """Per-order collision expansions of E[Z^2] and E[K^2] in one pass.

    State per order: arrays over the last collision time i = 1..N holding the
    mass a0, second moment a2 and fourth moment a4 of the last-collision site
    distribution.  Convolving two centrally symmetric site distributions only
    mixes these summaries:

        m4(mu * nu) = m4(mu) m0(nu) + m0(mu) m4(nu) + (2 + 4/d) m2(mu) m2(nu),

    so the spatial sums never need to be carried explicitly.  Each chain stops
    at its own tail cutoff, and a2/a4 are not convolved once the K^2 chain
    has stopped; a sum beyond float64 raises ValueError.
    """
    _check_args(N, c, d)
    check_expansion_cap(N, d)
    cm = walk.collision_layer_moments(d, N)
    q0, q2, q4 = cm.mass, cm.sq, cm.quart
    c2 = c * c
    cross = 2.0 + 4.0 / d
    back = (N - np.arange(1, N + 1)).astype(np.float64)
    z_orders = [1.0]
    k_orders = [float(N) * N]
    z_open = k_open = True
    # Order 1: single collision at time i with site distribution q(i, .).
    a0, a2, a4 = c2 * q0, c2 * q2, c2 * q4
    for order in range(1, N + 1):
        z_open = z_open and _extend(z_orders, float(a0.sum()), N, c, d)
        k_open = k_open and _extend(
            k_orders, float(np.dot(back * back, a0) + 2.0 * np.dot(back, a2) + a4.sum()), N, c, d
        )
        if order == N or not (z_open or k_open):
            break
        # Convolve in time with one more collision gap; index k of the
        # convolution output corresponds to time i = k + 2.
        b0 = np.convolve(a0, q0)[: N - 1]
        if k_open:
            b2 = np.convolve(a2, q0)[: N - 1] + np.convolve(a0, q2)[: N - 1]
            b4 = (
                np.convolve(a4, q0)[: N - 1]
                + np.convolve(a0, q4)[: N - 1]
                + cross * np.convolve(a2, q2)[: N - 1]
            )
            a2 = np.zeros(N)
            a2[1:] = c2 * b2
            a4 = np.zeros(N)
            a4[1:] = c2 * b4
        a0 = np.zeros(N)
        a0[1:] = c2 * b0
    return tuple(
        CollisionExpansion(
            d=d, N=N, c=c, kind=kind, orders=np.array(orders), truncated=len(orders) <= N
        )
        for kind, orders in (("z2", z_orders), ("k2", k_orders))
    )


def ez2_expansion(N: int, c: float, d: int) -> CollisionExpansion:
    """Per-order collision expansion of E[Z^2]."""
    return collision_expansions(N, c, d)[0]


def ek2_expansion(N: int, c: float, d: int) -> CollisionExpansion:
    """Per-order collision expansion of E[K^2] (terminal ((N-i) + |y|^2)^2)."""
    return collision_expansions(N, c, d)[1]


def weighted_fourth_sum(times, N: int, d: int) -> float:
    """Closed form of the chain-weighted fourth-moment sum

        sum_{x_1..x_n} prod_k p0(i_k - i_{k-1}, x_k - x_{k-1})
            * ((N - i_n)^2 + 2 (N - i_n) |x_n|^2 + |x_n|^4)

    for a strictly increasing collision-time sequence `times` inside [1, N].
    """
    walk.check_dim(d)
    seq = _check_times(times, N)
    gaps = np.diff(np.concatenate(([0], seq)))
    i_n = int(seq[-1])
    prev = seq - gaps  # i_{k-1}
    base = float((N - i_n) ** 2 + 2 * (N - i_n) * i_n)
    if d == 1:
        return base + float(3 * np.dot(gaps, gaps) - 2 * i_n + 6 * np.dot(gaps, prev))
    return base + float(2 * np.dot(gaps, gaps) - i_n + 4 * np.dot(gaps, prev))


def weighted_fourth_sum_direct(times, N: int, d: int) -> float:
    """Same sum evaluated by chaining packed-layer convolutions (no closed form)."""
    seq = _check_times(times, N)
    gaps = np.diff(np.concatenate(([0], seq)))
    dist = np.ones((1,) if d == 1 else (1, 1))
    for g in gaps:
        # Displacement by an SRW bridge of length g: convolve with p0(g, .),
        # realized as g single steps of the shared stencil.
        for _ in range(int(g)):
            dist = walk.step_layer(dist, d)
    i_n = int(seq[-1])
    sq = walk.slice_sqnorm(d, i_n)
    w = (N - i_n) ** 2 + 2.0 * (N - i_n) * sq + sq * sq
    return walk.lattice_sum(dist, w)


def _check_times(times, N: int) -> np.ndarray:
    seq = np.asarray(list(times), dtype=np.int64)
    if seq.size == 0:
        raise ValueError("time sequence must be nonempty")
    if seq[0] < 1 or seq[-1] > N or np.any(np.diff(seq) <= 0):
        raise ValueError(f"times must be strictly increasing inside [1, {N}]")
    return seq


@np.errstate(over="ignore", invalid="ignore")  # _fsum_finite refuses overflowed sums
def centered_moments(N: int, c: float, d: int) -> tuple[float, float]:
    """(var Z, var K) = (E Z^2 - 1, E K^2 - N^2) from the collision-time renewal.

    Summed over orders, the expansion's |y|^2 and |y|^4 chains are renewal
    convolutions (U = 1, g(1), ..., g(N); q2, q4 the collision moments):

        A2 = c^2 U*U*q2,   A4 = c^2 U*U*q4 + (2 + 4/d) c^4 U*U*U*q2*q2,
        var K = sum_{i>=1} (N - i)^2 g(i) + 2 (N - i) A2(i) + A4(i).

    var Z is ez2_renewal - 1, bit for bit.  harness.exact_moments calls this
    once per grid point; the tests cross-check it against the other routes.
    """
    u = _renewal(N, c, d)
    var_z = (1.0 + _fsum_finite(u[1:].tolist(), N, c, d)) - 1.0
    cm = walk.collision_layer_moments(d, N)

    def conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # in time, truncated at N
        return np.convolve(a, b)[: N + 1]

    q2, q4 = (np.concatenate(([0.0], m)) for m in (cm.sq, cm.quart))  # index = gap
    c2, uu = c * c, conv(u, u)
    a2 = c2 * conv(uu, q2)
    a4 = c2 * conv(uu, q4) + (2.0 + 4.0 / d) * (c2 * c2) * conv(conv(uu, u), conv(q2, q2))
    back = (N - np.arange(N + 1)).astype(np.float64)
    terms = back * back * u + 2.0 * back * a2 + a4
    return var_z, _fsum_finite(terms[1:].tolist(), N, c, d)


def _smallest_dominating_a(total: float, s: float, N: int, scale: float) -> float:
    """Bisect the smallest A >= 0 with scale * sum_{n=0}^{N} (A s)^n >= total."""
    if total <= scale:
        return 0.0
    terms = min(N, 4096)

    def dominated(a: float) -> bool:
        g = a * s
        acc = 1.0
        p = 1.0
        for _ in range(terms):
            p *= g
            if g <= 1.0 and acc + p == acc:
                # Later terms are no larger, so acc can no longer change.
                break
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


def _per_order_a(orders: np.ndarray, s: float, scale: float) -> float:
    best = 0.0
    for n in range(1, orders.shape[0]):
        t = orders[n] / scale
        if t > 0.0:
            best = max(best, t ** (1.0 / n) / s)
    return best


@dataclass(frozen=True)
class Calibration:
    """Both collision expansions at one (N, c, d) and their smallest
    geometric-domination constants: everything an `oracle` row prints.

    s is the disorder-collision scale (c^2 sqrt(N) for d = 1, c^2 log N for
    d = 2).  a_total_* is the smallest A with the full moment dominated by
    sum_n (A s)^n (times N^2 for K^2); a_order_* is the smallest A with every
    per-order term T_n <= (A s)^n individually.  s * a_order_* < 1 means the
    geometric series closes.  At s = 0 (c = 0, or d = 2 at N = 1) all four
    constants are 0.
    """

    z2: CollisionExpansion
    k2: CollisionExpansion
    s: float
    a_total_z2: float
    a_order_z2: float
    a_total_k2: float
    a_order_k2: float


def calibrate(N: int, c: float, d: int) -> Calibration:
    """One collision-expansion pass and the domination constants of its orders."""
    ez, ek = collision_expansions(N, c, d)
    s = c * c * walk.collision_scale(d, N)
    if s == 0.0:
        return Calibration(ez, ek, s, 0.0, 0.0, 0.0, 0.0)
    n2 = float(N) * N
    return Calibration(
        z2=ez,
        k2=ek,
        s=s,
        a_total_z2=_smallest_dominating_a(ez.total, s, N, 1.0),
        a_order_z2=_per_order_a(ez.orders, s, 1.0),
        a_total_k2=_smallest_dominating_a(ek.total, s, N, n2),
        a_order_k2=_per_order_a(ek.orders, s, n2),
    )


def pair_enumeration_moments(N: int, c: float, d: int) -> tuple[float, float]:
    """(E Z^2, E K^2) by literal enumeration of all (2d)^{2N} path pairs.

    The collision weight is accumulated as a dense pair matrix, so this is
    limited to (2d)^N <= 4096 paths; it exists purely as an oracle.
    """
    _check_args(N, c, d)
    if (2 * d) ** N > 4096:
        raise ValueError("pair enumeration limited to (2d)^N <= 4096 paths")
    # (2d)^N <= 4096 paths always fit in one batch.
    idx, end_sq = next(engine.path_batches(d, N))
    paths = end_sq.shape[0]
    # Encode each visited site as a single integer per time step.
    codes = np.empty((paths, N), dtype=np.int64)
    for n in range(1, N + 1):
        if d == 1:
            codes[:, n - 1] = idx[n - 1]
        else:
            iu, iv = idx[n - 1]
            codes[:, n - 1] = iu * (N + 2) + iv
    w = np.ones((paths, paths))
    c2 = 1.0 + c * c
    for n in range(N):
        col = codes[:, n]
        w *= np.where(col[:, None] == col[None, :], c2, 1.0)
    scale = float(2 * d) ** (-2 * N)
    ez2 = float(w.sum()) * scale
    ek2 = float(end_sq @ w @ end_sq) * scale
    return ez2, ek2


def environment_average_moments(d: int, horizon: int, c: float) -> dict:
    """Exhaustive environment averages of Z, K, Z^2, K^2 at time `horizon`.

    Runs the transfer-matrix engine once per sign table; the means are exact
    up to float rounding (fsum accumulation) and must match E Z = 1,
    E K = N and the pair oracles.
    """
    zs = []
    ks = []
    for table in enumerate_environments(d, horizon):
        obs = engine.observables(engine.evolve_density(table, c, horizon))
        zs.append(obs.Z)
        ks.append(obs.K)
    count = len(zs)
    return {
        "count": count,
        "mean_Z": math.fsum(zs) / count,
        "mean_K": math.fsum(ks) / count,
        "mean_Z2": math.fsum(z * z for z in zs) / count,
        "mean_K2": math.fsum(k * k for k in ks) / count,
    }
