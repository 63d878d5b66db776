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
  the collision moments; the route of every exact number the CLI prints;
* expansion: per-order dynamic programming over the last collision time,
  carrying only the mass / |y|^2 / |y|^4 summaries of the last-collision
  site distribution (the terminal weight needs nothing more); one pass gives
  the per-order terms of both E Z^2 and E K^2, which `oracle` prints, by
  six _convolve_head calls per order (about N^2/2 multiply-adds each);
* pairwalk: direct dynamic programming over the pair of walks (difference
  walk for Z^2, joint state for K^2) with multiplicative collision weights;
  O(N^3) and more, a cross-check only;
* enumeration: literal sums over all path pairs, or over all environments,
  for small N; a cross-check only.

The renewal and the expansion share the closed-form collision moments of
walk.collision_layer_moments; the pair routes step their own difference-walk
and joint-state stencils.  Their agreement is the correctness argument.

Every exact number a CLI path prints or compares against comes from one
ExactMoments record per grid point (centered_moments, one renewal pass);
`oracle` adds only the expansion's per-order terms and calibrate's constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import engine, walk
from .environment import enumerate_environments

# Joint-state pair DP caps (a route only the tests take): O(N * slice^2) costs.
EK2_PAIRWALK_MAX_N = {1: 512, 2: 48}
# Collision-expansion caps (six head convolutions per order, each about
# N^2/2 multiply-adds); they bound `oracle`.
EXPANSION_MAX_N = {1: 4096, 2: 4096}
# Renewal caps (O(N^2) dots, about 10 min at the cap on 2 CPUs); they bound `clt`.
RENEWAL_MAX_N = {1: 1 << 20, 2: 1 << 20}
# Orders with relative contribution below this are truncated.
_ORDER_TAIL_REL = 1e-17
# Block length of _convolve_head: 256 to 2048 time alike on 2 CPUs (128 is
# slower), and a dot this short is never split across BLAS threads.
_HEAD_BLOCK = 512


def check_n_cap(N: int, d: int, caps: dict) -> None:
    """Refuse an N above caps[d], an exact-moment cap, naming the --N flag."""
    walk.check_dim(d)
    cap = caps[d]
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
        raise ValueError(f"--N must be >= 1, got {N}")
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
    check_n_cap(N, d, RENEWAL_MAX_N)
    c2 = c * c
    q = walk.central_return_sequence(d, N)
    q_rev = q[::-1].copy()
    g = np.empty(N)
    for i in range(1, N + 1):
        # sum_{j=1}^{i-1} g(j) q(i - j); q(i - j) sits at q_rev[N - i + j].
        g[i - 1] = c2 * (q[i - 1] + float(np.dot(g[: i - 1], q_rev[N - i + 1 :])))
    return np.concatenate(([1.0], g))


def _convolve_head(a: np.ndarray, b: np.ndarray, m: int) -> np.ndarray:
    """The first m entries of a * b, zero-padded to m.

    a goes in blocks of _HEAD_BLOCK; a block at index k meets only b[: m - k],
    so the cost is about m^2/2 multiply-adds, not len(a) len(b).  No FFT: its
    error scales with the largest entry, and late expansion orders sit far
    below it.

    np.convolve correlates the longer input with a reversed copy of the
    shorter, which it makes itself wherever malloc puts it, 16-byte aligned;
    BLAS dots against a 64-byte aligned copy run about 30% faster.  So each
    block hands np.convolve the shorter input as a reversed view of a
    64-byte aligned reversed copy, which it takes as is: the same call on the
    same values, so the same bits, at a speed that heap layout cannot move.
    """
    out = np.zeros(m)
    spare = np.empty(_HEAD_BLOCK + 7)
    rev = spare[-spare.ctypes.data // 8 % 8 :]
    for k in range(0, min(len(a), m), _HEAD_BLOCK):
        x, y = a[k : k + _HEAD_BLOCK], b[: m - k]
        if len(y) > len(x):
            x, y = y, x
        r = rev[: len(y)]
        r[:] = y[::-1]
        head = np.convolve(x, r[::-1])[: m - k]
        out[k : k + len(head)] += head
    return out


def _lazy_step(arr: np.ndarray, axis: int) -> np.ndarray:
    """One lazy +/-2 step of the difference walk along one axis: stay with
    chance 1/2, move by -2 or +2 with chance 1/4 each; the axis grows by 2."""
    shape = list(arr.shape)
    shape[axis] += 2
    new = np.zeros(shape)
    lead = (slice(None),) * axis
    new[lead + (slice(1, -1),)] += 0.5 * arr
    new[lead + (slice(None, -2),)] += 0.25 * arr
    new[lead + (slice(2, None),)] += 0.25 * arr
    return new


def ez2_pairwalk(N: int, c: float, d: int) -> float:
    """E[Z^2] via the difference walk D_n = omega(n) - omega~(n).

    D is a lazy +/-2 walk, independent per diagonal axis; each visit to 0
    multiplies the accumulated weight by 1 + c^2.  O(N^3) at d = 2; the
    tests and the benchmark checks use it as a cross-check of the renewal.
    """
    _check_args(N, c, d)
    w = 1.0 + c * c
    arr = np.ones((1,) * d)
    for n in range(1, N + 1):
        for axis in range(d):
            arr = _lazy_step(arr, axis)
        arr[(n,) * d] *= w
    return float(arr.sum())


def ek2_pairwalk(N: int, c: float, d: int) -> float:
    """E[K^2] via the joint pair state; needs both endpoints, hence the caps.

    The state has axes (walk 1's d diagonal axes, walk 2's), each in the
    packed index of its slice; the walks collide where the two index tuples
    agree.
    """
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

    arr = np.ones((1,) * (2 * d))
    for n in range(1, N + 1):
        for axis in range(2 * d):
            arr = grow(arr, axis)
        site = tuple(np.indices((n + 1,) * d))
        arr[site + site] *= w
    # |x|^2 = u^2 in d = 1 and (u^2 + v^2)/2 in d = 2, u, v the diagonal
    # coordinates 2j - N of the endpoint.
    sq = sum(u * u for u in 2.0 * np.indices((N + 1,) * d) - N) / d
    size = sq.size
    return float(np.einsum("ij,i,j->", arr.reshape(size, size), sq.ravel(), sq.ravel()))


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
    check_n_cap(N, d, EXPANSION_MAX_N)
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
        b0 = _convolve_head(a0, q0, N - 1)
        if k_open:
            b2 = _convolve_head(a2, q0, N - 1) + _convolve_head(a0, q2, N - 1)
            b4 = (
                _convolve_head(a4, q0, N - 1)
                + _convolve_head(a0, q4, N - 1)
                + cross * _convolve_head(a2, q2, N - 1)
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


@dataclass(frozen=True)
class ExactMoments:
    """E Z^2, var Z, var K (summed directly, not as E K^2 - N^2), and the
    variances of the linear chaos term, c^2 sum_{k<=N} p0(2k, 0), and of the
    remainder, var Z - lin_var clamped at 0 against rounding at tiny c."""

    ez2: float
    var_z: float
    var_k: float
    lin_var: float
    rem_var: float


@np.errstate(over="ignore", invalid="ignore")  # _fsum_finite refuses overflowed sums
def centered_moments(N: int, c: float, d: int) -> ExactMoments:
    """The ExactMoments record at (N, c, d) from the collision-time renewal.

    Summed over orders, the expansion's |y|^2 and |y|^4 chains are renewal
    convolutions (U = 1, g(1), ..., g(N); q2, q4 the collision moments):

        A2 = c^2 U*U*q2,   A4 = c^2 U*U*q4 + (2 + 4/d) c^4 U*U*U*q2*q2,
        var K = sum_{i>=1} (N - i)^2 g(i) + 2 (N - i) A2(i) + A4(i).

    The collision mass is p0(2k, 0), so lin_var is
    fluctuation.linear_variance_exact bit for bit.  The tests cross-check
    the record against the other routes.
    """
    u = _renewal(N, c, d)
    ez2 = 1.0 + _fsum_finite(u[1:].tolist(), N, c, d)
    cm = walk.collision_layer_moments(d, N)

    def conv(a: np.ndarray, b: np.ndarray) -> np.ndarray:  # in time, truncated at N
        return _convolve_head(a, b, N + 1)

    q2, q4 = (np.concatenate(([0.0], m)) for m in (cm.sq, cm.quart))  # index = gap
    c2, uu = c * c, conv(u, u)
    a2 = c2 * conv(uu, q2)
    a4 = c2 * conv(uu, q4) + (2.0 + 4.0 / d) * (c2 * c2) * conv(conv(uu, u), conv(q2, q2))
    back = (N - np.arange(N + 1)).astype(np.float64)
    terms = back * back * u + 2.0 * back * a2 + a4
    var_z, lin_var = ez2 - 1.0, c2 * math.fsum(cm.mass.tolist())
    var_k = _fsum_finite(terms[1:].tolist(), N, c, d)
    return ExactMoments(ez2, var_z, var_k, lin_var, max(var_z - lin_var, 0.0))


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
        if mid in (lo, hi):  # adjacent floats: no later step moves hi
            break
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
    """Everything an `oracle` row prints: the exact-moment record, both
    collision expansions and their smallest geometric-domination constants.

    s is the disorder-collision scale (c^2 sqrt(N) for d = 1, c^2 log N for
    d = 2).  a_total_* is the smallest A with the record's full moment
    dominated by sum_n (A s)^n (times N^2 for K^2); a_order_* is the smallest
    A with every per-order term T_n <= (A s)^n individually.  s * a_order_* < 1
    means the geometric series closes.  At s = 0 (c = 0, or d = 2 at N = 1)
    all four constants are 0.
    """

    exact: ExactMoments
    z2: CollisionExpansion
    k2: CollisionExpansion
    s: float
    a_total_z2: float
    a_order_z2: float
    a_total_k2: float
    a_order_k2: float


def calibrate(N: int, c: float, d: int) -> Calibration:
    """The exact-moment record, one collision-expansion pass and the domination constants."""
    ez, ek = collision_expansions(N, c, d)
    exact = centered_moments(N, c, d)
    s = c * c * walk.collision_scale(d, N)
    if s == 0.0:
        return Calibration(exact, ez, ek, s, 0.0, 0.0, 0.0, 0.0)
    n2 = float(N) * N
    return Calibration(
        exact=exact,
        z2=ez,
        k2=ek,
        s=s,
        a_total_z2=_smallest_dominating_a(exact.ez2, s, N, 1.0),
        a_order_z2=_per_order_a(ez.orders, s, 1.0),
        a_total_k2=_smallest_dominating_a(n2 + exact.var_k, s, N, n2),
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
    w = np.ones((paths, paths))
    c2 = 1.0 + c * c
    for site in idx:
        # Each visited site as a single integer.
        col = np.ravel_multi_index(site, (N + 1,) * d)
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
