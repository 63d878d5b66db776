"""Intermediate-disorder scaling rules and the linear fluctuation decomposition.

The centered partition sum splits as

    Z(N) - 1 = sum_{k=1}^N f_k + R_N,
    f_k = c sum_x h(k, x) p0(k, x),

where f_k collects the order-one chaos of layer k.  The f_k are mutually
orthogonal with E f_k^2 = c^2 p0(2k, 0), and R_N (every higher-order chaos
term) is orthogonal to all of them, so

    E R_N^2 = E Z^2 - 1 - c^2 sum_{k<=N} p0(2k, 0)

exactly.  Under the scaling rules below the normalized linear part has
variance a_N^2 c_N^2 sum_k p0(2k, 0), which is epsilon-free because
a_N^2 c_N^2 = N^{-1/2} (d = 1) resp. 1/log N (d = 2), and converges to
2/sqrt(pi) resp. 1/pi.

The sampler takes sum_k f_k from the density recursion itself
(engine.evolve_replicas rolls p0 next to the polymer layers).
linear_components computes the same f_k from a dense TransitionKernel; it
is the independent reference the tests compare the recursion against.  Both
routes sum each f_k in the fixed order of walk.lattice_sum, so they agree bit
for bit at any BLAS thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import moments, walk

# Large-N limits of the normalized linear-term variance.
SIGMA2_LIMIT = {1: 2.0 / math.sqrt(math.pi), 2: 1.0 / math.pi}


@dataclass(frozen=True)
class ScalingRule:
    """The disorder strength of one run and its normalizer a_N.

    d = 1: c_N = N^(-(1/4 + eps)),        a_N = (c_N^2 sqrt(N))^(-1/2);
    d = 2: c_N = (log N)^(-(1/2 + eps)),  a_N = (c_N^2 log N)^(-1/2),

    with natural logarithms and eps > 0.  Both schedules keep c_N^2 sqrt(N)
    resp. c_N^2 log N decaying, which is the intermediate-disorder condition.
    A fixed c (--c) takes the place of c_N at every N; a_N follows from c
    alone, so eps is then read by nothing.
    """

    d: int
    eps: float | None
    c: float | None = None

    def __post_init__(self) -> None:
        walk.check_dim(self.d)
        if self.eps is None and self.c is None:
            raise ValueError("need --eps or --c to fix the disorder strength")
        if self.eps is not None and not self.eps > 0.0:
            raise ValueError(f"eps must be > 0 (--eps), got {self.eps}")
        if self.c is not None and not 0.0 <= self.c < 1.0:
            raise ValueError(f"c must satisfy 0 <= c < 1 (--c), got {self.c}")

    def grid(self, ns) -> list[tuple[int, float]]:
        """(N, c_N) for each N of a --N grid, in the order given.  Refuses an
        N < 1, an N given twice and (c_of) an N with c_N >= 1, naming --N."""
        for i, N in enumerate(ns):
            if N < 1:
                raise ValueError(f"--N must be >= 1, got {N}")
            if N in ns[:i]:
                raise ValueError(f"--N {N} is given twice")
        return [(N, self.c_of(N)) for N in ns]

    def c_of(self, N: int) -> float:
        if self.c is not None:
            return self.c
        # At any eps > 0, c_N < 1 exactly from N^(1/4) > 1 (N >= 2) in d = 1
        # and from log N > 1 (N >= 3) in d = 2.
        smallest = 2 if self.d == 1 else 3
        if N < smallest:
            raise ValueError(f"c_N >= 1 at --N {N} for d = {self.d}; choose --N >= {smallest}")
        if self.d == 1:
            return float(N) ** -(0.25 + self.eps)
        return math.log(N) ** -(0.5 + self.eps)

    def a_of(self, N: int, c: float) -> float:
        """Normalizer for Z - 1 at N and c: s^(-1/2), s = walk.disorder_scale."""
        if N < self.d:  # the collision scale is 0 at N = 1 in d = 2 (log N)
            raise ValueError(f"a_N needs N >= {self.d} for d = {self.d}; choose --N >= {self.d}")
        if not c > 0.0:
            raise ValueError("normalizer a_N undefined at c = 0; choose --c > 0")
        return walk.disorder_scale(self.d, N, c) ** -0.5


def scaling(d: int, eps: float) -> ScalingRule:
    return ScalingRule(d=d, eps=eps)


def linear_components(env, c: float, N: int, kernel: walk.TransitionKernel) -> np.ndarray:
    """Per-layer linear terms f_k = c sum_x h(k, x) p0(k, x), k = 1..N,
    read from a dense kernel (reference route)."""
    if kernel.d != env.d:
        raise ValueError("kernel and environment dimensions differ")
    if kernel.n_max < N or env.horizon < N:
        raise ValueError(f"kernel/environment must cover N = {N}")
    if not 0.0 <= c < 1.0:
        raise ValueError(f"c must satisfy 0 <= c < 1, got {c}")
    out = np.empty(N)
    for k in range(1, N + 1):
        out[k - 1] = c * walk.lattice_sum(kernel.layer(k), env.slice_signs(k))
    return out


def linear_variance_exact(N: int, c: float, d: int) -> float:
    """E[(sum_k f_k)^2] = c^2 sum_{k<=N} p0(2k, 0), exact."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    returns = walk.central_return_sequence(d, N)
    return c * c * math.fsum(returns.tolist())


def remainder_variance_exact(N: int, c: float, d: int) -> float:
    """E[R_N^2] = E Z^2 - 1 - c^2 sum_{k<=N} p0(2k, 0), read from the exact-moment record."""
    return moments.centered_moments(N, c, d).rem_var


def limit_variance(d: int, N: int) -> float:
    """sigma^2(N) = a_N^2 c_N^2 sum_{k<=N} p0(2k, 0), with exact returns.

    a_N^2 c_N^2 collapses to 1/sqrt(N) (d = 1) resp. 1/log N (d = 2), so the
    value depends on neither eps nor any c override.
    """
    walk.check_dim(d)
    if N < 1 or (d == 2 and N < 2):
        raise ValueError(f"N = {N} out of range for d = {d}")
    returns = walk.central_return_sequence(d, N)
    return math.fsum(returns.tolist()) / walk.collision_scale(d, N)
