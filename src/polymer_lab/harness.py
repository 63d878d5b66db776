"""Deterministic replica harness: parallel runs, concentration and normality reports.

Replicas are embarrassingly parallel and completely determined by their
derived seeds.  run_replicas cuts each grid point's replicas into one task
of consecutive replicas per worker, runs every task through one lockstep
pass of engine.evolve_replicas, and reassembles the results in replica
order.  The pass yields each replica's final layer and linear term row
block by row block, and simulate_replica turns each layer into Z, K and
msd as it comes, so a task's memory is that of one row block, whatever its
size.  Every replica's numbers come from the same operations whatever task
or block it lands in, so output bytes are identical for any worker count.
No transition kernel is built: the linear term reads the pass's rolling
free-walk layer.

The exact moments a run's reports compare against come from exact_moments,
once per grid point; the CLI calls it before it samples any replica.  The
reports take those values as input and call no oracle.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import engine, fluctuation, moments, stats, walk
from .environment import EnvironmentField, derive_replica_seed

CSV_COLUMNS = (
    "replica_id",
    "seed",
    "d",
    "N",
    "c",
    "Z",
    "K",
    "msd",
    "linear",
    "remainder",
)
# Largest N the sampler runs (a d = 2 layer at N = 4096 is 134 MB);
# exact_moments has no cap.
SAMPLER_MAX_N = {1: 4096, 2: 4096}


@dataclass(frozen=True)
class ExperimentConfig:
    """One simulation request: a grid of horizons at a common scaling rule."""

    d: int
    eps: float
    n_grid: tuple[int, ...]
    replicas: int
    master_seed: int
    c_override: float | None = None
    eps_prob: float = 0.1
    workers: int = 1

    def __post_init__(self) -> None:
        walk.check_dim(self.d)
        if not self.n_grid or any(n < 1 for n in self.n_grid):
            raise ValueError("n_grid must be nonempty with N >= 1")
        if list(self.n_grid) != sorted(set(self.n_grid)):
            raise ValueError("n_grid must be strictly increasing")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1 (--replicas), got {self.replicas}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1 (--threads), got {self.workers}")
        if not 0.0 < self.eps_prob < 1.0:
            raise ValueError(f"eps_prob must lie in (0, 1) (--eps-prob), got {self.eps_prob}")
        if self.c_override is not None and not 0.0 <= self.c_override < 1.0:
            raise ValueError("c override must satisfy 0 <= c < 1")
        # Validates eps, c_N, and a_N wherever c > 0 (the normality report
        # needs it), which refuses N = 1 for d = 2.
        rule = fluctuation.scaling(self.d, self.eps)
        for n in self.n_grid:
            c = self.c_of(n)
            if c > 0.0:
                rule.a_of(n, c)
        # Refused before any replica is sampled.
        cap = SAMPLER_MAX_N[self.d]
        if self.n_grid[-1] > cap:
            raise ValueError(
                f"N = {self.n_grid[-1]} is above the sampler's cap N <= {cap} "
                f"for d = {self.d}; choose --N <= {cap}"
            )

    def rule(self) -> fluctuation.ScalingRule:
        return fluctuation.scaling(self.d, self.eps)

    def c_of(self, N: int) -> float:
        if self.c_override is not None:
            return self.c_override
        return self.rule().c_of(N)


@dataclass(frozen=True)
class ReplicaResult:
    replica_id: int
    seed: int
    d: int
    N: int
    c: float
    Z: float
    K: float
    msd: float
    linear: float
    remainder: float


@dataclass
class SummaryStats:
    """Per grid point summary; concentration and normality fill their parts."""

    d: int
    N: int
    c: float
    count: int
    mean_Z: float | None = None
    var_Z: float | None = None
    mean_msd_ratio: float | None = None
    var_msd_ratio: float | None = None
    exceedance: float | None = None
    eps_prob: float | None = None
    chebyshev_bound: float | None = None
    binom_se: float | None = None
    beats_bound: bool | None = None
    a: float | None = None
    var_Z_exact: float | None = None
    sigma2_limit: float | None = None
    degenerate: bool = False
    metrics: dict = field(default_factory=dict)


def simulate_replica(d: int, N: int, c: float, jobs) -> list[tuple]:
    """One lockstep task: jobs is a list of (replica_id, seed); returns
    (replica_id, seed, Z, K, msd, linear) per job, in order."""
    envs = [EnvironmentField(seed=seed, d=d, horizon=N) for _, seed in jobs]
    out = []
    for (replica_id, seed), layer in zip(jobs, engine.evolve_replicas(envs, c, N)):
        obs = engine.observables(layer)
        out.append((replica_id, seed, obs.Z, obs.K, obs.msd, layer.linear))
    return out


def run_replicas(config: ExperimentConfig) -> list[ReplicaResult]:
    """All replicas over the full grid, in (grid, replica) order.

    Results are bit-identical for any worker count: every replica depends
    only on its derived seed and results are reassembled in submission order.
    """
    tasks = []
    for grid_index, N in enumerate(config.n_grid):
        c = config.c_of(N)
        jobs = [
            (r, derive_replica_seed(config.master_seed, grid_index, r))
            for r in range(config.replicas)
        ]
        size = math.ceil(len(jobs) / config.workers)
        tasks += [(config.d, N, c, jobs[i : i + size]) for i in range(0, len(jobs), size)]
    columns = list(zip(*tasks))
    if config.workers == 1:
        batches = list(map(simulate_replica, *columns))
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            batches = list(pool.map(simulate_replica, *columns))
    return [
        ReplicaResult(
            replica_id=replica_id,
            seed=seed,
            d=d,
            N=N,
            c=c,
            Z=z,
            K=k,
            msd=msd,
            linear=lin,
            remainder=z - 1.0 - lin,
        )
        for (d, N, c, _), batch in zip(tasks, batches)
        for replica_id, seed, z, k, msd, lin in batch
    ]


def _group(results) -> dict[tuple[int, int, float], list[ReplicaResult]]:
    groups: dict[tuple[int, int, float], list[ReplicaResult]] = {}
    for r in results:
        groups.setdefault((r.d, r.N, r.c), []).append(r)
    return groups


def exact_moments(config: ExperimentConfig) -> dict[int, tuple[float, float]]:
    """(var Z, var K) per grid point N, from moments.centered_moments.

    The CLI calls this before run_replicas, so moments beyond float64 are
    refused before any replica is sampled.
    """
    return {N: moments.centered_moments(N, config.c_of(N), config.d) for N in config.n_grid}


def chebyshev_bound(N: int, exact: tuple[float, float], eps_prob: float) -> float:
    """Union Chebyshev bound on P(|msd/N - 1| > eps_prob) from the exact
    moments exact = (var Z, var K) at N.

    If |K/N - 1| and |Z - 1| are both <= delta = eps_prob/(2 + eps_prob) then
    msd/N lies within eps_prob of 1, so the probability is at most
    (var K / N^2 + var Z) / delta^2, capped at 1.
    """
    var_z, var_k = exact
    delta = eps_prob / (2.0 + eps_prob)
    return min(1.0, (var_k / (float(N) * N) + var_z) / (delta * delta))


def concentration_report(results, exact: dict, eps_prob: float) -> list[SummaryStats]:
    """Empirical exceedance of |msd/N - 1| per grid point vs the Chebyshev
    bound from exact (exact_moments of the run).

    beats_bound flags an empirical exceedance above the exact Chebyshev bound
    by more than 3 binomial standard errors, which would indicate a harness
    or oracle defect, not bad luck.
    """
    if not 0.0 < eps_prob < 1.0:
        raise ValueError("eps_prob must lie in (0, 1)")
    results = list(results)
    if not results:
        raise ValueError("no replica results to summarize")
    rows = []
    for (d, N, c), group in sorted(_group(results).items()):
        ratios = np.array([r.msd / r.N for r in group])
        zs = np.array([r.Z for r in group])
        count = len(group)
        p_hat = float(np.mean(np.abs(ratios - 1.0) > eps_prob))
        bound = chebyshev_bound(N, exact[N], eps_prob)
        se = stats.binomial_se(p_hat, count)
        rows.append(
            SummaryStats(
                d=d,
                N=N,
                c=c,
                count=count,
                mean_Z=float(np.mean(zs)),
                var_Z=float(np.var(zs, ddof=1)) if count > 1 else None,
                mean_msd_ratio=float(np.mean(ratios)),
                var_msd_ratio=float(np.var(ratios, ddof=1)) if count > 1 else None,
                exceedance=p_hat,
                eps_prob=eps_prob,
                chebyshev_bound=bound,
                binom_se=se,
                beats_bound=p_hat > bound + 3.0 * se,
            )
        )
    return rows


def _sample_metrics(values: np.ndarray, sigma2_target: float | None) -> dict:
    acc = stats.RunningMoments().extend(values)
    out = {
        "mean": acc.mean,
        "variance": acc.variance(ddof=1),
        "sigma2_target": sigma2_target,
    }
    if acc.degenerate:
        out.update({"degenerate": True, "skewness": None, "excess_kurtosis": None, "ks": None})
        return out
    out.update(
        {
            "degenerate": False,
            "skewness": acc.skewness(),
            "excess_kurtosis": acc.excess_kurtosis(),
        }
    )
    if sigma2_target is not None and sigma2_target > 0.0:
        out["ks"] = stats.ks_normal_distance(values, 0.0, sigma2_target)
    else:
        out["ks"] = None
    # Mean of the squared sample and its standard error, for exact-variance
    # comparisons (the mean of v^2 estimates E v^2 directly).
    sq = values * values
    out["mean_sq"] = float(np.mean(sq))
    out["mean_sq_se"] = float(np.std(sq, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else None
    return out


def normality_report(
    results, exact: dict, rule: fluctuation.ScalingRule
) -> list[SummaryStats]:
    """Distribution diagnostics of a_N (Z - 1), its linear part and remainder.

    Targets come from the exact moments: a^2 var Z for the centered
    partition sum, with var Z read from exact (exact_moments of the run),
    the epsilon-free limit variance for the linear part, and the
    orthogonality identity for the remainder.  Degenerate samples (c = 0)
    are flagged rather than crashed on.
    """
    rows = []
    for (d, N, c), group in sorted(_group(results).items()):
        if d != rule.d:
            raise ValueError("scaling rule dimension does not match results")
        a = rule.a_of(N, c) if c > 0.0 else None
        row = SummaryStats(d=d, N=N, c=c, count=len(group))
        zs = np.array([r.Z for r in group])
        row.mean_Z = float(np.mean(zs))
        if c == 0.0:
            row.degenerate = True
            rows.append(row)
            continue
        var_z_exact = exact[N][0]
        lin_var = fluctuation.linear_variance_exact(N, c, d)
        # The value of fluctuation.remainder_variance_exact, from the E Z^2
        # already in hand.
        rem_var = max(var_z_exact - lin_var, 0.0)
        row.a = a
        row.var_Z_exact = var_z_exact
        row.sigma2_limit = fluctuation.limit_variance(d, N)
        a2 = a * a
        row.metrics = {
            "centered": _sample_metrics(a * (zs - 1.0), a2 * var_z_exact),
            "linear": _sample_metrics(a * np.array([r.linear for r in group]), a2 * lin_var),
            "remainder": _sample_metrics(
                a * np.array([r.remainder for r in group]),
                a2 * rem_var if rem_var > 0.0 else None,
            ),
        }
        row.degenerate = row.metrics["centered"]["degenerate"]
        rows.append(row)
    return rows


def write_csv(results, fh) -> None:
    """One row per replica; floats via repr (shortest round trip), so output
    is byte stable across runs and worker counts."""
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for r in results:
        fh.write(
            f"{r.replica_id},{r.seed},{r.d},{r.N},{r.c!r},{r.Z!r},{r.K!r},"
            f"{r.msd!r},{r.linear!r},{r.remainder!r}\n"
        )


def check_failures(conc_rows, norm_rows) -> list[str]:
    """Acceptance-style checks for --check runs; empty list means pass.

    Fails when any exceedance beats its Chebyshev bound, the exceedance trend
    along the grid is not nonincreasing (one inversion allowed), or the mean
    of Z drifts from 1 by more than 5 standard errors.
    """
    problems = []
    for row in conc_rows:
        if row.beats_bound:
            problems.append(
                f"N={row.N}: exceedance {row.exceedance:.4f} beats Chebyshev bound "
                f"{row.chebyshev_bound:.4f} by more than 3 SE"
            )
    trend = [row.exceedance for row in sorted(conc_rows, key=lambda r: r.N)]
    if len(trend) >= 2 and not stats.nonincreasing_with_allowance(trend, 1):
        problems.append(f"exceedance trend {trend} not nonincreasing (1 inversion allowed)")
    for row in norm_rows:
        if row.degenerate or row.var_Z_exact is None:
            continue
        se = math.sqrt(row.var_Z_exact / row.count)
        if abs(row.mean_Z - 1.0) > 5.0 * se:
            problems.append(
                f"N={row.N}: mean Z = {row.mean_Z:.6f} is more than 5 SE from 1"
            )
    return problems
