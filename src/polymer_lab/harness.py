"""Deterministic replica harness: parallel runs, concentration and normality reports.

Replicas are embarrassingly parallel and completely determined by their
derived seeds.  run_replicas cuts each grid point's replicas into tasks of
consecutive replicas, each at most a worker's share and at most
engine.block_rows(d, N) replicas, which bounds a task's working memory.
Each task is one lockstep pass of engine.evolve_replicas, and the results are
reassembled in replica order.  Every replica's numbers come from the same
operations whatever task it lands in, so output bytes are identical for any
worker count.  No transition kernel is built: the linear term reads the
pass's rolling free-walk layer.

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


@dataclass(frozen=True, kw_only=True)
class ExperimentConfig:
    """One simulation request: a grid of horizons at one disorder strength.
    The defaults are the CLI's for an option not given."""

    d: int
    n_grid: tuple[int, ...]
    eps: float | None = None
    c_override: float | None = None
    replicas: int = 100
    master_seed: int = 0
    eps_prob: float = 0.1
    workers: int = 1

    def __post_init__(self) -> None:
        walk.check_dim(self.d)
        grid = self.n_grid
        if not grid or list(grid) != sorted(grid):
            raise ValueError(f"n_grid must be nonempty and sorted, got {grid}")
        if grid[0] < 1:
            raise ValueError(f"--N must be >= 1, got {grid[0]}")
        for n, after in zip(grid, grid[1:]):
            if n == after:
                raise ValueError(f"--N {n} is given twice")
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1 (--replicas), got {self.replicas}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1 (--threads), got {self.workers}")
        if not 0.0 < self.eps_prob < 1.0:
            raise ValueError(f"eps_prob must lie in (0, 1) (--eps-prob), got {self.eps_prob}")
        # The rule refuses a bad eps or c.  a_N is validated wherever c > 0
        # (the normality report needs it), which refuses N = 1 for d = 2.
        rule = self.rule()
        for n in grid:
            if rule.c_of(n) > 0.0:
                rule.a_of(n)
        # Refused before any replica is sampled.
        cap = SAMPLER_MAX_N[self.d]
        if self.n_grid[-1] > cap:
            raise ValueError(
                f"N = {self.n_grid[-1]} is above the sampler's cap N <= {cap} "
                f"for d = {self.d}; choose --N <= {cap}"
            )

    def rule(self) -> fluctuation.ScalingRule:
        return fluctuation.ScalingRule(self.d, self.eps, self.c_override)

    def c_of(self, N: int) -> float:
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


def simulate_replica(d: int, N: int, c: float, jobs) -> list[ReplicaResult]:
    """One lockstep task, a row block: jobs is a list of (replica_id, seed);
    returns one ReplicaResult per job, in order."""
    envs = [EnvironmentField(seed=seed, d=d, horizon=N) for _, seed in jobs]
    out = []
    for (replica_id, seed), layer in zip(jobs, engine.evolve_replicas(envs, c, N)):
        obs, lin = engine.observables(layer), layer.linear
        out.append(
            ReplicaResult(
                replica_id=replica_id, seed=seed, d=d, N=N, c=c, Z=obs.Z, K=obs.K, msd=obs.msd,
                linear=lin, remainder=obs.Z - 1.0 - lin,
            )
        )
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
        size = min(math.ceil(len(jobs) / config.workers), engine.block_rows(config.d, N))
        tasks += [(config.d, N, c, jobs[i : i + size]) for i in range(0, len(jobs), size)]
    columns = list(zip(*tasks))
    if config.workers == 1:
        batches = list(map(simulate_replica, *columns))
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            batches = list(pool.map(simulate_replica, *columns))
    return [result for batch in batches for result in batch]


def _group(results) -> dict[tuple[int, int, float], list[ReplicaResult]]:
    groups: dict[tuple[int, int, float], list[ReplicaResult]] = {}
    for r in results:
        groups.setdefault((r.d, r.N, r.c), []).append(r)
    return groups


def exact_moments(config: ExperimentConfig) -> dict[int, moments.ExactMoments]:
    """The exact-moment record per grid point N, from moments.centered_moments.

    The CLI calls this before run_replicas, so moments beyond float64 are
    refused before any replica is sampled.
    """
    return {N: moments.centered_moments(N, config.c_of(N), config.d) for N in config.n_grid}


def chebyshev_bound(N: int, exact: moments.ExactMoments, eps_prob: float) -> float:
    """Union Chebyshev bound on P(|msd/N - 1| > eps_prob) from the exact
    moments at N.

    If |K/N - 1| and |Z - 1| are both <= delta = eps_prob/(2 + eps_prob) then
    msd/N lies within eps_prob of 1, so the probability is at most
    (var K / N^2 + var Z) / delta^2, capped at 1.
    """
    delta = eps_prob / (2.0 + eps_prob)
    return min(1.0, (exact.var_k / (float(N) * N) + exact.var_z) / (delta * delta))


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
        "variance": acc.variance(ddof=1) if acc.count > 1 else None,
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

    Targets are a^2 times the exact variances of exact (exact_moments of the
    run): var Z for the centered partition sum, the linear variance for the
    linear part and the orthogonality identity for the remainder.  Degenerate
    samples (c = 0) are flagged rather than crashed on.
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
        m = exact[N]
        row.a = a
        row.var_Z_exact = m.var_z
        row.sigma2_limit = fluctuation.limit_variance(d, N)
        a2 = a * a
        row.metrics = {
            "centered": _sample_metrics(a * (zs - 1.0), a2 * m.var_z),
            "linear": _sample_metrics(a * np.array([r.linear for r in group]), a2 * m.lin_var),
            "remainder": _sample_metrics(
                a * np.array([r.remainder for r in group]),
                a2 * m.rem_var if m.rem_var > 0.0 else None,
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
