"""Deterministic replica harness: parallel runs, concentration and normality reports.

run_replicas hands on one GridSample per grid point: d, N, c, a_N, the
point's exact-moment record (all built before any replica is sampled), the
replica seeds and the per-replica float64 columns.  It cuts each point's
seeds into tasks of consecutive replicas, each at most a worker's share and
at most engine.block_rows(d, N), which bounds a task's working memory.  A
task is one lockstep pass of engine.evolve_replicas and returns its block of
the columns Z, K and linear, joined in replica order.  Every replica depends
only on its derived seed, so output bytes are identical for any worker
count.  No transition kernel is built: the linear term reads the pass's
rolling free-walk layer.  The CSV writer and both reports read the records
alone; a new per-replica number is one more column of the record and one
more CSV_COLUMNS name.
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
# Largest N the sampler runs (a d = 2 layer at N = 4096 is 134 MB); the
# exact-moment renewal's own cap is far higher.
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
        # The rule refuses a bad eps or c, and a bad grid point naming --N.
        # a_N is validated wherever c > 0 (the normality report needs it),
        # which refuses N = 1 for d = 2.
        rule = self.rule()
        for n, c in rule.grid(grid):
            if c > 0.0:
                rule.a_of(n, c)
        if self.replicas < 1:
            raise ValueError(f"replicas must be >= 1 (--replicas), got {self.replicas}")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1 (--threads), got {self.workers}")
        if not 0.0 < self.eps_prob < 1.0:
            raise ValueError(f"eps_prob must lie in (0, 1) (--eps-prob), got {self.eps_prob}")
        # Refused before any replica is sampled.
        cap = SAMPLER_MAX_N[self.d]
        if self.n_grid[-1] > cap:
            raise ValueError(
                f"N = {self.n_grid[-1]} is above the sampler's cap N <= {cap} "
                f"for d = {self.d}; choose --N <= {cap}"
            )

    def rule(self) -> fluctuation.ScalingRule:
        return fluctuation.ScalingRule(self.d, self.eps, self.c_override)


@dataclass(frozen=True, eq=False)
class GridSample:
    """The replicas of one grid point.  A replica's id is its position; Z, K
    and linear are read-only float64 columns, one entry per seed."""

    d: int
    N: int
    c: float
    a: float | None  # a_N, None at c = 0
    exact: moments.ExactMoments
    seeds: tuple[int, ...]
    Z: np.ndarray
    K: np.ndarray
    linear: np.ndarray

    @property
    def count(self) -> int:
        return len(self.seeds)

    @property
    def msd(self) -> np.ndarray:
        return self.K / self.Z

    @property
    def remainder(self) -> np.ndarray:
        return self.Z - 1.0 - self.linear

    def column(self, name: str) -> list:
        """The CSV column `name`, one Python value per replica."""
        if name == "replica_id":
            return list(range(self.count))
        if name == "seed":
            return list(self.seeds)
        value = getattr(self, name)
        return value.tolist() if isinstance(value, np.ndarray) else [value] * self.count


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


def simulate_replica(d: int, N: int, c: float, seeds) -> np.ndarray:
    """One lockstep task, a row block: the (3, len(seeds)) columns Z, K and
    linear of the replicas with these seeds, in order."""
    envs = [EnvironmentField(seed=seed, d=d, horizon=N) for seed in seeds]
    out = np.empty((3, len(envs)))
    for i, layer in enumerate(engine.evolve_replicas(envs, c, N)):
        obs = engine.observables(layer)
        out[:, i] = obs.Z, obs.K, layer.linear
    return out


def run_replicas(config: ExperimentConfig) -> list[GridSample]:
    """One GridSample per grid point, in grid order.

    Every exact record is built before the first task.  The columns are
    bit-identical for any worker count: every replica depends only on its
    derived seed and the blocks are joined in submission order.
    """
    d, R, rule = config.d, config.replicas, config.rule()
    # Each point's GridSample fields but its columns.
    heads = [
        (d, N, c, rule.a_of(N, c) if c > 0.0 else None, moments.centered_moments(N, c, d),
         tuple(derive_replica_seed(config.master_seed, g, r) for r in range(R)))
        for g, (N, c) in enumerate(rule.grid(config.n_grid))
    ]
    tasks = []
    for _, N, c, _, _, seeds in heads:
        size = min(math.ceil(R / config.workers), engine.block_rows(d, N))
        tasks += [(d, N, c, seeds[i : i + size]) for i in range(0, R, size)]
    columns = list(zip(*tasks))
    # The pool forks all its workers at once, so it gets no more than tasks.
    workers = min(config.workers, len(tasks))
    if workers == 1:
        blocks = list(map(simulate_replica, *columns))
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(simulate_replica, *columns))
    cols = np.concatenate(blocks, axis=1)  # (3, grid points * R), in (grid, replica) order
    cols.flags.writeable = False
    return [GridSample(*head, *cols[:, g * R : (g + 1) * R]) for g, head in enumerate(heads)]


def chebyshev_bound(N: int, exact: moments.ExactMoments, eps_prob: float) -> float:
    """Union Chebyshev bound on P(|msd/N - 1| > eps_prob) from the exact
    moments at N.

    If |K/N - 1| and |Z - 1| are both <= delta = eps_prob/(2 + eps_prob) then
    msd/N lies within eps_prob of 1, so the probability is at most
    (var K / N^2 + var Z) / delta^2, capped at 1.
    """
    delta = eps_prob / (2.0 + eps_prob)
    return min(1.0, (exact.var_k / (float(N) * N) + exact.var_z) / (delta * delta))


def concentration_report(points, eps_prob: float) -> list[SummaryStats]:
    """Empirical exceedance of |msd/N - 1| per grid point vs the Chebyshev
    bound from the point's exact record.

    beats_bound flags an empirical exceedance above the exact Chebyshev bound
    by more than 3 binomial standard errors, which would indicate a harness
    or oracle defect, not bad luck.
    """
    if not 0.0 < eps_prob < 1.0:
        raise ValueError("eps_prob must lie in (0, 1)")
    if not points:
        raise ValueError("no replica results to summarize")
    rows = []
    for pt in points:
        ratios, zs, count = pt.msd / pt.N, pt.Z, pt.count
        p_hat = float(np.mean(np.abs(ratios - 1.0) > eps_prob))
        bound = chebyshev_bound(pt.N, pt.exact, eps_prob)
        se = stats.binomial_se(p_hat, count)
        rows.append(
            SummaryStats(
                d=pt.d,
                N=pt.N,
                c=pt.c,
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


def normality_report(points) -> list[SummaryStats]:
    """Distribution diagnostics of a_N (Z - 1), its linear part and remainder.

    Targets are a^2 times the exact variances of the point's exact record:
    var Z for the centered partition sum, the linear variance for the linear
    part and the orthogonality identity for the remainder.  Degenerate
    samples (c = 0) are flagged rather than crashed on.
    """
    rows = []
    for pt in points:
        row = SummaryStats(d=pt.d, N=pt.N, c=pt.c, count=pt.count, mean_Z=float(np.mean(pt.Z)))
        if pt.c == 0.0:
            row.degenerate = True
            rows.append(row)
            continue
        a, m = pt.a, pt.exact
        row.a = a
        row.var_Z_exact = m.var_z
        row.sigma2_limit = fluctuation.limit_variance(pt.d, pt.N)
        a2 = a * a
        row.metrics = {
            "centered": _sample_metrics(a * (pt.Z - 1.0), a2 * m.var_z),
            "linear": _sample_metrics(a * pt.linear, a2 * m.lin_var),
            "remainder": _sample_metrics(
                a * pt.remainder, a2 * m.rem_var if m.rem_var > 0.0 else None
            ),
        }
        row.degenerate = row.metrics["centered"]["degenerate"]
        rows.append(row)
    return rows


def write_csv(points, fh) -> None:
    """One row per replica, its GridSample columns in CSV_COLUMNS order;
    values via repr (floats: shortest round trip), so output is byte stable
    across runs and worker counts."""
    fh.write(",".join(CSV_COLUMNS) + "\n")
    for pt in points:
        for row in zip(*(pt.column(name) for name in CSV_COLUMNS)):
            fh.write(",".join(map(repr, row)) + "\n")


def check_failures(conc_rows, norm_rows) -> list[str]:
    """Acceptance-style checks for --check runs; empty list means pass.

    Fails when any exceedance beats its Chebyshev bound, the exceedance trend
    along the grid is not nonincreasing (one inversion allowed), the mean
    of Z drifts from 1 by more than 5 standard errors, or the mean of the
    remainder drifts from its exact mean 0 by more than 5 standard errors
    (from its exact variance; skipped where that is 0).
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
        # The normalized remainder a_N R_N has variance sigma2_target.
        rem = row.metrics.get("remainder")
        if rem is not None and rem["sigma2_target"] is not None:
            se = math.sqrt(rem["sigma2_target"] / row.count)
            if abs(rem["mean"]) > 5.0 * se:
                problems.append(
                    f"N={row.N}: mean remainder = {rem['mean']:.6g} (scaled by a_N) "
                    f"is more than 5 SE from 0"
                )
    return problems
