import io
import math
import tracemalloc

import numpy as np
import pytest

from polymer_lab import engine, environment, fluctuation, harness, moments, walk


def test_config_validation():
    good = dict(rule=fluctuation.ScalingRule(1, 0.25), n_grid=(8, 16), replicas=4, master_seed=0)
    harness.ExperimentConfig(**good)
    with pytest.raises(ValueError):
        harness.ExperimentConfig(**{**good, "rule": fluctuation.ScalingRule(3, 0.25)})
    with pytest.raises(ValueError):
        harness.ExperimentConfig(**{**good, "n_grid": (16, 8)})
    with pytest.raises(ValueError):
        harness.ExperimentConfig(**{**good, "n_grid": (8, 8)})
    with pytest.raises(ValueError):
        harness.ExperimentConfig(**{**good, "n_grid": ()})
    with pytest.raises(ValueError):
        harness.ExperimentConfig(**{**good, "replicas": 0})
    with pytest.raises(ValueError):
        harness.ExperimentConfig(**{**good, "eps_prob": 0.0})
    with pytest.raises(ValueError):
        harness.ExperimentConfig(**{**good, "rule": fluctuation.ScalingRule(1, 0.25, 1.0)})
    with pytest.raises(ValueError):
        harness.ExperimentConfig(**{**good, "rule": fluctuation.ScalingRule(1, 0.0)})
    with pytest.raises(ValueError, match="need --eps or --c"):
        harness.ExperimentConfig(**{**good, "rule": fluctuation.ScalingRule(1, None)})
    with pytest.raises(ValueError):  # d=2 scaling needs N >= 2
        harness.ExperimentConfig(
            rule=fluctuation.ScalingRule(2, 0.25), n_grid=(1, 4), replicas=2, master_seed=0
        )
    # a_N is needed wherever c > 0, also under a c override; c = 0 needs none.
    with pytest.raises(ValueError, match="--N >= 2"):
        harness.ExperimentConfig(
            rule=fluctuation.ScalingRule(2, 0.25, 0.3), n_grid=(1, 4), replicas=2, master_seed=0
        )
    harness.ExperimentConfig(
        rule=fluctuation.ScalingRule(2, 0.25, 0.0), n_grid=(1, 4), replicas=2, master_seed=0
    )
    for d, cap in harness.SAMPLER_MAX_N.items():
        rule = fluctuation.ScalingRule(d, 0.25)
        harness.ExperimentConfig(rule=rule, n_grid=(cap,), replicas=1, master_seed=0)
        with pytest.raises(ValueError, match=f"sampler's cap N <= {cap}"):
            harness.ExperimentConfig(rule=rule, n_grid=(8, cap + 1), replicas=1, master_seed=0)


def test_fused_replica_matches_composition():
    # One lockstep task of three replicas against the single-environment
    # pass and the dense-kernel reference for the linear term, bit for bit.
    c = 0.27
    for d, n in ((1, 19), (2, 11)):
        kern = walk.build_kernel(d, n)
        seeds = [environment.derive_replica_seed(5, d, rep) for rep in range(3)]
        block = harness.simulate_replica(d, n, c, seeds)
        assert block.shape == (3, 3)
        for seed, (z, k, linear) in zip(seeds, block.T):
            env = environment.EnvironmentField(seed=seed, d=d, horizon=n)
            obs = engine.observables(engine.evolve_density(env, c, n))
            assert (z, k, k / z) == (obs.Z, obs.K, obs.msd)
            assert linear == float(np.sum(fluctuation.linear_components(env, c, n, kern)))


def _same_points(one, other) -> bool:
    """Every field of two GridSample lists equal, the columns bit for bit."""
    return len(one) == len(other) and all(
        (p.d, p.N, p.c, p.a, p.exact, p.seeds) == (q.d, q.N, q.c, q.a, q.exact, q.seeds)
        and all(np.array_equal(getattr(p, col), getattr(q, col)) for col in ("Z", "K", "linear"))
        for p, q in zip(one, other)
    )


def test_run_replicas_deterministic_across_workers():
    base = dict(rule=fluctuation.ScalingRule(1, 0.25), n_grid=(8, 16), replicas=10, master_seed=42)
    r1 = harness.run_replicas(harness.ExperimentConfig(**base, workers=1))
    r3 = harness.run_replicas(harness.ExperimentConfig(**base, workers=3))
    assert _same_points(r1, r3)
    buf1, buf3 = io.StringIO(), io.StringIO()
    harness.write_csv(r1, buf1)
    harness.write_csv(r3, buf3)
    assert buf1.getvalue() == buf3.getvalue()


def _csv_bytes(config) -> str:
    buf = io.StringIO()
    harness.write_csv(harness.run_replicas(config), buf)
    return buf.getvalue()


def test_batch_split_keeps_bytes():
    # A row block here holds more than 10 replicas, so the tasks are the
    # workers' shares: 5+5 at 2 workers and 4+4+2 at 3.
    base = dict(rule=fluctuation.ScalingRule(1, 0.25), n_grid=(8, 16), replicas=10, master_seed=42)
    unsplit = _csv_bytes(harness.ExperimentConfig(**base))
    for workers in (2, 3):
        assert _csv_bytes(harness.ExperimentConfig(**base, workers=workers)) == unsplit


def _one_point(d, N, replicas, workers=1) -> harness.ExperimentConfig:
    return harness.ExperimentConfig(
        rule=fluctuation.ScalingRule(d, None, 0.3), n_grid=(N,), replicas=replicas, master_seed=3,
        workers=workers,
    )


def _record_task_sizes(monkeypatch) -> list[int]:
    """Make simulate_replica record the size of every task it is handed."""
    sizes = []
    inner = harness.simulate_replica

    def recording(d, N, c, seeds):
        sizes.append(len(seeds))
        return inner(d, N, c, seeds)

    monkeypatch.setattr(harness, "simulate_replica", recording)
    return sizes


def test_run_tasks_hold_at_most_a_row_block(monkeypatch):
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 1 << 14)
    sizes = _record_task_sizes(monkeypatch)
    for d, N in ((1, 64), (2, 16)):
        for replicas in (150, 600):
            sizes.clear()
            assert harness.run_replicas(_one_point(d, N, replicas))[0].count == replicas
            assert sum(sizes) == replicas
            assert max(sizes) <= engine.block_rows(d, N)


def _run_working_memory(d, N, replicas) -> int:
    """Peak minus held traced memory of a one-worker run."""
    tracemalloc.start()
    try:
        results = harness.run_replicas(_one_point(d, N, replicas))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert results[0].count == replicas
    return peak - held


def test_pool_gets_no_more_workers_than_tasks(monkeypatch):
    # Under fork the pool starts all its workers at the first submit, so
    # the run asks for no more than it has tasks.  The stand-in maps
    # in-process and starts no process.
    made = []

    class InProcessPool:
        def __init__(self, max_workers):
            made.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", InProcessPool)
    # Two replicas at eight workers: two one-replica tasks, two workers.
    assert _csv_bytes(_one_point(1, 64, 2, workers=8)) == _csv_bytes(_one_point(1, 64, 2))
    assert made == [2]
    # One replica: one task, run in-process.
    assert _csv_bytes(_one_point(1, 64, 1, workers=8)) == _csv_bytes(_one_point(1, 64, 1))
    assert made == [2]


def test_run_memory_is_set_by_the_row_block(monkeypatch):
    # numpy reports its buffers to tracemalloc.  A run steps one row block
    # at a time, so its working memory beyond the results it returns is
    # about one block's however many replicas it runs: only the per-replica
    # bookkeeping grows.  One stack over all replicas would grow with them.
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 1 << 14)
    for d, N in ((1, 64), (2, 16)):
        assert _run_working_memory(d, N, 600) < 1.5 * _run_working_memory(d, N, 150)


def test_tasks_across_the_row_block_cap_keep_bytes(monkeypatch):
    # At d = 2, N = 130 a row block holds 3 replicas, so 5 replicas run as
    # tasks of 3+2 on one worker and of 2+2+1 on three.
    d, N = 2, 130
    assert engine.block_rows(d, N) == 3
    sizes = _record_task_sizes(monkeypatch)
    one = harness.run_replicas(_one_point(d, N, 5))
    assert sizes == [3, 2]
    monkeypatch.undo()
    buf = io.StringIO()
    harness.write_csv(one, buf)
    assert _csv_bytes(_one_point(d, N, 5, workers=3)) == buf.getvalue()
    pt = one[0]
    for seed, z, k, linear in zip(pt.seeds, pt.Z, pt.K, pt.linear):
        env = environment.EnvironmentField(seed=seed, d=d, horizon=N)
        layer = engine.evolve_density(env, pt.c, N)
        obs = engine.observables(layer)
        assert (z, k, linear) == (obs.Z, obs.K, layer.linear)


def test_run_replicas_layout_and_seeds():
    config = harness.ExperimentConfig(
        rule=fluctuation.ScalingRule(1, 0.25), n_grid=(4, 8), replicas=6, master_seed=9
    )
    pts = harness.run_replicas(config)
    assert len(pts) == 2
    assert [pt.N for pt in pts] == [4, 8]
    assert [pt.count for pt in pts] == [6, 6]
    assert [pt.column("replica_id") for pt in pts] == [list(range(6))] * 2
    assert len({seed for pt in pts for seed in pt.seeds}) == 12
    for grid_index, n in enumerate(config.n_grid):
        for rep in range(6):
            want = environment.derive_replica_seed(9, grid_index, rep)
            assert pts[grid_index].seeds[rep] == want
    for pt in pts:
        for z, linear, remainder in zip(pt.Z, pt.linear, pt.remainder):
            assert remainder == z - 1.0 - linear


@pytest.mark.parametrize(
    "rule,n_grid",
    [(fluctuation.ScalingRule(2, 0.25), (4, 8)), (fluctuation.ScalingRule(2, None, 0.0), (1, 4))],
)
def test_run_replicas_reads_each_point_resolved_once(rule, n_grid, monkeypatch):
    # The config resolves (N, c_N, a_N) once; run_replicas asks the rule again for none of them.
    config = harness.ExperimentConfig(rule=rule, n_grid=n_grid, replicas=3, master_seed=5)

    def again(*args):
        raise AssertionError("a grid point was resolved a second time")

    for name in ("grid", "c_of", "a_of"):
        monkeypatch.setattr(fluctuation.ScalingRule, name, again)
    pts = harness.run_replicas(config)
    assert [(pt.N, pt.c, pt.a) for pt in pts] == list(config.points)


def test_zero_disorder_replicas():
    config = harness.ExperimentConfig(
        rule=fluctuation.ScalingRule(2, 0.25, 0.0), n_grid=(6,), replicas=5, master_seed=1
    )
    pts = harness.run_replicas(config)
    assert pts[0].a is None
    for z, msd, linear in zip(pts[0].Z, pts[0].msd, pts[0].linear):
        assert z == pytest.approx(1.0, abs=1e-14)
        assert msd == pytest.approx(6.0, rel=1e-14)
        assert linear == 0.0
    conc = harness.concentration_report(pts, 0.05)
    assert conc[0].exceedance == 0.0
    norm = harness.normality_report(pts)
    assert norm[0].degenerate


def test_single_replica_exceedance_is_zero_or_one():
    config = harness.ExperimentConfig(
        rule=fluctuation.ScalingRule(1, 0.25), n_grid=(8,), replicas=1, master_seed=3
    )
    conc = harness.concentration_report(harness.run_replicas(config), 0.1)
    assert conc[0].exceedance in (0.0, 1.0)


def test_chebyshev_bound_cap_and_formula():
    assert harness.chebyshev_bound(64, moments.centered_moments(64, 0.4, 1), 0.1) == 1.0
    b = harness.chebyshev_bound(16, moments.centered_moments(16, 0.01, 1), 0.5)
    m = moments.centered_moments(16, 0.01, 1)
    delta = 0.5 / 2.5
    assert b == pytest.approx((m.var_k / 256.0 + m.var_z) / delta ** 2, rel=1e-12)
    assert b < 1.0
    with pytest.raises(ValueError):
        harness.concentration_report([], 0.0)
    with pytest.raises(ValueError):
        harness.concentration_report([], 0.5)  # empty input


def test_concentration_groups_and_se():
    config = harness.ExperimentConfig(
        rule=fluctuation.ScalingRule(1, 0.25), n_grid=(8, 16), replicas=25, master_seed=2
    )
    rows = harness.concentration_report(harness.run_replicas(config), 0.2)
    assert [row.N for row in rows] == [8, 16]
    for row in rows:
        assert row.count == 25
        assert 0.0 <= row.exceedance <= 1.0
        assert row.binom_se == pytest.approx(
            math.sqrt(row.exceedance * (1 - row.exceedance) / 25)
        )


def test_normality_report_targets():
    config = harness.ExperimentConfig(
        rule=fluctuation.ScalingRule(1, 0.25), n_grid=(16,), replicas=200, master_seed=8
    )
    row = harness.normality_report(harness.run_replicas(config))[0]
    c = config.rule.c_of(16)
    a = config.rule.a_of(16, c)
    assert row.a == pytest.approx(a, rel=1e-14)
    m = row.metrics
    assert set(m) == {"centered", "linear", "remainder"}
    # exact targets wired through
    assert m["centered"]["sigma2_target"] == pytest.approx(
        a * a * (moments.ez2_pairwalk(16, c, 1) - 1.0), rel=1e-12
    )
    assert m["linear"]["sigma2_target"] == pytest.approx(
        a * a * fluctuation.linear_variance_exact(16, c, 1), rel=1e-12
    )
    # empirical variances should be in the right ballpark at R=200
    assert m["linear"]["variance"] == pytest.approx(m["linear"]["sigma2_target"], rel=0.5)
    # sample mean square of the linear part has a finite SE column
    assert m["linear"]["mean_sq_se"] > 0.0


def test_write_csv_round_trip():
    config = harness.ExperimentConfig(
        rule=fluctuation.ScalingRule(2, 0.25), n_grid=(5,), replicas=3, master_seed=4
    )
    (pt,) = harness.run_replicas(config)
    buf = io.StringIO()
    harness.write_csv([pt], buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ",".join(harness.CSV_COLUMNS)
    assert len(lines) == 4
    for rep, line in enumerate(lines[1:]):
        row = dict(zip(harness.CSV_COLUMNS, line.split(",")))
        assert int(row["replica_id"]) == rep
        assert int(row["seed"]) == pt.seeds[rep]
        assert (int(row["d"]), int(row["N"]), float(row["c"])) == (2, 5, pt.c)
        # repr round-trips exactly
        for name in ("Z", "K", "msd", "linear", "remainder"):
            assert float(row[name]) == getattr(pt, name)[rep]


def _mk_conc(N, exceedance, bound, count=100):
    return harness.SummaryStats(
        d=1, N=N, c=0.1, count=count,
        exceedance=exceedance, eps_prob=0.1, chebyshev_bound=bound,
        binom_se=math.sqrt(max(exceedance * (1 - exceedance), 0.0) / count),
        beats_bound=exceedance
        > bound + 3.0 * math.sqrt(max(exceedance * (1 - exceedance), 0.0) / count),
    )


def test_check_failures_cases():
    ok_rows = [_mk_conc(8, 0.3, 1.0), _mk_conc(16, 0.2, 1.0), _mk_conc(32, 0.25, 1.0)]
    assert harness.check_failures(ok_rows, []) == []
    beaten = [_mk_conc(8, 0.5, 0.1)]
    assert any("Chebyshev" in p for p in harness.check_failures(beaten, []))
    rising = [_mk_conc(8, 0.1, 1.0), _mk_conc(16, 0.2, 1.0), _mk_conc(32, 0.3, 1.0)]
    assert any("trend" in p for p in harness.check_failures(rising, []))
    norm_bad = harness.SummaryStats(
        d=1, N=8, c=0.1, count=100, mean_Z=2.0, var_Z_exact=0.04
    )
    assert any("mean Z" in p for p in harness.check_failures(ok_rows, [norm_bad]))
    norm_ok = harness.SummaryStats(
        d=1, N=8, c=0.1, count=100, mean_Z=1.01, var_Z_exact=0.04
    )
    assert harness.check_failures(ok_rows, [norm_ok]) == []
    # The scaled remainder's SE here is sqrt(4 / 100) = 0.2: 0.9 is within
    # 5 SE of 0, 1.1 is not, and a zero exact variance skips the check.
    def norm_rem(mean, sigma2_target):
        return harness.SummaryStats(
            d=1, N=8, c=0.1, count=100, mean_Z=1.0, var_Z_exact=0.04,
            metrics={"remainder": {"mean": mean, "sigma2_target": sigma2_target}},
        )
    assert harness.check_failures(ok_rows, [norm_rem(0.9, 4.0), norm_rem(-0.9, 4.0)]) == []
    assert harness.check_failures(ok_rows, [norm_rem(5.0, None)]) == []
    bad = harness.check_failures(ok_rows, [norm_rem(-1.1, 4.0)])
    assert len(bad) == 1 and "mean remainder" in bad[0]
