import io
import math
import tracemalloc

import numpy as np
import pytest

from polymer_lab import engine, environment, fluctuation, harness, moments, walk


def test_config_validation():
    good = dict(d=1, eps=0.25, n_grid=(8, 16), replicas=4, master_seed=0)
    harness.ExperimentConfig(**good)
    with pytest.raises(ValueError):
        harness.ExperimentConfig(**{**good, "d": 3})
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
        harness.ExperimentConfig(**{**good, "c_override": 1.0})
    with pytest.raises(ValueError):
        harness.ExperimentConfig(**{**good, "eps": 0.0})
    with pytest.raises(ValueError):  # d=2 scaling needs N >= 2
        harness.ExperimentConfig(d=2, eps=0.25, n_grid=(1, 4), replicas=2, master_seed=0)
    # a_N is needed wherever c > 0, also under a c override; c = 0 needs none.
    with pytest.raises(ValueError, match="--N >= 2"):
        harness.ExperimentConfig(
            d=2, eps=0.25, n_grid=(1, 4), replicas=2, master_seed=0, c_override=0.3
        )
    harness.ExperimentConfig(
        d=2, eps=0.25, n_grid=(1, 4), replicas=2, master_seed=0, c_override=0.0
    )
    for d, cap in harness.SAMPLER_MAX_N.items():
        harness.ExperimentConfig(d=d, eps=0.25, n_grid=(cap,), replicas=1, master_seed=0)
        with pytest.raises(ValueError, match=f"sampler's cap N <= {cap}"):
            harness.ExperimentConfig(d=d, eps=0.25, n_grid=(8, cap + 1), replicas=1, master_seed=0)


def test_fused_replica_matches_composition():
    # One lockstep task of three replicas against the single-environment
    # pass and the dense-kernel reference for the linear term, bit for bit.
    c = 0.27
    for d, n in ((1, 19), (2, 11)):
        kern = walk.build_kernel(d, n)
        jobs = [(rep, environment.derive_replica_seed(5, d, rep)) for rep in range(3)]
        rows = harness.simulate_replica(d, n, c, jobs)
        assert [row[:2] for row in rows] == jobs
        for (_, seed), (_, _, z, k, msd, lin) in zip(jobs, rows):
            env = environment.EnvironmentField(seed=seed, d=d, horizon=n)
            obs = engine.observables(engine.evolve_density(env, c, n))
            assert (z, k, msd) == (obs.Z, obs.K, obs.msd)
            assert lin == float(np.sum(fluctuation.linear_components(env, c, n, kern)))


def test_run_replicas_deterministic_across_workers():
    base = dict(d=1, eps=0.25, n_grid=(8, 16), replicas=10, master_seed=42)
    r1 = harness.run_replicas(harness.ExperimentConfig(**base, workers=1))
    r3 = harness.run_replicas(harness.ExperimentConfig(**base, workers=3))
    assert r1 == r3
    buf1, buf3 = io.StringIO(), io.StringIO()
    harness.write_csv(r1, buf1)
    harness.write_csv(r3, buf3)
    assert buf1.getvalue() == buf3.getvalue()


def _csv_bytes(config) -> str:
    buf = io.StringIO()
    harness.write_csv(harness.run_replicas(config), buf)
    return buf.getvalue()


def test_batch_split_keeps_bytes():
    # One task per worker: 10 replicas make tasks of 5+5 at 2 workers and
    # 4+4+2 at 3, each cut into different row blocks.
    base = dict(d=1, eps=0.25, n_grid=(8, 16), replicas=10, master_seed=42)
    unsplit = _csv_bytes(harness.ExperimentConfig(**base))
    for workers in (2, 3):
        assert _csv_bytes(harness.ExperimentConfig(**base, workers=workers)) == unsplit


def _task_working_memory(d, N, count) -> int:
    """Peak minus held traced memory of one lockstep task of count replicas."""
    jobs = [(r, environment.derive_replica_seed(3, d, r)) for r in range(count)]
    tracemalloc.start()
    try:
        rows = harness.simulate_replica(d, N, 0.3, jobs)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(rows) == count
    return peak - held


def test_task_memory_is_set_by_the_row_block(monkeypatch):
    # A task turns each layer into observables as the pass yields it, so
    # its working memory is about one row block's however many replicas it
    # runs: only the per-replica bookkeeping grows.  Holding every final
    # layer until the task ends would grow it with the task size.
    monkeypatch.setattr(engine, "_BLOCK_BYTES", 1 << 14)
    for d, N in ((1, 64), (2, 16)):
        assert _task_working_memory(d, N, 600) < 1.5 * _task_working_memory(d, N, 150)


def test_run_replicas_layout_and_seeds():
    config = harness.ExperimentConfig(d=1, eps=0.25, n_grid=(4, 8), replicas=6, master_seed=9)
    rs = harness.run_replicas(config)
    assert len(rs) == 12
    assert [r.N for r in rs] == [4] * 6 + [8] * 6
    assert [r.replica_id for r in rs] == list(range(6)) * 2
    assert len({r.seed for r in rs}) == 12
    for grid_index, n in enumerate(config.n_grid):
        for rep in range(6):
            want = environment.derive_replica_seed(9, grid_index, rep)
            assert rs[grid_index * 6 + rep].seed == want
    for r in rs:
        assert r.remainder == pytest.approx(r.Z - 1.0 - r.linear, abs=1e-15)


def test_zero_disorder_replicas():
    config = harness.ExperimentConfig(
        d=2, eps=0.25, n_grid=(6,), replicas=5, master_seed=1, c_override=0.0
    )
    rs = harness.run_replicas(config)
    for r in rs:
        assert r.Z == pytest.approx(1.0, abs=1e-14)
        assert r.msd == pytest.approx(6.0, rel=1e-14)
        assert r.linear == 0.0
    exact = harness.exact_moments(config)
    conc = harness.concentration_report(rs, exact, 0.05)
    assert conc[0].exceedance == 0.0
    norm = harness.normality_report(rs, exact, config.rule())
    assert norm[0].degenerate


def test_single_replica_exceedance_is_zero_or_one():
    config = harness.ExperimentConfig(d=1, eps=0.25, n_grid=(8,), replicas=1, master_seed=3)
    rs = harness.run_replicas(config)
    conc = harness.concentration_report(rs, harness.exact_moments(config), 0.1)
    assert conc[0].exceedance in (0.0, 1.0)


def test_chebyshev_bound_cap_and_formula():
    assert harness.chebyshev_bound(64, moments.centered_moments(64, 0.4, 1), 0.1) == 1.0
    b = harness.chebyshev_bound(16, moments.centered_moments(16, 0.01, 1), 0.5)
    var_z, var_k = moments.centered_moments(16, 0.01, 1)
    delta = 0.5 / 2.5
    assert b == pytest.approx((var_k / 256.0 + var_z) / delta ** 2, rel=1e-12)
    assert b < 1.0
    with pytest.raises(ValueError):
        harness.concentration_report([], {}, 0.0)
    with pytest.raises(ValueError):
        harness.concentration_report([], {}, 0.5)  # empty input


def test_concentration_groups_and_se():
    config = harness.ExperimentConfig(d=1, eps=0.25, n_grid=(8, 16), replicas=25, master_seed=2)
    rs = harness.run_replicas(config)
    rows = harness.concentration_report(rs, harness.exact_moments(config), 0.2)
    assert [row.N for row in rows] == [8, 16]
    for row in rows:
        assert row.count == 25
        assert 0.0 <= row.exceedance <= 1.0
        assert row.binom_se == pytest.approx(
            math.sqrt(row.exceedance * (1 - row.exceedance) / 25)
        )


def test_normality_report_targets():
    config = harness.ExperimentConfig(d=1, eps=0.25, n_grid=(16,), replicas=200, master_seed=8)
    rs = harness.run_replicas(config)
    row = harness.normality_report(rs, harness.exact_moments(config), config.rule())[0]
    c = config.c_of(16)
    a = config.rule().a_of(16, c)
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


def test_normality_rule_mismatch():
    config = harness.ExperimentConfig(d=1, eps=0.25, n_grid=(8,), replicas=3, master_seed=1)
    rs = harness.run_replicas(config)
    with pytest.raises(ValueError):
        harness.normality_report(rs, harness.exact_moments(config), fluctuation.scaling(2, 0.25))


def test_write_csv_round_trip():
    config = harness.ExperimentConfig(d=2, eps=0.25, n_grid=(5,), replicas=3, master_seed=4)
    rs = harness.run_replicas(config)
    buf = io.StringIO()
    harness.write_csv(rs, buf)
    lines = buf.getvalue().strip().split("\n")
    assert lines[0] == ",".join(harness.CSV_COLUMNS)
    assert len(lines) == 4
    fields = lines[1].split(",")
    assert int(fields[0]) == rs[0].replica_id
    assert int(fields[1]) == rs[0].seed
    assert float(fields[5]) == rs[0].Z  # repr round-trips exactly
    assert float(fields[9]) == rs[0].remainder


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
