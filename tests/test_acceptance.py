"""Acceptance gate: ten checks, one printed PASS/FAIL line each.

Each test prints its verdict with the measured numbers before asserting, so
a red line still documents what the implementation actually produced.  The
heavy Monte Carlo fixtures are module scoped and deterministic (frozen
master seeds), so the whole file is reproducible bit for bit.  They run on
up to four worker processes; their bytes do not depend on the worker count
(check 10).
"""

import json
import math
import os

import numpy as np
import pytest
import scipy.stats

from polymer_lab import (
    engine,
    environment,
    fluctuation,
    harness,
    moments,
    stats,
    walk,
)


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


# --- shared Monte Carlo fixtures (deterministic) ---

WORKERS = min(4, len(os.sched_getaffinity(0)))


@pytest.fixture(scope="module")
def conc_d1():
    config = harness.ExperimentConfig(
        d=1, eps=0.05, n_grid=(256, 1024, 4096), replicas=400, master_seed=20260814,
        workers=WORKERS,
    )
    return harness.concentration_report(
        harness.run_replicas(config), harness.exact_moments(config), 0.1
    )


@pytest.fixture(scope="module")
def conc_d2():
    config = harness.ExperimentConfig(
        d=2, eps=0.25, n_grid=(64, 128, 256), replicas=400, master_seed=20260814,
        workers=WORKERS,
    )
    return harness.concentration_report(
        harness.run_replicas(config), harness.exact_moments(config), 0.1
    )


@pytest.fixture(scope="module")
def norm_d2():
    config = harness.ExperimentConfig(
        d=2, eps=0.25, n_grid=(64, 128, 256), replicas=2000, master_seed=97, workers=WORKERS
    )
    results = harness.run_replicas(config)
    return harness.normality_report(results, harness.exact_moments(config), config.rule())


# --- 1: kernel identities ---


def test_criterion_1_kernel_identities():
    worst_norm = worst_coll = worst_mom = 0.0
    for d in (1, 2):
        kernel = walk.build_kernel(d, 100)
        for n in range(1, 51):
            worst_norm = max(worst_norm, abs(float(kernel.layer(n).sum()) - 1.0))
            worst_coll = max(
                worst_coll,
                abs(walk.collision_mass(kernel, n) - kernel.probability(2 * n, (0,) * d)),
            )
            for kind in walk.MOMENT_KINDS[d]:
                ref = walk.closed_form_moment(d, kind, n)
                got = walk.moment(kernel, kind, n)
                worst_mom = max(worst_mom, abs(got - ref) / max(abs(ref), 1.0))
    ok = worst_norm < 1e-12 and worst_coll < 1e-12 and worst_mom < 1e-9
    assert _report(
        "1 kernel-identities",
        ok,
        f"norm dev {worst_norm:.2e}, collision dev {worst_coll:.2e}, "
        f"moment rel err {worst_mom:.2e} (n <= 50, both dims)",
    )


# --- 2: engine vs brute force ---


def test_criterion_2_engine_vs_brute_force():
    worst = 0.0
    for d, n_hi, reps in ((1, 10, 10), (2, 5, 20)):
        count = 0
        for n in range(1, n_hi + 1):
            for rep in range(reps):
                seed = environment.derive_replica_seed(1001, n, rep)
                env = environment.EnvironmentField(seed=seed, d=d, horizon=n)
                obs = engine.observables(engine.evolve_density(env, 0.4, n))
                ref = engine.brute_force_observables(env, 0.4, n)
                worst = max(
                    worst, abs(obs.Z - ref.Z) / ref.Z, abs(obs.K - ref.K) / max(ref.K, 1e-9)
                )
                count += 1
        assert count == 100
    ok = worst < 1e-12
    assert _report(
        "2 engine-vs-brute-force", ok, f"max rel dev {worst:.2e} over 100 envs per dim"
    )


# --- 3: oracle triple agreement ---


def test_criterion_3_oracle_triple_agreement():
    worst_pair = 0.0
    for d, n_hi in ((1, 8), (2, 5)):
        for n in range(1, n_hi + 1):
            for c in (0.1, 0.3, 0.5):
                ez_walk = moments.ez2_pairwalk(n, c, d)
                ez_exp = moments.ez2_expansion(n, c, d).total
                ez_enum, ek_enum = moments.pair_enumeration_moments(n, c, d)
                ek_walk = moments.ek2_pairwalk(n, c, d)
                ek_exp = moments.ek2_expansion(n, c, d).total
                worst_pair = max(
                    worst_pair,
                    abs(ez_exp - ez_walk) / ez_walk,
                    abs(ez_enum - ez_walk) / ez_walk,
                    abs(ek_exp - ek_walk) / ek_walk,
                    abs(ek_enum - ek_walk) / ek_walk,
                )
    worst_env = 0.0
    for n in range(1, 5):
        c = 0.3
        sums = moments.environment_average_moments(1, n, c)
        worst_env = max(
            worst_env,
            abs(sums["mean_Z2"] - moments.ez2_pairwalk(n, c, 1)) / sums["mean_Z2"],
            abs(sums["mean_K2"] - moments.ek2_pairwalk(n, c, 1)) / max(sums["mean_K2"], 1e-12),
        )
    ok = worst_pair < 1e-10 and worst_env < 1e-12
    assert _report(
        "3 oracle-triple-agreement",
        ok,
        f"pairwalk/expansion/enumeration rel dev {worst_pair:.2e}; "
        f"exhaustive environment averages rel dev {worst_env:.2e}",
    )


# --- 4: hand values ---


def test_criterion_4_hand_values():
    devs = []
    for c in (0.1, 0.3, 0.7):
        devs.append(abs(moments.ez2_pairwalk(1, c, 1) - (1 + c * c / 2)))
        devs.append(abs(moments.ez2_pairwalk(2, c, 1) - (1 + 7 * c * c / 8 + c ** 4 / 4)))
    for d in (1, 2):
        for n in (1, 4, 9):
            devs.append(abs(moments.ek2_pairwalk(n, 0.0, d) - float(n) * n) / (float(n) * n))
    devs.append(abs(moments.weighted_fourth_sum((1,), 3, 1) - 9.0))
    worst = max(devs)
    ok = worst < 1e-12
    assert _report("4 hand-values", ok, f"max abs/rel dev {worst:.2e}")


# --- 5: vanishing centered moments along the scaling grids ---


def test_criterion_5_vanishing_centered_moments():
    details = []
    ok = True
    for d, eps, grid in ((1, 0.05, (64, 256, 1024, 4096)), (2, 0.25, (64, 128, 256, 512))):
        rule = fluctuation.scaling(d, eps)
        var_z_seq, var_k_seq = [], []
        for n in grid:
            vz, vk = moments.centered_moments(n, rule.c_of(n), d)
            var_z_seq.append(vz)
            var_k_seq.append(vk / (float(n) * n))
        strict_z = all(a > b for a, b in zip(var_z_seq, var_z_seq[1:]))
        strict_k = all(a > b for a, b in zip(var_k_seq, var_k_seq[1:]))
        ok = ok and strict_z and strict_k
        details.append(
            f"d={d}: var_Z {var_z_seq[0]:.4f}->{var_z_seq[-1]:.4f} "
            f"var_K/N^2 {var_k_seq[0]:.4f}->{var_k_seq[-1]:.4f} "
            f"strict={strict_z and strict_k}"
        )
    assert _report("5 vanishing-centered-moments", ok, "; ".join(details))


# --- 6: diffusivity concentration ---


def test_criterion_6_diffusivity_concentration(conc_d1, conc_d2):
    checks = []
    for rows, top_threshold, d in ((conc_d1, 0.05, 1), (conc_d2, 0.15, 2)):
        rows = sorted(rows, key=lambda r: r.N)
        trend = [r.exceedance for r in rows]
        trend_ok = stats.nonincreasing_with_allowance(trend, 1)
        bound_ok = not any(r.beats_bound for r in rows)
        top_ok = trend[-1] <= top_threshold
        checks.append((d, trend, trend_ok, bound_ok, top_ok, top_threshold))
    ok = all(t and b and p for _, _, t, b, p, _ in checks)
    detail = "; ".join(
        f"d={d}: exceedance {['%.4f' % v for v in trend]} "
        f"trend={'ok' if t else 'BAD'} chebyshev={'ok' if b else 'BEATEN'} "
        f"top<={thr}={'ok' if p else 'FAIL(%.4f)' % trend[-1]}"
        for d, trend, t, b, p, thr in checks
    )
    assert _report("6 diffusivity-concentration", ok, detail)


# --- 7: CLT variance target ---


def test_criterion_7_clt_variance_target():
    target = fluctuation.SIGMA2_LIMIT[2]
    drift_lo = abs(fluctuation.limit_variance(2, 2 ** 6) - target)
    drift_hi = abs(fluctuation.limit_variance(2, 2 ** 12) - target)
    d2_ok = drift_hi < drift_lo
    s14 = fluctuation.limit_variance(1, 2 ** 14)
    s15 = fluctuation.limit_variance(1, 2 ** 15)
    rel = abs(s15 - s14) / s14
    d1_ok = rel < 0.02
    ok = d2_ok and d1_ok
    assert _report(
        "7 clt-variance-target",
        ok,
        f"d=2 |sigma2-1/pi|: {drift_lo:.6f} -> {drift_hi:.6f}; "
        f"d=1 sigma2(2^14)={s14:.4f} sigma2(2^15)={s15:.4f} rel change {rel:.4f} "
        f"(reported limit ~ {s15:.4f}, expected ~ 1.128)",
    )


# --- 8: remainder vanishing ---


def test_criterion_8_remainder_vanishing(norm_d2):
    rule = fluctuation.scaling(2, 0.25)
    exact = []
    for n in (64, 128, 256, 512):
        c = rule.c_of(n)
        a = rule.a_of(n, c)
        exact.append(a * a * fluctuation.remainder_variance_exact(n, c, 2))
    strictly_dec = all(x > y for x, y in zip(exact, exact[1:]))
    row = next(r for r in norm_d2 if r.N == 256)
    m = row.metrics["remainder"]
    dev = abs(m["mean_sq"] - m["sigma2_target"])
    mc_ok = dev <= 3.0 * m["mean_sq_se"]
    ok = strictly_dec and mc_ok
    assert _report(
        "8 remainder-vanishing",
        ok,
        f"exact a^2 E R^2 on {{64,128,256,512}}: {['%.4f' % x for x in exact]} "
        f"strictly decreasing={strictly_dec}; MC at N=256: mean_sq {m['mean_sq']:.5f} "
        f"vs exact {m['sigma2_target']:.5f} (|dev| {dev:.5f} <= 3SE {3 * m['mean_sq_se']:.5f}: {mc_ok})",
    )


# --- 9: gaussianity ---


def test_criterion_9_gaussianity(norm_d2):
    n = 10 ** 4
    quantiles = scipy.stats.norm.ppf((np.arange(n) + 0.5) / n)
    self_ks = stats.ks_normal_distance(quantiles, 0.0, 1.0)
    self_ok = self_ks < 0.02

    row = next(r for r in norm_d2 if r.N == 256)
    m = row.metrics["centered"]
    skew_ok = abs(m["skewness"]) < 0.3
    kurt_ok = abs(m["excess_kurtosis"]) < 0.6
    ks_ok = m["ks"] < 0.06
    ok = self_ok and skew_ok and kurt_ok and ks_ok
    assert _report(
        "9 gaussianity",
        ok,
        f"self-test KS {self_ks:.4f} (<0.02: {self_ok}); a(Z-1) at d=2 N=256 R=2000: "
        f"skew {m['skewness']:.4f} (<0.3: {skew_ok}), "
        f"excess kurtosis {m['excess_kurtosis']:.4f} (<0.6: {kurt_ok}), "
        f"KS {m['ks']:.4f} (<0.06: {ks_ok})",
    )


# --- 10: determinism across worker counts ---


def test_criterion_10_determinism(tmp_path, polymer_lab_cli):
    argv = [
        "simulate", "--dim", "1", "--N", "32", "--N", "64",
        "--eps", "0.25", "--replicas", "16", "--seed", "12345",
    ]
    for threads, sub in (("1", "w1"), ("8", "w8")):
        proc = polymer_lab_cli(*argv, "--threads", threads, "--out", str(tmp_path / sub))
        assert proc.returncode == 0, proc.stderr
    csv1 = (tmp_path / "w1" / "replicas.csv").read_bytes()
    csv8 = (tmp_path / "w8" / "replicas.csv").read_bytes()
    sum1 = (tmp_path / "w1" / "summary.json").read_bytes()
    sum8 = (tmp_path / "w8" / "summary.json").read_bytes()
    ok = csv1 == csv8 and sum1 == sum8
    payload = json.loads(sum1)
    mean_z = payload["concentration"][0]["mean_Z"]
    assert _report(
        "10 determinism",
        ok,
        f"CSV bytes equal={csv1 == csv8}, JSON bytes equal={sum1 == sum8} "
        f"(workers 1 vs 8; spot value mean_Z={mean_z!r})",
    )
