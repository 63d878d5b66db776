import json
import math
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from polymer_lab import cli, fluctuation, harness, moments, walk


README = Path(__file__).resolve().parent.parent / "README.md"


def run_cli(argv, capsys):
    code = cli.parse_and_dispatch(argv)
    out, err = capsys.readouterr()
    return code, out, err


def no_sampling(*args):
    raise AssertionError("a replica ran before the run was refused")


def test_oracle_frozen_value(capsys):
    code, out, _ = run_cli(["oracle", "--dim", "1", "--N", "2", "--c", "0.1"], capsys)
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["ez2"] == pytest.approx(1.008775, abs=1e-12)
    assert row["per_order_terms"][1] == pytest.approx(0.00875, abs=1e-15)
    assert row["per_order_terms"][2] == pytest.approx(2.5e-05, abs=1e-18)
    assert row["var_Z"] == pytest.approx(0.008775, abs=1e-12)
    assert payload["config"]["command"] == "oracle"


def test_oracle_requires_c_or_eps(capsys):
    code, _, err = run_cli(["oracle", "--dim", "1", "--N", "4"], capsys)
    assert code == 2
    assert "eps" in err


def test_oracle_keys(capsys):
    code, out, err = run_cli(
        ["oracle", "--dim", "2", "--N", "1", "--N", "16", "--c", "0.3"], capsys
    )
    assert code == 0, err
    rows = json.loads(out)["rows"]
    assert [r["N"] for r in rows] == [1, 16]
    for row in rows:
        assert set(row) == {
            "d", "N", "c", "ez2", "ek2", "var_Z", "var_K", "per_order_terms",
            "k2_order_terms", "s", "calibrated_A", "a_order_z2", "a_total_k2", "a_order_k2",
        }


def test_clt_keys(capsys):
    code, out, _ = run_cli(["clt", "--dim", "2", "--N", "16", "--N", "64", "--eps", "0.25"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [r["N"] for r in rows] == [16, 64]
    for row in rows:
        assert set(row) == {
            "d", "N", "eps", "c", "a", "sigma2", "sigma2_target",
            "remainder_var", "remainder_var_scaled",
        }
        assert row["sigma2_target"] == pytest.approx(0.3183098861837907, rel=1e-12)


def test_simulate_writes_files_and_is_thread_invariant(tmp_path, capsys):
    argv = [
        "simulate", "--dim", "1", "--N", "8", "--N", "16", "--eps", "0.25",
        "--replicas", "6", "--seed", "11",
    ]
    code, _, _ = run_cli(argv + ["--threads", "1", "--out", str(tmp_path / "a")], capsys)
    assert code == 0
    code, _, _ = run_cli(argv + ["--threads", "2", "--out", str(tmp_path / "b")], capsys)
    assert code == 0
    csv_a = (tmp_path / "a" / "replicas.csv").read_bytes()
    csv_b = (tmp_path / "b" / "replicas.csv").read_bytes()
    assert csv_a == csv_b
    sum_a = (tmp_path / "a" / "summary.json").read_bytes()
    sum_b = (tmp_path / "b" / "summary.json").read_bytes()
    assert sum_a == sum_b
    payload = json.loads(sum_a)
    # scheduling/destination knobs are not part of the experiment config
    assert "threads" not in payload["config"]
    assert "out" not in payload["config"]
    assert payload["config"]["seed"] == 11
    header = csv_a.decode().split("\n", 1)[0]
    assert header == "replica_id,seed,d,N,c,Z,K,msd,linear,remainder"


def test_simulate_bytes_do_not_depend_on_blas_threads(tmp_path, polymer_lab_cli):
    # From n = 100 on a d = 2 slice holds more than 10^4 sites, where an
    # OpenBLAS dot splits its sum across threads and so changes its order.
    argv = [
        "simulate", "--dim", "2", "--N", "130", "--eps", "0.25",
        "--replicas", "3", "--seed", "1",
    ]
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"blas{threads}"
        proc = polymer_lab_cli(
            *argv, "--out", str(out),
            extra_env={"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads},
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append([(out / name).read_bytes() for name in ("replicas.csv", "summary.json")])
    assert outputs[0] == outputs[1]


def _refuse_constant(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.parametrize("command", ["simulate", "concentration"])
def test_single_replica_output_is_json(command, tmp_path, capsys):
    # One replica has no sample variance: it is written as null, never NaN.
    argv = [command, "--dim", "1", "--N", "4", "--eps", "0.25", "--replicas", "1"]
    code, _, err = run_cli([*argv, "--out", str(tmp_path / "run")], capsys)
    assert code == 0, err
    name = "summary.json" if command == "simulate" else "concentration.json"
    payload = json.loads((tmp_path / "run" / name).read_text(), parse_constant=_refuse_constant)
    if command == "simulate":
        for metrics in payload["normality"][0]["metrics"].values():
            assert metrics["variance"] is None


def test_simulate_refuses_a_file_name_for_out(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "simulate_replica", no_sampling)
    target = tmp_path / "x.json"
    code, stdout, err = run_cli(
        ["simulate", "--dim", "1", "--N", "4", "--eps", "0.25", "--replicas", "2",
         "--out", str(target)],
        capsys,
    )
    assert code == 2
    assert stdout == ""
    assert "replicas.csv and summary.json into the directory --out" in err and "x.json" in err
    assert not target.exists()


def test_simulate_stdout_without_out(capsys):
    code, out, _ = run_cli(
        ["simulate", "--dim", "1", "--N", "4", "--eps", "0.25", "--replicas", "2", "--seed", "1"],
        capsys,
    )
    assert code == 0
    csv_part, json_part = out.split("{", 1)
    assert csv_part.startswith("replica_id,")
    assert len(csv_part.strip().split("\n")) == 3
    payload = json.loads("{" + json_part)
    assert payload["concentration"][0]["count"] == 2


def test_concentration_subcommand(capsys):
    code, out, _ = run_cli(
        ["concentration", "--dim", "1", "--N", "8", "--eps", "0.25",
         "--replicas", "4", "--seed", "3", "--eps-prob", "0.2"],
        capsys,
    )
    assert code == 0
    payload = json.loads(out)
    row = payload["rows"][0]
    assert row["eps_prob"] == 0.2
    assert 0.0 <= row["exceedance"] <= 1.0
    assert row["chebyshev_bound"] <= 1.0


@pytest.mark.parametrize("dim,n,cap", [("1", "5000", 4096), ("2", "5000", 4096)])
def test_simulate_refuses_n_above_moment_cap(dim, n, cap, capsys, monkeypatch):
    monkeypatch.setattr(harness, "simulate_replica", no_sampling)
    code, out, err = run_cli(
        ["simulate", "--dim", dim, "--N", "64", "--N", n, "--eps", "0.25", "--replicas", "2"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert f"sampler's cap N <= {cap}" in err and "--N" in err


@pytest.mark.parametrize("dim", ["1", "2"])
def test_oracle_refuses_n_above_moment_cap(dim, capsys, monkeypatch):
    def no_expansion(*args):
        raise AssertionError("an oracle row ran before the N cap was checked")

    monkeypatch.setattr(moments, "calibrate", no_expansion)
    cap = moments.EXPANSION_MAX_N[int(dim)]
    code, out, err = run_cli(
        ["oracle", "--dim", dim, "--N", "64", "--N", str(cap + 1), "--eps", "0.05"], capsys
    )
    assert code == 2
    assert out == ""
    assert f"N <= {cap}" in err and "--N" in err


@pytest.mark.parametrize("command", ["simulate", "concentration"])
@pytest.mark.parametrize(
    "argv,needle",
    [
        (["--dim", "1", "--N", "4096", "--c", "0.95", "--replicas", "2", "--eps", "0.25"],
         "float64"),
        (["--dim", "2", "--N", "1", "--N", "128", "--c", "0.3", "--replicas", "20"], "--N >= 2"),
        (["--dim", "1", "--N", "0", "--eps", "0.25"], "--N must be >= 1, got 0"),
        (["--dim", "1", "--N", "8", "--N", "8", "--eps", "0.25"], "--N 8 is given twice"),
    ],
)
def test_refusals_come_before_sampling(command, argv, needle, capsys, monkeypatch):
    monkeypatch.setattr(harness, "simulate_replica", no_sampling)
    code, out, err = run_cli([command, *argv], capsys)
    assert code == 2
    assert out == ""
    assert needle in err and "--N" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--dim", "1", "--N", "4", "--c", "1e-200", "--replicas", "1", "--eps", "0.25"],
        ["clt", "--dim", "1", "--N", "4", "--c", "1e-200", "--eps", "0.25"],
    ],
)
def test_underflowing_c_is_refused(argv, capsys, monkeypatch):
    # c^2 underflows to 0, so the normalizer a_N = (c^2 sqrt(N))^(-1/2) has
    # no float64 value.
    monkeypatch.setattr(harness, "simulate_replica", no_sampling)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert "--c" in err and "underflows" in err


@pytest.mark.parametrize("dim,n,c", [("2", "4096", "1e-160"), ("1", "16", "1e-300")])
@pytest.mark.parametrize("command", ["oracle", "clt", "simulate", "concentration"])
def test_underflowing_collision_scale_is_refused_before_any_row(
    command, dim, n, c, capsys, monkeypatch
):
    # c > 0 but c^2 times the collision scale underflows float64: a_N has no
    # value, and oracle's domination constants would read s as 0.
    _no_exact_moments(monkeypatch)
    sampling = ["--replicas", "1"] if command in ("simulate", "concentration") else []
    argv = [command, "--dim", dim, "--N", n, "--c", c, "--eps", "0.25", *sampling]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert (
        f"c = {float(c)!r} is too small: c^2 times the collision scale at N = {n} "
        "underflows float64; choose a larger --c"
    ) in err


@pytest.mark.parametrize(
    "argv", [["--dim", "2", "--N", "1", "--c", "0.5"], ["--dim", "1", "--N", "4", "--c", "0"]]
)
def test_oracle_prints_zero_scale_rows(argv, capsys):
    # s = 0 at d = 2, N = 1 (log 1) and at c = 0: nothing to dominate.
    code, out, err = run_cli(["oracle", *argv], capsys)
    assert code == 0, err
    (row,) = json.loads(out)["rows"]
    assert row["s"] == 0.0
    assert [row[k] for k in ("calibrated_A", "a_order_z2", "a_total_k2", "a_order_k2")] == [0.0] * 4


def test_zero_disorder_runs_at_n1_in_d2(capsys):
    code, out, err = run_cli(
        ["simulate", "--dim", "2", "--N", "1", "--N", "4", "--c", "0", "--replicas", "2"], capsys
    )
    assert code == 0, err
    assert json.loads("{" + out.split("{", 1)[1])["normality"][0]["degenerate"]


_SAMPLING_ARGS = ["--replicas", "3", "--seed", "2"]


@pytest.mark.parametrize(
    "command,expected",
    [
        ("simulate", [("_renewal", 16), ("_renewal", 64), ("replica", 16), ("replica", 64)]),
        ("concentration", [("_renewal", 16), ("_renewal", 64), ("replica", 16), ("replica", 64)]),
        ("clt", [("_renewal", 16), ("_renewal", 64)]),
        ("oracle", [("collision_expansions", 16), ("_renewal", 16),
                    ("collision_expansions", 64), ("_renewal", 64)]),
    ],
    ids=["simulate", "concentration", "clt", "oracle"],
)
def test_one_exact_moment_pass_per_grid_point(command, expected, capsys, monkeypatch):
    # Each grid point's exact moments come from one collision-time renewal,
    # before any replica.  Only oracle runs the per-order expansion, once
    # per grid point, for its per-order columns.
    calls = []
    for name in ("_renewal", "collision_expansions"):
        real = getattr(moments, name)

        def counted(N, c, d, _real=real, _name=name):
            calls.append((_name, N))
            return _real(N, c, d)

        monkeypatch.setattr(moments, name, counted)
    sample = harness.simulate_replica

    def recorded(d, N, c, seeds):
        calls.append(("replica", N))
        return sample(d, N, c, seeds)

    monkeypatch.setattr(harness, "simulate_replica", recorded)
    sampling = _SAMPLING_ARGS if command in ("simulate", "concentration") else []
    code, _, err = run_cli(
        [command, "--dim", "1", "--N", "16", "--N", "64", "--eps", "0.25", *sampling], capsys
    )
    assert code == 0, err
    assert calls == expected


@pytest.mark.parametrize("command", ["simulate", "concentration"])
def test_sampling_runs_without_the_collision_expansion(command, capsys, monkeypatch):
    def no_expansion(*args):
        raise AssertionError("the per-order collision expansion ran on the sampling path")

    monkeypatch.setattr(moments, "collision_expansions", no_expansion)
    for argv in (["--dim", "1", "--N", "16", "--N", "64"], ["--dim", "2", "--N", "8", "--N", "16"]):
        code, _, err = run_cli(
            [command, *argv, "--eps", "0.25", "--replicas", "3", "--seed", "2"], capsys
        )
        assert code == 0, err


def test_cli_paths_do_not_need_the_pairwalk_dp(capsys, monkeypatch):
    # The pair DPs are cross-checks only: every CLI path and report reads
    # E Z^2 and E K^2 from the renewal's exact-moment record.
    def no_pairwalk(*args):
        raise AssertionError("a pair-walk DP called outside the cross-checks")

    monkeypatch.setattr(moments, "ez2_pairwalk", no_pairwalk)
    monkeypatch.setattr(moments, "ek2_pairwalk", no_pairwalk)
    moments.centered_moments(64, 0.3, 2)
    moments.centered_moments(16, 0.3, 1)
    fluctuation.remainder_variance_exact(64, 0.3, 2)
    config = harness.ExperimentConfig(
        rule=fluctuation.ScalingRule(2, 0.25), n_grid=(8, 16), replicas=3, master_seed=1
    )
    rows = harness.normality_report(harness.run_replicas(config))
    assert all(r.var_Z_exact > 0.0 for r in rows)
    code, _, err = run_cli(["oracle", "--dim", "2", "--N", "64", "--N", "256", "--eps", "0.25"], capsys)
    assert code == 0, err
    code, out, err = run_cli(["clt", "--dim", "2", "--N", "64", "--N", "4096", "--eps", "0.25"], capsys)
    assert code == 0, err
    assert [r["N"] for r in json.loads(out)["rows"]] == [64, 4096]
    for argv in (["--dim", "1", "--N", "32", "--N", "64"], ["--dim", "2", "--N", "16"]):
        code, _, err = run_cli(
            ["simulate", *argv, "--eps", "0.25", "--replicas", "4", "--seed", "3"], capsys
        )
        assert code == 0, err


def test_oracle_makes_one_collision_pass_per_row(capsys, monkeypatch):
    calls = []
    real = walk.collision_layer_moments

    def counted(d, N):
        calls.append((d, N))
        return real(d, N)

    monkeypatch.setattr(walk, "collision_layer_moments", counted)
    code, _, err = run_cli(
        ["oracle", "--dim", "1", "--N", "16", "--N", "64", "--N", "256", "--eps", "0.05"], capsys
    )
    assert code == 0, err
    # Two O(N) closed-form calls per row, no rolling pass: one for the
    # renewal's record, one for the expansion's per-order columns.
    assert calls == [(1, 16), (1, 16), (1, 64), (1, 64), (1, 256), (1, 256)]


def test_oracle_refuses_moments_beyond_float64(capsys):
    code, out, err = run_cli(["oracle", "--dim", "1", "--N", "2800", "--c", "0.95"], capsys)
    assert code == 2
    assert out == ""
    assert "N = 2800" in err and "float64" in err
    assert "--c" in err and "--eps" in err and "--N" in err


def test_clt_refuses_moments_beyond_float64(capsys):
    # E Z^2 still fits float64 here, E K^2 does not; clt reads var K's record too.
    code, out, err = run_cli(
        ["clt", "--dim", "1", "--N", "2800", "--c", "0.94", "--eps", "0.1"], capsys
    )
    assert code == 2
    assert out == ""
    assert "N = 2800" in err and "float64" in err
    assert "--c" in err and "--eps" in err and "--N" in err


def test_oracle_var_k_is_summed_not_subtracted(capsys):
    # Formed as E K^2 - N^2, var K would lose about 1.3e-12 relative here.
    code, out, err = run_cli(["oracle", "--dim", "1", "--N", "1024", "--c", "0.001"], capsys)
    assert code == 0, err
    row = json.loads(out)["rows"][0]
    want = math.fsum(row["k2_order_terms"][1:])
    assert abs(row["var_K"] - want) <= 1e-15 * want


def test_oracle_and_simulate_print_the_same_var_z(capsys):
    code, out, err = run_cli(["oracle", "--dim", "1", "--N", "256", "--eps", "0.05"], capsys)
    assert code == 0, err
    oracle_var_z = json.loads(out)["rows"][0]["var_Z"]
    code, out, err = run_cli(
        ["simulate", "--dim", "1", "--N", "256", "--eps", "0.05", *_SAMPLING_ARGS], capsys
    )
    assert code == 0, err
    assert json.loads("{" + out.split("{", 1)[1])["normality"][0]["var_Z_exact"] == oracle_var_z


@pytest.mark.parametrize("n", ["0", "-3"])
@pytest.mark.parametrize(
    "disorder", [["--eps", "0.25"], ["--c", "0.3", "--eps", "0.25"]], ids=["eps", "c"]
)
@pytest.mark.parametrize("command", ["oracle", "clt"])
def test_exact_paths_refuse_n_below_1_naming_the_flag(command, disorder, n, capsys):
    code, out, err = run_cli([command, "--dim", "1", "--N", n, *disorder], capsys)
    assert code == 2
    assert out == ""
    assert f"--N must be >= 1, got {n}" in err


def _no_exact_moments(monkeypatch) -> None:
    """Make every exact-moment pass and every replica fail if it runs."""

    def no_moments(*args):
        raise AssertionError("an exact-moment pass ran before the grid was refused")

    monkeypatch.setattr(moments, "_renewal", no_moments)
    monkeypatch.setattr(moments, "collision_expansions", no_moments)
    monkeypatch.setattr(harness, "simulate_replica", no_sampling)


@pytest.mark.parametrize(
    "argv,needle",
    [
        (["clt", "--dim", "1", "--N", "20000", "--N", "0", "--eps", "0.05"],
         "--N must be >= 1, got 0"),
        (["oracle", "--dim", "1", "--N", "4096", "--N", "0", "--eps", "0.05"],
         "--N must be >= 1, got 0"),
        (["oracle", "--dim", "1", "--N", "64", "--N", "64", "--eps", "0.1"], "--N 64 is given twice"),
        (["clt", "--dim", "2", "--N", "64", "--N", "8", "--N", "64", "--eps", "0.1"],
         "--N 64 is given twice"),
        (["clt", "--dim", "1", "--N", "10000000000", "--eps", "0.05"],
         f"exact-moment cap N <= {1 << 20} for d = 1; choose --N <= {1 << 20}"),
        (["clt", "--dim", "2", "--N", "64", "--N", str((1 << 20) + 1), "--eps", "0.25"],
         f"exact-moment cap N <= {1 << 20} for d = 2; choose --N <= {1 << 20}"),
    ],
)
def test_exact_paths_refuse_a_bad_grid_before_any_row(argv, needle, capsys, monkeypatch):
    _no_exact_moments(monkeypatch)
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert needle in err


@pytest.mark.parametrize("dim,n,smallest", [("1", "1", 2), ("2", "1", 3), ("2", "2", 3)])
@pytest.mark.parametrize("command", ["oracle", "clt", "simulate", "concentration"])
def test_c_n_of_one_or_more_is_refused_naming_the_smallest_n(
    command, dim, n, smallest, capsys, monkeypatch
):
    # Under --eps, c_N >= 1 below N = 2 in d = 1 and below N = 3 in d = 2.
    _no_exact_moments(monkeypatch)
    eps = "0.05" if dim == "1" else "0.25"
    code, out, err = run_cli([command, "--dim", dim, "--N", n, "--N", "64", "--eps", eps], capsys)
    assert code == 2
    assert out == ""
    assert f"c_N >= 1 at --N {n}" in err and f"choose --N >= {smallest}" in err


def test_module_entry_runs_the_cli(package_env):
    proc = subprocess.run(
        [sys.executable, "-m", "polymer_lab.cli", "oracle", "--dim", "1", "--N", "2", "--c", "0.1"],
        capture_output=True, text=True, env=package_env,
    )
    assert proc.returncode == 0, proc.stderr
    assert [row["N"] for row in json.loads(proc.stdout)["rows"]] == [2]


def test_clt_refuses_zero_c_naming_the_flag(capsys):
    code, out, err = run_cli(["clt", "--dim", "1", "--N", "8", "--c", "0", "--eps", "0.2"], capsys)
    assert code == 2
    assert out == ""
    assert "c = 0" in err and "--c" in err


def test_config_file_defaults_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("dim = 1\neps = 0.25\nN = 8, 16\nreplicas = 3\nseed = 5\n# comment\n")
    code, out, _ = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 0
    payload = json.loads("{" + out.split("{", 1)[1])
    assert payload["config"]["N"] == [8, 16]
    assert payload["config"]["replicas"] == 3
    # explicit flag wins over the config file
    code, out, _ = run_cli(["simulate", "--config", str(cfg), "--replicas", "2"], capsys)
    payload = json.loads("{" + out.split("{", 1)[1])
    assert payload["config"]["replicas"] == 2


def test_config_file_validation(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("this is not key value\n")
    code, _, err = run_cli(["oracle", "--config", str(cfg), "--dim", "1", "--N", "2", "--c", "0.1"], capsys)
    assert code == 2
    assert "key = value" in err


def test_config_file_unknown_keys_refused(tmp_path, capsys, monkeypatch):
    # Misspelt keys must not fall back to their defaults (100 replicas at
    # seed 0) unnoticed, nor a key that no subcommand takes.
    monkeypatch.setattr(harness, "simulate_replica", no_sampling)
    cfg = tmp_path / "typo.cfg"
    for lines, keys in (("replica = 3\nsed = 9\n", "replica, sed"), ("nmax = 5\n", "nmax")):
        cfg.write_text("dim = 1\neps = 0.25\nN = 8\n" + lines)
        code, out, err = run_cli(["concentration", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert str(cfg) in err and f"unknown keys: {keys}\n" in err


def test_config_file_serves_several_subcommands(tmp_path, capsys):
    # Keys another subcommand takes are accepted: oracle ignores the
    # sampling options, simulate uses them.
    cfg = tmp_path / "shared.cfg"
    cfg.write_text("dim = 1\neps-prob = 0.2\nN = 8\nreplicas = 2\nseed = 4\nc = 0.1\n")
    code, out, err = run_cli(["oracle", "--config", str(cfg)], capsys)
    assert code == 0, err
    assert json.loads(out)["config"]["N"] == [8]
    code, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 0, err
    payload = json.loads("{" + out.split("{", 1)[1])
    assert (payload["config"]["replicas"], payload["config"]["eps_prob"]) == (2, 0.2)


@pytest.mark.parametrize(
    "argv,lines",
    [
        (["oracle", "--dim", "2", "--N", "16", "--N", "64", "--c", "0.3"],
         "dim = 2\nN = 16, 64\nc = 0.3\n"),
        (["clt", "--dim", "1", "--N", "64", "--eps", "0.05"], "dim = 1\nN = 64\neps = 0.05\n"),
        (["simulate", "--dim", "1", "--N", "8", "--N", "16", "--eps", "0.25", "--replicas", "3",
          "--seed", "5", "--eps-prob", "0.2", "--check"],
         "dim = 1\nN = 8\nN = 16\neps = 0.25\nreplicas = 3\nseed = 5\neps-prob = 0.2\n"
         "check = yes\n"),
        (["concentration", "--dim", "2", "--N", "8", "--c", "0.2", "--replicas", "4", "--seed", "1"],
         "dim = 2\nN = 8\nc = 0.2\nreplicas = 4\nseed = 1\n"),
    ],
)
def test_config_file_gives_the_flags_bytes(argv, lines, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(lines)
    code, flags_out, err = run_cli(argv, capsys)
    assert code == 0, err
    code, cfg_out, err = run_cli([argv[0], "--config", str(cfg)], capsys)
    assert code == 0, err
    assert cfg_out == flags_out


@pytest.mark.parametrize(
    "line", ["replicas = three", "eps = x", "check = ture", "N = 8, x", "N =", "threads = 1.5"]
)
def test_config_values_that_do_not_parse_are_refused(line, tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "simulate_replica", no_sampling)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"dim = 1\nN = 8\nc = 0.1\n{line}\n")
    code, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert code == 2
    assert out == ""
    key = line.split(" =", 1)[0]
    assert str(cfg) in err and f"{key} = " in err and f"--{key}" in err


@pytest.mark.parametrize("word,code", [("off", 0), ("No", 0), ("on", 3), ("TRUE", 3)])
def test_config_check_takes_a_boolean_word(word, code, tmp_path, capsys):
    # The argv of test_check_failure_exits_3, with the check read from the file.
    cfg = tmp_path / "check.cfg"
    cfg.write_text(
        f"dim = 1\nN = 8, 32, 128\nc = 0.45\neps = 0.25\nreplicas = 24\nseed = 2\ncheck = {word}\n"
    )
    got, out, err = run_cli(["simulate", "--config", str(cfg)], capsys)
    assert got == code, err
    assert json.loads("{" + out.split("{", 1)[1])["config"]["check"] is (code == 3)


def test_threads_env_fallback(monkeypatch):
    monkeypatch.setenv("POLYMER_LAB_THREADS", "6")
    ns = cli._parser().parse_args(["simulate", "--dim", "1", "--N", "4", "--eps", "0.25"])
    resolved = cli._resolve(ns)
    assert resolved["threads"] == 6
    monkeypatch.delenv("POLYMER_LAB_THREADS")
    resolved = cli._resolve(ns)
    assert resolved["threads"] == 1


@pytest.mark.parametrize("flag", ["--replicas", "--threads", "--eps-prob"])
def test_explicit_zero_is_refused_not_defaulted(flag, capsys, monkeypatch):
    monkeypatch.setattr(harness, "simulate_replica", no_sampling)
    argv = ["simulate", "--dim", "1", "--N", "4", "--eps", "0.25", flag, "0"]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert flag in err and "got 0" in err


def test_threads_env_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv("POLYMER_LAB_THREADS", "two")
    code, out, err = run_cli(["simulate", "--dim", "1", "--N", "4", "--eps", "0.25"], capsys)
    assert code == 2
    assert out == ""
    assert "POLYMER_LAB_THREADS" in err and "'two'" in err
    monkeypatch.setenv("POLYMER_LAB_THREADS", "0")
    code, _, err = run_cli(["simulate", "--dim", "1", "--N", "4", "--eps", "0.25"], capsys)
    assert code == 2
    assert "--threads" in err


@pytest.mark.parametrize("command", ["oracle", "clt"])
def test_threads_env_is_ignored_where_there_is_no_threads_option(command, capsys, monkeypatch):
    argv = [command, "--dim", "1", "--N", "4", "--eps", "0.1"]
    monkeypatch.delenv("POLYMER_LAB_THREADS", raising=False)
    code, want, _ = run_cli(argv, capsys)
    assert code == 0
    monkeypatch.setenv("POLYMER_LAB_THREADS", "two")
    code, out, err = run_cli(argv, capsys)
    assert (code, err) == (0, "")
    assert out == want


def test_missing_required_option(capsys):
    code, _, err = run_cli(["oracle", "--N", "8", "--eps", "0.25"], capsys)
    assert code == 2
    assert "--dim" in err


@pytest.mark.parametrize("dim", ["0", "3"])
@pytest.mark.parametrize("command", sorted(cli._COMMANDS))
def test_invalid_dimension(command, dim, capsys, monkeypatch):
    monkeypatch.setattr(harness, "simulate_replica", no_sampling)
    code, out, err = run_cli([command, "--dim", dim, "--N", "8", "--eps", "0.25"], capsys)
    assert code == 2
    assert out == ""
    assert "dimension must be 1 or 2" in err


@pytest.mark.parametrize("command", ["oracle", "clt", "simulate", "concentration"])
@pytest.mark.parametrize(
    "argv,needle",
    [
        (["--eps", "-1", "--c", "0.3"], "eps must be > 0 (--eps), got -1.0"),
        (["--eps", "0.25", "--c", "1.0"], "c must satisfy 0 <= c < 1 (--c), got 1.0"),
    ],
)
def test_disorder_refusals_are_shared(command, argv, needle, capsys, monkeypatch):
    # fluctuation.ScalingRule owns these refusals for every subcommand.
    monkeypatch.setattr(harness, "simulate_replica", no_sampling)
    code, out, err = run_cli([command, "--dim", "1", "--N", "8", *argv], capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {needle}\n"


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.parse_and_dispatch(["oracle", "--bogus", "1"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    for command in ("frobnicate", "kernel-check", "moments"):
        with pytest.raises(SystemExit) as exc:
            cli.parse_and_dispatch([command, "--dim", "1"])
        assert exc.value.code == 2


def test_check_failure_exits_3(capsys):
    # Fixed c with growing N makes msd/N fluctuations grow, so the exceedance
    # trend rises; this specific seed produces two upticks deterministically.
    code, _, err = run_cli(
        ["simulate", "--dim", "1", "--N", "8", "--N", "32", "--N", "128",
         "--c", "0.45", "--eps", "0.25", "--replicas", "24", "--seed", "2", "--check"],
        capsys,
    )
    assert code == 3
    assert "trend" in err


def test_check_pass_exits_0(capsys):
    code, _, _ = run_cli(
        ["simulate", "--dim", "1", "--N", "8", "--eps", "0.25",
         "--replicas", "8", "--seed", "4", "--check"],
        capsys,
    )
    assert code == 0


def test_installed_entry_point_help(polymer_lab_cli):
    proc = polymer_lab_cli("--help")
    assert proc.returncode == 0, proc.stderr
    choices = proc.stdout.split("{", 1)[1].split("}", 1)[0]
    assert choices.split(",") == ["oracle", "simulate", "clt", "concentration"]


def _readme_cli_examples() -> list[list[str]]:
    """argv of every `polymer-lab ...` example in README's CLI section, with
    backslash continuations joined."""
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    examples = []
    lines = iter(section.splitlines())
    for line in lines:
        cmd = line.strip()
        if not cmd.startswith("polymer-lab "):
            continue
        while cmd.endswith("\\"):
            cmd = cmd[:-1] + " " + next(lines).strip()
        examples.append(shlex.split(cmd)[1:])
    return examples


def test_readme_config_example_loads(tmp_path):
    # The indented block after "config file can hold any flag" in README's CLI section.
    section = README.read_text().split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("can hold any flag", 1)[1].split("\n\n")[1]
    cfg = tmp_path / "run.cfg"
    cfg.write_text("\n".join(line.strip() for line in block.splitlines()) + "\n")
    assert cli.load_config(str(cfg)) == {
        "dim": 1, "eps": 0.05, "N": [256, 1024], "replicas": 400, "seed": 7
    }


def test_readme_cli_examples_parse():
    # Parse only: a documented flag or subcommand the parser lacks fails here.
    examples = _readme_cli_examples()
    assert {argv[0] for argv in examples} == set(cli._COMMANDS)
    parser = cli._parser()
    for argv in examples:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"README example does not parse: polymer-lab {shlex.join(argv)}")
