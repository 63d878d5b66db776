import json

import pytest

from polymer_lab import cli, fluctuation, harness, moments


def run_cli(argv, capsys):
    code = cli.parse_and_dispatch(argv)
    out, err = capsys.readouterr()
    return code, out, err


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


def test_kernel_check_passes(capsys):
    code, out, _ = run_cli(["kernel-check", "--dim", "2", "--nmax", "12"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["normalization_max_dev"] < 1e-12
    assert payload["collision_identity_max_dev"] < 1e-12


def test_moments_table(capsys):
    code, out, _ = run_cli(["moments", "--dim", "1", "--nmax", "6"], capsys)
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 6
    for row in rows:
        assert row["second"] == pytest.approx(row["second_closed_form"], rel=1e-12)
        assert row["fourth"] == pytest.approx(row["fourth_closed_form"], rel=1e-12)


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
    def no_sampling(*args):
        raise AssertionError("a replica ran before the N cap was checked")

    monkeypatch.setattr(harness, "simulate_replica", no_sampling)
    code, out, err = run_cli(
        ["simulate", "--dim", dim, "--N", "64", "--N", n, "--eps", "0.25", "--replicas", "2"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert f"N <= {cap}" in err and "--N" in err


@pytest.mark.parametrize("dim", ["1", "2"])
def test_oracle_refuses_n_above_moment_cap(dim, capsys, monkeypatch):
    def no_expansion(*args):
        raise AssertionError("an oracle row ran before the N cap was checked")

    monkeypatch.setattr(moments, "ez2_expansion", no_expansion)
    cap = moments.EXPANSION_MAX_N[int(dim)]
    code, out, err = run_cli(
        ["oracle", "--dim", dim, "--N", "64", "--N", str(cap + 1), "--eps", "0.05"], capsys
    )
    assert code == 2
    assert out == ""
    assert f"N <= {cap}" in err and "--N" in err


def test_cli_paths_do_not_need_the_pairwalk_dp(capsys, monkeypatch):
    # The difference-walk DP is a cross-check only: every CLI path and report
    # gets E Z^2 from the renewal.
    def no_pairwalk(*args):
        raise AssertionError("moments.ez2_pairwalk called outside the cross-checks")

    monkeypatch.setattr(moments, "ez2_pairwalk", no_pairwalk)
    moments.centered_moments(64, 0.3, 2)
    fluctuation.remainder_variance_exact(64, 0.3, 2)
    config = harness.ExperimentConfig(d=2, eps=0.25, n_grid=(8, 16), replicas=3, master_seed=1)
    rows = harness.normality_report(harness.run_replicas(config), config.rule())
    assert all(r.var_Z_exact > 0.0 for r in rows)
    code, _, err = run_cli(["oracle", "--dim", "2", "--N", "64", "--N", "256", "--eps", "0.25"], capsys)
    assert code == 0, err
    code, out, err = run_cli(["clt", "--dim", "2", "--N", "64", "--N", "4096", "--eps", "0.25"], capsys)
    assert code == 0, err
    assert [r["N"] for r in json.loads(out)["rows"]] == [64, 4096]


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


def test_threads_env_fallback(monkeypatch):
    monkeypatch.setenv("POLYMER_LAB_THREADS", "6")
    ns = cli._parser().parse_args(["simulate", "--dim", "1", "--N", "4", "--eps", "0.25"])
    resolved = cli._resolve(ns)
    assert resolved["threads"] == 6
    monkeypatch.delenv("POLYMER_LAB_THREADS")
    resolved = cli._resolve(ns)
    assert resolved["threads"] == 1


def test_missing_required_option(capsys):
    code, _, err = run_cli(["kernel-check"], capsys)
    assert code == 2
    assert "--dim" in err


def test_invalid_dimension(capsys):
    code, _, err = run_cli(["kernel-check", "--dim", "3"], capsys)
    assert code == 2
    assert "error" in err


def test_unknown_flag_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.parse_and_dispatch(["oracle", "--bogus", "1"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.parse_and_dispatch(["frobnicate"])
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
    for sub in ("kernel-check", "moments", "oracle", "simulate", "clt", "concentration"):
        assert sub in proc.stdout
