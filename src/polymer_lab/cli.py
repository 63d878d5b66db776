"""Command line entry points.

Subcommands: oracle, simulate, clt, concentration.
Every run echoes its fully resolved configuration in the JSON output header,
and identical invocations produce byte-identical output.  Exit codes:
0 success, 2 argument/validation error, 3 failed --check.

A flat key=value config file (--config) supplies defaults, each value parsed
as its flag's is; explicit flags win.  --threads falls back to the
POLYMER_LAB_THREADS environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

from . import fluctuation, harness, moments

_CHECK_EXIT = 3

# Every run option, by its config-file key, with its argparse settings.  A
# config file's value is parsed by the same type as the flag's.
_OPTIONS = {
    "dim": dict(type=int, help="lattice dimension (1 or 2)"),
    "N": dict(type=int, action="append", help="horizon; repeat for a grid"),
    "eps": dict(type=float, help="scaling exponent margin"),
    "c": dict(type=float, help="override disorder strength"),
    "replicas": dict(type=int),
    "seed": dict(type=int, help="master seed"),
    "threads": dict(type=int, help="worker process count"),
    "eps_prob": dict(type=float),
    "check": dict(action="store_true"),
    "out": dict(type=str, help="output file or directory"),
}
_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _boolean(word: str) -> bool:
    """A config-file value for a store_true flag."""
    if word.lower() not in _TRUE + _FALSE:
        raise ValueError(word)
    return word.lower() in _TRUE


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="polymer-lab")
    sub = top.add_subparsers(dest="command", required=True)
    for command, (_, names) in _COMMANDS.items():
        p = sub.add_parser(command)
        for name in (*names, "out"):
            p.add_argument("--" + name.replace("_", "-"), **_OPTIONS[name])
        p.add_argument("--config", help="flat key=value config file")
    return top


def load_config(path: str) -> dict:
    """Flat key = value lines; '#' comments; N accepts comma lists or repeats.
    Each value is parsed as its flag's is; a store_true flag takes
    1/true/yes/on or 0/false/no/off.  A key that no subcommand takes, and a
    value that does not parse, are refused naming the file and the key."""
    out: dict = {}
    unknown = []
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {raw!r} is not key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in _OPTIONS:
            unknown.append(key)
            continue
        parse = _OPTIONS[key].get("type", _boolean)
        try:
            if key == "N":  # no value at all is parsed as one empty value, and refused
                out.setdefault("N", []).extend(map(parse, val.replace(",", " ").split() or [val]))
            else:
                out[key] = parse(val)
        except ValueError:
            flag = "--" + key.replace("_", "-")
            raise ValueError(
                f"config file {path}: {key} = {val!r} is not a valid {flag} value"
            ) from None
    if unknown:
        raise ValueError(f"config file {path} has unknown keys: {', '.join(sorted(unknown))}")
    return out


def _resolve(args: argparse.Namespace) -> dict:
    """Each option of the subcommand: the flag, else the config value."""
    cfg = load_config(args.config) if args.config else {}
    resolved = {
        key: cfg.get(key, val) if val is None or val is False else val
        for key, val in vars(args).items()
        if key not in ("command", "config")
    }
    if "threads" in resolved and resolved["threads"] is None:
        env_threads = os.environ.get("POLYMER_LAB_THREADS")
        try:
            resolved["threads"] = int(env_threads) if env_threads else 1
        except ValueError:
            raise ValueError(
                f"POLYMER_LAB_THREADS must be an integer worker count, got {env_threads!r}"
            ) from None
    return resolved


def _require(resolved: dict, *keys: str) -> None:
    for key in keys:
        if resolved.get(key) is None:
            raise ValueError(f"missing required option --{key.replace('_', '-')}")


def _emit(payload: dict, out: str | None, filename: str = "summary.json") -> None:
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    sys.stdout.write(text)
    if out:
        path = Path(out)
        if path.suffix:  # treat as a file
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(text)
        else:
            path.mkdir(parents=True, exist_ok=True)
            (path / filename).write_text(text)


def _rule(resolved: dict) -> fluctuation.ScalingRule:
    return fluctuation.ScalingRule(resolved["dim"], resolved.get("eps"), resolved.get("c"))


def _cmd_oracle(resolved: dict) -> int:
    _require(resolved, "dim", "N")
    rule = _rule(resolved)
    grid = rule.grid(resolved["N"])
    d = rule.d
    moments.check_n_cap(max(resolved["N"]), d, moments.EXPANSION_MAX_N)
    rows = []
    for N, c in grid:
        cal = moments.calibrate(N, c, d)
        rows.append(
            {
                "d": d,
                "N": N,
                "c": c,
                "ez2": cal.exact.ez2,
                "ek2": float(N) * N + cal.exact.var_k,
                "var_Z": cal.exact.var_z,
                "var_K": cal.exact.var_k,
                "per_order_terms": cal.z2.orders.tolist(),
                "k2_order_terms": cal.k2.orders.tolist(),
                "s": cal.s,
                "calibrated_A": cal.a_total_z2,
                "a_order_z2": cal.a_order_z2,
                "a_total_k2": cal.a_total_k2,
                "a_order_k2": cal.a_order_k2,
            }
        )
    payload = {"config": _echo(resolved, "oracle"), "rows": rows}
    _emit(payload, resolved.get("out"))
    return 0


def _cmd_clt(resolved: dict) -> int:
    _require(resolved, "dim", "N", "eps")
    rule = _rule(resolved)
    d = rule.d
    grid = [(N, c, rule.a_of(N, c)) for N, c in rule.grid(resolved["N"])]
    moments.check_n_cap(max(resolved["N"]), d, moments.RENEWAL_MAX_N)
    rows = []
    for N, c, a in grid:
        rem = moments.centered_moments(N, c, d).rem_var
        rows.append(
            {
                "d": d,
                "N": N,
                "eps": resolved["eps"],
                "c": c,
                "a": a,
                "sigma2": fluctuation.limit_variance(d, N),
                "sigma2_target": fluctuation.SIGMA2_LIMIT[d],
                "remainder_var": rem,
                "remainder_var_scaled": a * a * rem,
            }
        )
    payload = {"config": _echo(resolved, "clt"), "rows": rows}
    _emit(payload, resolved.get("out"))
    return 0


# Option -> ExperimentConfig field (--dim, --eps and --c make its rule).  An
# option not given keeps the field's default; an explicit 0 is validated.
_CONFIG_FIELDS = {
    "N": "n_grid", "replicas": "replicas", "seed": "master_seed", "eps_prob": "eps_prob",
    "threads": "workers",
}


def _experiment_config(resolved: dict) -> harness.ExperimentConfig:
    _require(resolved, "dim", "N")
    fields = {f: resolved[k] for k, f in _CONFIG_FIELDS.items() if resolved.get(k) is not None}
    fields["n_grid"] = tuple(sorted(fields["n_grid"]))
    return harness.ExperimentConfig(rule=_rule(resolved), **fields)


def _run_and_report(resolved: dict) -> tuple[list, list, list]:
    config = _experiment_config(resolved)
    points = harness.run_replicas(config)
    conc = harness.concentration_report(points, config.eps_prob)
    return points, conc, harness.normality_report(points)


def _check_exit(resolved: dict, conc: list, norm: list) -> int:
    """With --check, report every failed check on stderr and return 3."""
    problems = harness.check_failures(conc, norm) if resolved.get("check") else []
    for p in problems:
        sys.stderr.write(f"check failed: {p}\n")
    return _CHECK_EXIT if problems else 0


def _cmd_simulate(resolved: dict) -> int:
    out = resolved.get("out")
    if out and Path(out).suffix:
        raise ValueError(
            f"simulate writes replicas.csv and summary.json into the directory --out, "
            f"so --out takes a directory name, got {out!r}"
        )
    points, conc, norm = _run_and_report(resolved)
    payload = {
        "config": _echo(resolved, "simulate"),
        "concentration": [asdict(r) for r in conc],
        "normality": [asdict(r) for r in norm],
    }
    if out:
        Path(out).mkdir(parents=True, exist_ok=True)
        with open(Path(out) / "replicas.csv", "w") as fh:
            harness.write_csv(points, fh)
    else:
        harness.write_csv(points, sys.stdout)
    _emit(payload, out)
    return _check_exit(resolved, conc, norm)


def _cmd_concentration(resolved: dict) -> int:
    _, conc, norm = _run_and_report(resolved)
    payload = {
        "config": _echo(resolved, "concentration"),
        "rows": [asdict(r) for r in conc],
    }
    _emit(payload, resolved.get("out"), filename="concentration.json")
    return _check_exit(resolved, conc, norm)


def _echo(resolved: dict, command: str) -> dict:
    """Resolved-config header for JSON outputs.

    Scheduling and destination knobs (threads, out) are excluded: they do not
    affect any computed value, and reruns at a different worker count or
    output path must produce byte-identical artifacts.
    """
    echo = {"command": command}
    for key, val in sorted(resolved.items()):
        if key in ("threads", "out"):
            continue
        echo[key] = val
    return echo


_SAMPLING = ("dim", "N", "eps", "c", "replicas", "seed", "threads", "eps_prob", "check")
# Subcommand -> (handler, the options it takes besides --out and --config).
_COMMANDS = {
    "oracle": (_cmd_oracle, ("dim", "N", "eps", "c")),
    "simulate": (_cmd_simulate, _SAMPLING),
    "clt": (_cmd_clt, ("dim", "N", "eps", "c")),
    "concentration": (_cmd_concentration, _SAMPLING),
}


def parse_and_dispatch(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    try:
        resolved = _resolve(args)
        return _COMMANDS[args.command][0](resolved)
    except (ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
