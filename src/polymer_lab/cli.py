"""Command line entry points.

Subcommands: kernel-check, moments, oracle, simulate, clt, concentration.
Every run echoes its fully resolved configuration in the JSON output header,
and identical invocations produce byte-identical output.  Exit codes:
0 success, 2 argument/validation error, 3 failed --check.

A flat key=value config file (--config) supplies defaults; explicit flags
win.  --threads falls back to the POLYMER_LAB_THREADS environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import fluctuation, harness, moments, walk

_CHECK_EXIT = 3


def _parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="polymer-lab")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, *names: str) -> None:
        if "dim" in names:
            p.add_argument("--dim", type=int, default=None, help="lattice dimension (1 or 2)")
        if "N" in names:
            p.add_argument(
                "--N", type=int, action="append", default=None, help="horizon; repeat for a grid"
            )
        if "eps" in names:
            p.add_argument("--eps", type=float, default=None, help="scaling exponent margin")
        if "c" in names:
            p.add_argument("--c", type=float, default=None, help="override disorder strength")
        if "nmax" in names:
            p.add_argument("--nmax", type=int, default=None, help="largest time to check")
        if "replicas" in names:
            p.add_argument("--replicas", type=int, default=None)
        if "seed" in names:
            p.add_argument("--seed", type=int, default=None, help="master seed")
        if "threads" in names:
            p.add_argument("--threads", type=int, default=None, help="worker process count")
        if "eps-prob" in names:
            p.add_argument("--eps-prob", dest="eps_prob", type=float, default=None)
        if "check" in names:
            p.add_argument("--check", action="store_true", default=False)
        p.add_argument("--out", type=str, default=None, help="output file or directory")
        p.add_argument("--config", type=str, default=None, help="flat key=value config file")

    common(sub.add_parser("kernel-check"), "dim", "nmax")
    common(sub.add_parser("moments"), "dim", "nmax")
    common(sub.add_parser("oracle"), "dim", "N", "eps", "c")
    common(sub.add_parser("simulate"), "dim", "N", "eps", "c", "replicas", "seed", "threads", "eps-prob", "check")
    common(sub.add_parser("clt"), "dim", "N", "eps", "c")
    common(sub.add_parser("concentration"), "dim", "N", "eps", "c", "replicas", "seed", "threads", "eps-prob", "check")
    return top


def load_config(path: str) -> dict:
    """Flat key = value lines; '#' comments; N accepts comma lists or repeats.
    A key that no subcommand takes is refused."""
    out: dict = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {raw!r} is not key = value")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key == "N":
            vals = out.get("N", [])
            vals.extend(int(v) for v in val.replace(",", " ").split())
            out["N"] = vals
        else:
            out[key] = val
    unknown = sorted(set(out) - _INT_KEYS - _FLOAT_KEYS - {"N", "check", "out"})
    if unknown:
        raise ValueError(f"config file {path} has unknown keys: {', '.join(unknown)}")
    return out


_INT_KEYS = {"dim", "nmax", "replicas", "seed", "threads"}
_FLOAT_KEYS = {"eps", "c", "eps_prob"}


def _resolve(args: argparse.Namespace) -> dict:
    cfg = load_config(args.config) if getattr(args, "config", None) else {}
    resolved: dict = {}
    for key, val in vars(args).items():
        if key in ("command", "config"):
            continue
        if val is None or (key == "check" and val is False):
            raw = cfg.get(key)
            if raw is not None:
                if key == "N":
                    val = list(raw)
                elif key in _INT_KEYS:
                    val = int(raw)
                elif key in _FLOAT_KEYS:
                    val = float(raw)
                elif key == "check":
                    val = str(raw).lower() in ("1", "true", "yes", "on")
                else:
                    val = raw
            elif key == "check":
                val = False
        resolved[key] = val
    if resolved.get("threads") is None:
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


def _nmax(resolved: dict, default: int, cap: int) -> int:
    """--nmax, or default when it is not given; refused outside [1, cap]."""
    nmax = resolved.get("nmax")
    if nmax is None:
        return default
    if not 1 <= nmax <= cap:
        raise ValueError(f"--nmax must lie in [1, {cap}], got {nmax}")
    return nmax


def _cmd_kernel_check(resolved: dict) -> int:
    _require(resolved, "dim")
    d = resolved["dim"]
    # The kernel goes to depth 2 nmax for the collision identity.
    nmax = _nmax(resolved, 50, walk.MAX_KERNEL_DEPTH // 2)
    kernel = walk.build_kernel(d, 2 * nmax)
    norm_dev = 0.0
    sym_dev = 0.0
    odd_dev = 0.0
    collision_dev = 0.0
    moment_errs = {}
    for n in range(1, nmax + 1):
        lay = kernel.layer(n)
        norm_dev = max(norm_dev, abs(float(lay.sum()) - 1.0))
        sym_dev = max(sym_dev, float(np.abs(lay - np.flip(lay)).max()))
        x1 = walk.slice_positions(d, n)[0]
        odd_dev = max(odd_dev, abs(walk.lattice_sum(lay, x1)))
        collision_dev = max(
            collision_dev,
            abs(walk.collision_mass(kernel, n) - kernel.probability(2 * n, (0,) * d)),
        )
        for kind in walk.MOMENT_KINDS[d]:
            ref = walk.closed_form_moment(d, kind, n)
            got = walk.moment(kernel, kind, n)
            err = abs(got - ref) / max(abs(ref), 1.0)
            moment_errs[kind] = max(moment_errs.get(kind, 0.0), err)
    envelope = walk.residual_envelope(kernel, (1, min(nmax, 64)))
    payload = {
        "config": {"command": "kernel-check", "dim": d, "nmax": nmax},
        "normalization_max_dev": norm_dev,
        "symmetry_max_dev": sym_dev,
        "odd_moment_max_dev": odd_dev,
        "collision_identity_max_dev": collision_dev,
        "moment_max_rel_err": moment_errs,
        "residual_envelope": {"flat": envelope.flat, "tail": envelope.tail},
        "pass": bool(
            norm_dev < 1e-12
            and sym_dev < 1e-12
            and odd_dev < 1e-12
            and collision_dev < 1e-12
            and all(e < 1e-9 for e in moment_errs.values())
        ),
    }
    _emit(payload, resolved.get("out"))
    return 0 if payload["pass"] else _CHECK_EXIT


def _cmd_moments(resolved: dict) -> int:
    _require(resolved, "dim")
    d = resolved["dim"]
    nmax = _nmax(resolved, 30, walk.MAX_KERNEL_DEPTH)
    kernel = walk.build_kernel(d, nmax)
    rows = []
    for n in range(1, nmax + 1):
        row = {"n": n}
        for kind in walk.MOMENT_KINDS[d]:
            row[kind] = walk.moment(kernel, kind, n)
            row[kind + "_closed_form"] = walk.closed_form_moment(d, kind, n)
        rows.append(row)
    payload = {"config": {"command": "moments", "dim": d, "nmax": nmax}, "rows": rows}
    _emit(payload, resolved.get("out"))
    return 0


def _c_of(resolved: dict, N: int) -> float:
    """--c if given, else c_N of the scaling rule at --eps."""
    c = resolved.get("c")
    if c is None:
        if resolved.get("eps") is None:
            raise ValueError("need --eps or --c to fix the disorder strength")
        c = fluctuation.scaling(resolved["dim"], resolved["eps"]).c_of(N)
    return c


def _cmd_oracle(resolved: dict) -> int:
    _require(resolved, "dim", "N")
    d = resolved["dim"]
    moments.check_expansion_cap(max(resolved["N"]), d)
    rows = []
    for N in resolved["N"]:
        c = _c_of(resolved, N)
        cal = moments.calibrate(N, c, d)
        ez2 = cal.z2.total
        ek2 = cal.k2.total
        rows.append(
            {
                "d": d,
                "N": N,
                "c": c,
                "ez2": ez2,
                "ek2": ek2,
                "var_Z": ez2 - 1.0,
                "var_K": ek2 - float(N) * N,
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
    d = resolved["dim"]
    eps = resolved["eps"]
    rule = fluctuation.scaling(d, eps)
    rows = []
    for N in resolved["N"]:
        c = _c_of(resolved, N)
        a = rule.a_of(N, c)
        rem = fluctuation.remainder_variance_exact(N, c, d)
        rows.append(
            {
                "d": d,
                "N": N,
                "eps": eps,
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


def _experiment_config(resolved: dict) -> harness.ExperimentConfig:
    _require(resolved, "dim", "N")
    if resolved.get("eps") is None and resolved.get("c") is None:
        raise ValueError("need --eps or --c to fix the disorder strength")

    def given(key: str, default):
        # Only a missing option takes the default; an explicit 0 is validated.
        val = resolved.get(key)
        return default if val is None else val

    return harness.ExperimentConfig(
        d=resolved["dim"],
        eps=given("eps", 0.25),
        n_grid=tuple(sorted(resolved["N"])),
        replicas=given("replicas", 100),
        master_seed=given("seed", 0),
        c_override=resolved.get("c"),
        eps_prob=given("eps_prob", 0.1),
        workers=given("threads", 1),
    )


def _run_and_report(resolved: dict) -> tuple[list, list, list]:
    config = _experiment_config(resolved)
    exact = harness.exact_moments(config)
    results = harness.run_replicas(config)
    conc = harness.concentration_report(results, exact, config.eps_prob)
    norm = harness.normality_report(results, exact, config.rule())
    return results, conc, norm


def _check_exit(resolved: dict, conc: list, norm: list) -> int:
    """With --check, report every failed check on stderr and return 3."""
    problems = harness.check_failures(conc, norm) if resolved.get("check") else []
    for p in problems:
        sys.stderr.write(f"check failed: {p}\n")
    return _CHECK_EXIT if problems else 0


def _cmd_simulate(resolved: dict) -> int:
    results, conc, norm = _run_and_report(resolved)
    payload = {
        "config": _echo(resolved, "simulate"),
        "concentration": [asdict(r) for r in conc],
        "normality": [asdict(r) for r in norm],
    }
    text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    out = resolved.get("out")
    if out:
        outdir = Path(out)
        outdir.mkdir(parents=True, exist_ok=True)
        with open(outdir / "replicas.csv", "w") as fh:
            harness.write_csv(results, fh)
        (outdir / "summary.json").write_text(text)
    else:
        harness.write_csv(results, sys.stdout)
    sys.stdout.write(text)
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


_COMMANDS = {
    "kernel-check": _cmd_kernel_check,
    "moments": _cmd_moments,
    "oracle": _cmd_oracle,
    "simulate": _cmd_simulate,
    "clt": _cmd_clt,
    "concentration": _cmd_concentration,
}


def parse_and_dispatch(argv: list[str]) -> int:
    args = _parser().parse_args(argv)
    try:
        resolved = _resolve(args)
        return _COMMANDS[args.command](resolved)
    except (ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main() -> None:
    sys.exit(parse_and_dispatch(sys.argv[1:]))
