"""Output checks, run after the timed region in the benchmark process.

simulate: a sample of CSV rows is re-derived from its recorded seeds through
engine.evolve_density and fluctuation.linear_components; seed, c, Z, K, msd,
linear and remainder must match bit for bit.
oracle: every row's ez2 must match moments.ez2_pairwalk to 1e-12 relative.
clt: every row's remainder_var must match E Z^2 - 1 - linear variance from
moments.ez2_pairwalk and fluctuation.linear_variance_exact to 1e-12 relative.

Each check returns (label, ok, detail).  The engine.evolve_density call times
are collected for the traced run's engine.evolve_density.ms.
"""

from __future__ import annotations

import json
import random
import time

import numpy as np
from polymer_lab import engine, environment, fluctuation, harness, moments, walk

from workloads import Exact, Simulate

# Rows re-derived per grid point, chosen from the run's seed.
SAMPLE_ROWS = 2
REL_TOL = 1e-12


def _split_simulate(stdout: str) -> tuple[list[str], dict]:
    """simulate without --out prints the CSV, then the JSON summary."""
    at = stdout.index("\n{") + 1
    return stdout[:at].splitlines(), json.loads(stdout[at:])


def check_simulate(cmd: Simulate, seed: int, stdout: str, corrupt: bool, evolve_s: list):
    lines, summary = _split_simulate(stdout)
    header, rows = lines[0], [line.split(",") for line in lines[1:]]
    expected = cmd.items()
    counts = [row["count"] for row in summary["normality"]]
    ok = (
        header == ",".join(harness.CSV_COLUMNS)
        and len(rows) == expected
        and counts == [cmd.replicas] * len(cmd.grid)
    )
    yield "simulate row count", ok, f"{len(rows)} CSV rows, {counts} summary counts, want {expected}"
    pick = random.Random(seed)
    rule = fluctuation.scaling(cmd.d, float(cmd.eps))
    for grid_index, N in enumerate(cmd.grid):
        block = rows[grid_index * cmd.replicas : (grid_index + 1) * cmd.replicas]
        kernel = walk.build_kernel(cmd.d, N)
        for row in pick.sample(block, min(SAMPLE_ROWS, len(block))):
            if corrupt:  # demonstrates that a wrong row is caught
                row = row[:5] + [repr(float(row[5]) * (1.0 + 1e-15))] + row[6:]
                corrupt = False
            ok, detail = _rederive(cmd, seed, grid_index, N, rule.c_of(N), kernel, row, evolve_s)
            yield f"re-derive replica {row[0]} at N={N}", ok, detail


def _rederive(cmd, seed, grid_index, N, c, kernel, row, evolve_s):
    rid, rseed = int(row[0]), int(row[1])
    want_seed = environment.derive_replica_seed(seed, grid_index, rid)
    env = environment.EnvironmentField(seed=rseed, d=cmd.d, horizon=N)
    start = time.perf_counter()
    layer = engine.evolve_density(env, c, N)
    evolve_s.append(time.perf_counter() - start)
    obs = engine.observables(layer)
    linear = float(np.sum(fluctuation.linear_components(env, c, N, kernel)))
    got = [rseed, cmd.d, N, c, obs.Z, obs.K, obs.msd, linear, obs.Z - 1.0 - linear]
    have = [rseed, int(row[2]), int(row[3])] + [float(v) for v in row[4:]]
    ok = rseed == want_seed and got == have
    return ok, f"seed {rseed} (want {want_seed}), row {have[3:]}, re-derived {got[3:]}"


def _rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_exact(cmd: Exact, stdout: str, corrupt: bool, ez2_cache: dict):
    rows = json.loads(stdout)["rows"]
    yield f"{cmd.command} row count", len(rows) == len(cmd.grid), f"{len(rows)} rows"
    for row in rows:
        key = (row["N"], row["c"], row["d"])
        if key not in ez2_cache:
            ez2_cache[key] = moments.ez2_pairwalk(*key)
        ez2 = ez2_cache[key]
        if cmd.command == "oracle":
            got = row["ez2"] * (1.0 + 1e-9) if corrupt else row["ez2"]
            corrupt = False
            err = _rel_err(got, ez2)
            label = f"oracle ez2 vs ez2_pairwalk at d={key[2]} N={key[0]}"
        else:
            want = max(ez2 - 1.0 - fluctuation.linear_variance_exact(*key), 0.0)
            err = _rel_err(row["remainder_var"], want)
            label = f"clt remainder_var vs ez2_pairwalk at d={key[2]} N={key[0]}"
        yield label, err <= REL_TOL, f"relative error {err:.3g}"


def check_outputs(commands, seed: int, stdouts: list[str], corrupt: bool, evolve_s: list):
    """All output checks of one invocation's command outputs; output that does
    not parse is one failed check."""
    ez2_cache: dict = {}
    for cmd, stdout in zip(commands, stdouts):
        try:
            if isinstance(cmd, Simulate):
                yield from check_simulate(cmd, seed, stdout, corrupt, evolve_s)
            else:
                yield from check_exact(cmd, stdout, corrupt, ez2_cache)
        except (ValueError, KeyError, IndexError) as exc:
            yield f"{cmd.command} output parses", False, repr(exc)
        corrupt = False
