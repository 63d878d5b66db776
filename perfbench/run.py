"""polymer-lab benchmark: one workload, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload mc-d1 --seed 1 --seconds 25 --trace 0

Run from the repository root.  Each workload invocation is a fresh
interpreter (perfbench/invoke.py) that imports polymer_lab from ./src and
drives the CLI in-process, so module caches never carry over and every
invocation pays what a CLI user pays.  Invocations repeat until --seconds is
spent; the figures are medians over them.  Output checks run afterwards,
outside the timed region, and count toward `failed`.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced invocations and prints the per-layer metrics from the traced ones,
with the tracing overhead as traced minus untraced wall time.  The last line
of stdout is the JSON result; the lines before it record the machine, every
invocation and every failed check.  --corrupt-row alters one output value
before the checks, to show that a wrong row is counted as failed.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from workloads import WORKLOADS, Simulate, computed_counts

HERE = Path(__file__).resolve().parent
# Extra interpreter spawns that only import the package, so setup_s is a
# median over more starts than the few long invocations give.
SETUP_SPAWNS = 5
# Every run ends well within the three minutes a run may take.
DEADLINE_S = 170.0
# Invocations that crash or time out before the run gives up.
MAX_BROKEN = 3
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "GOTO_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)


def machine() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "arch": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_thread_env": {k: os.environ[k] for k in BLAS_THREAD_VARS if k in os.environ},
    }


def spawn(root: Path, args: list[str], deadline: float) -> tuple[float, dict | None]:
    """Run invoke.py in a fresh interpreter; returns (spawn time, report)."""
    cmd = [sys.executable, str(HERE / "invoke.py"), str(root), *args]
    spawned = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        sys.stderr.write(f"perfbench: invocation {args} timed out\n")
        return spawned, None
    if proc.returncode != 0:
        sys.stderr.write(f"perfbench: invocation {args} exited {proc.returncode}\n")
        return spawned, None
    try:
        return spawned, json.loads(out.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(f"perfbench: invocation {args} printed no report\n")
        return spawned, None


def median(values) -> float:
    return float(statistics.median(values))


def percentile(values, q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def end_to_end(records: list[dict], setups: list[float], items: int) -> dict:
    walls = [r["wall_s"] for r in records]
    return {
        "setup_s": (median(setups), "s"),
        "wall_s": (median(walls), "s"),
        "items_per_s": (median(items / w for w in walls), "1/s"),
        "peak_rss_mb": (
            median(max(r["maxrss_kb"], r["children_maxrss_kb"]) / 1024.0 for r in records),
            "MB",
        ),
    }


def per_layer(traced: list[dict], untraced: list[dict], counts: dict, evolve_s: list) -> dict:
    """Per-layer metrics: medians over the traced invocations."""

    def agg(name: str, key: str) -> float:
        return median(r["layers"].get(name, {}).get(key, 0) for r in traced)

    replica_ms = [
        1e3 * d
        for r in traced
        for d in r["layers"].get("harness.simulate_replica", {}).get("durations_s", [])
    ]
    sites = counts["environment.sites_hashed"]
    signs_self = agg("environment.slice_signs", "self_s")
    return {
        "environment.slice_signs.self_s": (signs_self, "s"),
        "environment.slice_signs.calls": (agg("environment.slice_signs", "calls"), "count"),
        "environment.ns_per_site": (1e9 * signs_self / sites if sites else 0.0, "ns"),
        "environment.sites_hashed": (sites, "count"),
        "walk.step_layer.self_s": (agg("walk.step_layer", "self_s"), "s"),
        "walk.step_layer.calls": (agg("walk.step_layer", "calls"), "count"),
        "walk.stencil_site_updates": (counts["walk.stencil_site_updates"], "count"),
        "walk.build_kernel.s": (agg("walk.build_kernel", "total_s"), "s"),
        "walk.kernel_bytes": (counts["walk.kernel_bytes"], "bytes"),
        "walk.collision_layer_moments.s": (agg("walk.collision_layer_moments", "total_s"), "s"),
        "harness.simulate_replica.self_s": (agg("harness.simulate_replica", "self_s"), "s"),
        "harness.replica_ms.p50": (percentile(replica_ms, 50), "ms"),
        "harness.replica_ms.p90": (percentile(replica_ms, 90), "ms"),
        "harness.run_replicas.s": (agg("harness.run_replicas", "total_s"), "s"),
        "harness.pool.cpu_s": (median(r["children_cpu_s"] for r in traced), "s"),
        "harness.pool.nivcsw": (median(r["children_nivcsw"] for r in traced), "count"),
        "harness.concentration_report.s": (agg("harness.concentration_report", "total_s"), "s"),
        "harness.normality_report.s": (agg("harness.normality_report", "total_s"), "s"),
        "harness.write_csv.s": (agg("harness.write_csv", "total_s"), "s"),
        "moments.ez2_pairwalk.self_s": (agg("moments.ez2_pairwalk", "self_s"), "s"),
        "moments.ez2_pairwalk.calls": (agg("moments.ez2_pairwalk", "calls"), "count"),
        "moments.ez2_expansion.s": (agg("moments.ez2_expansion", "total_s"), "s"),
        "moments.ek2_expansion.s": (agg("moments.ek2_expansion", "total_s"), "s"),
        "moments.ek2_orders": (agg("moments.ek2_expansion", "count"), "count"),
        "moments.centered_moments.self_s": (agg("moments.centered_moments", "self_s"), "s"),
        "fluctuation.remainder_variance_exact.self_s": (
            agg("fluctuation.remainder_variance_exact", "self_s"), "s"),
        "fluctuation.limit_variance.s": (agg("fluctuation.limit_variance", "total_s"), "s"),
        "engine.evolve_density.ms": (1e3 * median(evolve_s) if evolve_s else 0.0, "ms"),
        "stats.RunningMoments.extend.s": (agg("stats.RunningMoments.extend", "total_s"), "s"),
        "stats.ks_normal_distance.s": (agg("stats.ks_normal_distance", "total_s"), "s"),
        "cli.parse_and_dispatch.self_s": (agg("cli.parse_and_dispatch", "self_s"), "s"),
        "trace.overhead_s": (
            median(r["wall_s"] for r in traced) - median(r["wall_s"] for r in untraced), "s"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-row", action="store_true")
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "polymer_lab" / "__init__.py").is_file():
        sys.stderr.write("perfbench: src/polymer_lab not found; run from the repository root\n")
        return 2
    sys.path.insert(0, str(root / "src"))
    commands = WORKLOADS[args.workload]
    items = sum(cmd.items() for cmd in commands)
    work = root / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    deadline = time.perf_counter() + DEADLINE_S
    try:
        return run(args, root, commands, items, work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, root: Path, commands, items: int, work: Path, deadline: float) -> int:
    print("machine:", json.dumps(machine()))
    setups = []
    for _ in range(SETUP_SPAWNS):
        spawned, rep = spawn(root, ["setup"], deadline)
        if rep is None:
            return 1
        setups.append(rep["ready"] - spawned)

    attempted = failed = broken = 0
    records: list[dict] = []
    start = time.perf_counter()
    for index in itertools.count():
        if time.perf_counter() > deadline - 30.0 or broken == MAX_BROKEN:
            break
        traced = bool(args.trace) and len(records) % 2 == 1
        if len(records) >= 2 and (not args.trace or len({r["traced"] for r in records}) == 2):
            typical = median(r["elapsed_s"] for r in records)
            if time.perf_counter() - start + typical > args.seconds:
                break
        inv_dir = work / f"inv{index}"
        spawned, rep = spawn(
            root, [args.workload, str(args.seed), str(int(traced)), str(inv_dir)], deadline
        )
        attempted += len(commands)
        if rep is None:
            failed += len(commands)
            broken += 1
            continue
        failed += sum(c["rc"] != 0 for c in rep["commands"])
        rep.update(
            traced=traced,
            elapsed_s=time.perf_counter() - spawned,
            setup_s=rep["ready"] - spawned,
            wall_s=sum(c["wall_s"] for c in rep["commands"]),
        )
        setups.append(rep["setup_s"])
        records.append(rep)
        if traced:
            shutil.copyfile(inv_dir / "trace.json", work.parent / f"trace-{args.workload}.json")
        print(
            f"invocation {index}: traced={int(traced)} setup_s={rep['setup_s']:.4f} "
            f"wall_s={rep['wall_s']:.4f} "
            + " ".join(f"{c['argv'][0]}={c['wall_s']:.4f}s/rc{c['rc']}" for c in rep["commands"])
            + f" maxrss_kb={rep['maxrss_kb']} children_maxrss_kb={rep['children_maxrss_kb']}"
        )
    if not records or (args.trace and len({r["traced"] for r in records}) < 2):
        sys.stderr.write("perfbench: too few invocations finished\n")
        return 1

    import checks  # imports polymer_lab, so only once src/ is on sys.path

    evolve_s: list[float] = []
    first = [c["stdout"] for c in records[0]["commands"]]
    results = list(checks.check_outputs(commands, args.seed, first, args.corrupt_row, evolve_s))
    for rep in records[1:]:
        for c, ref in zip(rep["commands"], first):
            results.append((f"{c['argv'][0]} output identical to the first invocation",
                            c["stdout"] == ref, ""))
    for label, ok, detail in results:
        if not ok:
            print(f"check FAILED: {label}: {detail}")
    attempted += len(results)
    failed += sum(not ok for _, ok, _ in results)
    print(f"checks: {len(results)} run, {sum(not ok for _, ok, _ in results)} failed; "
          f"failed_frac={failed / attempted:.6g} ({failed}/{attempted} operations)")

    counts = computed_counts(commands)
    print("computed (from the workload configuration, not measured):", json.dumps(counts))
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    if args.trace:
        workers = [r["workers_traced"] for r in traced]
        print(f"trace: {len(traced)} traced and {len(untraced)} untraced invocations; "
              f"pool workers with spans per traced invocation: {workers}; spans of the last "
              f"traced invocation in {work.parent / f'trace-{args.workload}.json'}")
        pooled = any(isinstance(cmd, Simulate) and cmd.threads > 1 for cmd in commands)
        if pooled and not all(workers):
            print("trace: pool worker spans were not collected, so harness.run_replicas "
                  "is the lowest span inside the pool")
        metrics = per_layer(traced, untraced, counts, evolve_s)
    else:
        metrics = end_to_end(untraced, setups, items)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
