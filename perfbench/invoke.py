"""One workload invocation in a fresh interpreter; run.py spawns it.

    python3 perfbench/invoke.py ROOT setup
    python3 perfbench/invoke.py ROOT WORKLOAD SEED TRACE WORKDIR

Imports polymer_lab from ROOT/src, runs the workload's CLI commands in-process
through cli.parse_and_dispatch with stdout captured, and prints one JSON
object: the perf_counter time at which the package was imported and ready,
each command's exit code, wall time and stdout, the resource usage of this
process and of its pool workers, and with TRACE=1 the per-layer span summary.
The setup form stops once the package is ready.
"""

import os
import sys
import time

ROOT = sys.argv[1]
sys.path.insert(0, os.path.join(ROOT, "src"))

import polymer_lab  # noqa: E402
from polymer_lab import cli  # noqa: E402

READY = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

from tracing import Tracer, summarize  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def install(tracer: Tracer) -> None:
    """Wrap the public functions whose spans make up the per-layer split."""
    from polymer_lab import engine, environment, fluctuation, harness, moments, stats, walk

    for owner, attr, name, count in (
        (environment.EnvironmentField, "slice_signs", "environment.slice_signs", None),
        (walk, "step_layer", "walk.step_layer", None),
        (walk, "build_kernel", "walk.build_kernel", None),
        (walk, "collision_layer_moments", "walk.collision_layer_moments", None),
        (engine, "evolve_density", "engine.evolve_density", None),
        (harness, "simulate_replica", "harness.simulate_replica", None),
        (harness, "run_replicas", "harness.run_replicas", None),
        (harness, "concentration_report", "harness.concentration_report", None),
        (harness, "normality_report", "harness.normality_report", None),
        (harness, "write_csv", "harness.write_csv", None),
        (moments, "ez2_pairwalk", "moments.ez2_pairwalk", None),
        (moments, "ez2_expansion", "moments.ez2_expansion", None),
        (moments, "ek2_expansion", "moments.ek2_expansion", lambda r: r.orders.shape[0] - 1),
        (moments, "centered_moments", "moments.centered_moments", None),
        (fluctuation, "remainder_variance_exact", "fluctuation.remainder_variance_exact", None),
        (fluctuation, "limit_variance", "fluctuation.limit_variance", None),
        (stats.RunningMoments, "extend", "stats.RunningMoments.extend", None),
        (stats, "ks_normal_distance", "stats.ks_normal_distance", None),
        (cli, "parse_and_dispatch", "cli.parse_and_dispatch", None),
    ):
        tracer.wrap(owner, attr, name, count)


def run_command(argv: list[str]) -> dict:
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.parse_and_dispatch(argv)
    except SystemExit as exc:
        rc = exc.code
    except Exception:  # reported as a failed command, the run goes on
        traceback.print_exc()
        rc = None
    wall = time.perf_counter() - start
    return {"argv": argv, "rc": rc, "wall_s": wall, "stdout": buf.getvalue()}


def main() -> int:
    src = Path(ROOT, "src").resolve()
    if not Path(polymer_lab.__file__).resolve().is_relative_to(src):
        sys.stderr.write(f"polymer_lab imported from {polymer_lab.__file__}, not {src}\n")
        return 2
    if sys.argv[2] == "setup":
        print(json.dumps({"ready": READY}))
        return 0
    workload, seed, traced, workdir = sys.argv[2], int(sys.argv[3]), sys.argv[4] == "1", Path(sys.argv[5])
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(workdir) if traced else None
    if tracer is not None:
        install(tracer)
    commands = [run_command(cmd.argv(seed)) for cmd in WORKLOADS[workload]]
    me = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    report = {
        "ready": READY,
        "commands": commands,
        "maxrss_kb": me.ru_maxrss,
        "children_maxrss_kb": kids.ru_maxrss,
        "children_cpu_s": kids.ru_utime + kids.ru_stime,
        "children_nivcsw": kids.ru_nivcsw,
    }
    if tracer is not None:
        spans, workers = tracer.collect()
        (workdir / "trace.json").write_text(json.dumps(spans))
        layers = summarize(spans)
        for name, agg in layers.items():
            if name != "harness.simulate_replica":  # only replica times feed percentiles
                del agg["durations_s"]
        report["layers"] = layers
        report["workers_traced"] = workers
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
