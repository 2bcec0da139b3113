"""okh benchmark: one workload per run, or every workload with ``--workload all``.

Usage, from the repository root:

    python3 bench/run.py --workload refresh --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --smoke

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. ``--trace 0`` reports
the end-to-end metrics of ``BENCHMARK.json``; ``--trace 1`` repeats the run
with okh's entry points wrapped in spans and reports the per-layer metrics.
The package is imported from ``src/`` beside this directory; without it the
run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
from pathlib import Path

# One BLAS thread: the run is a single closed-loop client, and on a small
# shared host one thread gives steadier timings than nproc threads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC_FILE = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("query-wide", "refresh")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true", help="tiny inputs: every phase, check and metric"
    )
    return parser.parse_args(argv)


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads(SPEC_FILE.read_text(encoding="utf-8"))
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def environment() -> dict:
    import numpy as np

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": BLAS_THREADS,
    }


def run_one(args: argparse.Namespace) -> dict:
    import okh  # noqa: F401  (imported before the tracer scans okh's modules)
    import okh.cli  # noqa: F401

    from hostspeed import HostSpeed
    from tracing import NullTracer, Tracer, layer_metrics
    from workloads import SMOKE, WORKLOADS, Run, percentile

    spec = (SMOKE if args.smoke else WORKLOADS)[args.workload]
    work = ROOT / ".bench_work"
    workdir = work / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    # Traced runs report raw per-layer times; untraced runs scale their
    # end-to-end times to a quiet host.
    tracer = Tracer() if args.trace else NullTracer()
    host = None if args.trace else HostSpeed()
    run = Run(spec, args.seed, args.seconds, tracer, str(workdir), host)
    try:
        if args.trace:
            tracer.install()
        else:
            host.start()
        run.setup()
        model = run.measure()
        if args.trace:
            overhead_ms, overhead_pct = run.overhead_probe(model)
            batch_ms = run.batch_probe()
    finally:
        if args.trace:
            tracer.uninstall()
        else:
            host.stop()
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        tracer.write(str(work / f"trace-{args.workload}-seed{args.seed}.jsonl"))

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.trace:
        values = layer_metrics(tracer, spec.native_ops, spec.dominant)
        values.update(run.training_layers())
        values["transition.batch_ms"] = batch_ms
        values["trace.overhead_ms"] = overhead_ms
        values["trace.overhead_pct"] = overhead_pct
    else:
        values = run.end_to_end(peak_rss_mb)
        for kind, times in run.distributions().items():
            quartiles = " ".join(f"p{q}={percentile(times, q):.3f}" for q in (25, 50, 75, 95))
            print(f"# {kind} ms over {len(times)} operations: {quartiles}")
    e2e_units, layer_units = metric_units()
    units = layer_units if args.trace else e2e_units
    missing = set(units) - set(values)
    if missing:
        raise RuntimeError(f"metrics not measured: {sorted(missing)}")
    return {
        "correct": run.checker.failed == 0,
        "attempted": run.checker.attempted,
        "failed": run.checker.failed,
        "metrics": {name: {"value": float(values[name]), "unit": units[name]} for name in units},
    }


def print_table(workload: str, result: dict) -> None:
    for name, metric in result["metrics"].items():
        print(f"{workload:<14} {name:<40} {metric['value']:>14.6g} {metric['unit']}")


def run_all(args: argparse.Namespace) -> dict:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOAD_NAMES:
        command = [
            sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ] + (["--smoke"] if args.smoke else [])
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        if done.returncode != 0:
            raise SystemExit(done.returncode)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        print_table(workload, result)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    return combined


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "okh").is_dir() or not SPEC_FILE.is_file():
        print(f"error: okh sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.workload == "all":
        result = run_all(args)
    else:
        print("# env " + json.dumps(environment(), sort_keys=True))
        result = run_one(args)
        print_table(args.workload, result)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
