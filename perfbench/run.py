"""Seeded benchmark of the moticomp pipeline: train, serve and compose.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30 --trace 1

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the separate
traced run that gives the per-layer metrics and writes its spans to
``.perfbench/trace-<workload>-seed<seed>.json``. Every metric is printed as
``name = value unit``; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and the metrics that
BENCHMARK.json lists for the mode. ``--workload all`` runs each workload in
a fresh process, one after another.

The program is imported from ``src/`` of the checkout that holds this file;
without it the benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("train", "serve", "compose")
# Pinned before numpy loads its BLAS: the 600x256 VAE matmuls would
# otherwise start BLAS threads that compete for the two cores with the
# single-threaded Python loop being measured.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _environment() -> dict[str, str]:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": str(os.cpu_count()),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": ",".join(f"{v}={os.environ.get(v)}" for v in THREAD_VARS),
    }


def _number(value: float) -> float | int | None:
    if isinstance(value, int):
        return value
    return float(value) if math.isfinite(value) else None


def result_json(result) -> str:
    """The result line: correct, attempted, failed, and the metrics with units."""
    return json.dumps({
        "correct": result.correct,
        "attempted": result.ops.attempted,
        "failed": result.ops.failed,
        "metrics": {name: {"value": _number(value), "unit": unit}
                    for name, (value, unit) in result.metrics.items()},
    })


def _run_all(args: argparse.Namespace) -> int:
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd, check=False).returncode)
    return worst


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if args.workload == "all":
        return _run_all(args)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    try:
        import moticomp
    except ImportError as exc:
        print(f"perfbench: cannot import moticomp from {src}: {exc}", file=sys.stderr)
        return 2
    if not Path(moticomp.__file__).resolve().is_relative_to(src):
        print(f"perfbench: moticomp was imported from {moticomp.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2
    import workloads

    env = _environment()
    print("# " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    OUT_DIR.mkdir(exist_ok=True)
    result = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace),
                           workdir=OUT_DIR)
    for name, (value, unit) in {**result.metrics, **result.details}.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"operations attempted = {result.ops.attempted}, failed = {result.ops.failed}")
    for err in result.ops.errors:
        print(f"# failed: {err}")
    for name in result.unmeasured:
        print(f"# not measured: {name}")
    if result.tracer is not None:
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        result.tracer.dump(path, {"environment": env, "workload": args.workload,
                                  "seed": args.seed, "seconds": args.seconds,
                                  "metrics": result.metrics, "details": result.details,
                                  "attempted": result.ops.attempted,
                                  "failed": result.ops.failed})
        print(f"# spans written to {path.relative_to(ROOT)}")
    print(result_json(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
