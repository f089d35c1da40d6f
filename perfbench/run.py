"""fedmim benchmark: one workload per process, outputs checked, figures printed.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload c4-short --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload, one process each

The program is imported from ``src/`` of the checkout, never from an
installed copy. With ``--trace 0`` the run prints the end-to-end metrics,
with ``--trace 1`` the per-layer ones. The last line of standard output
is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
A results file with the environment and every check goes to
``perfbench/out/results/``.
"""

import os

# One BLAS thread: loss_trace.csv bytes differ between 1 and 2 OpenBLAS
# threads, and one thread keeps each run on one core. Set before numpy
# is imported anywhere in this process.
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CALLER_BLAS_ENV = {var: os.environ.get(var) for var in BLAS_ENV}
for _var in BLAS_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
WORKLOAD_NAMES = ("c4-short", "many-clients", "cli-chain")


def unit_for(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("_s", "s"), ("_calls", "count"), ("_bytes", "bytes"),
                         ("_pairs", "count"), ("_us_per_sample", "us"),
                         ("_ms", "ms"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    raise ValueError(f"no unit rule for {name}")


def import_program():
    """Put the checkout's src/ first on the path and import fedmim from it."""
    if not (SRC / "fedmim" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no fedmim sources under {SRC}; "
                         "run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import fedmim

    if Path(fedmim.__file__).resolve().parent != (SRC / "fedmim").resolve():
        raise SystemExit(f"benchmark: fedmim imported from {fedmim.__file__}, not {SRC}")


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, asked of the library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                return int(getattr(lib, symbol)())
    return None


def environment(load_at_start) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": blas_threads(),
        "blas_env": {var: os.environ[var] for var in BLAS_ENV},
        "blas_env_from_caller": CALLER_BLAS_ENV,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "loadavg_at_start": load_at_start,
    }


def run_one(args) -> int:
    load_at_start = os.getloadavg()
    import_program()
    import workloads

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        run = workloads.Run(args.seed, args.seconds, bool(args.trace), workdir)
        outcome = workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment(load_at_start)
    correct = bool(outcome.checks) and all(ok for _, ok, _ in outcome.checks)
    metrics = {name: {"value": float(value), "unit": unit or unit_for(name)}
               for name, (value, unit) in outcome.metrics.items()}
    for name, ok, detail in outcome.checks:
        print(f"check {name}: {'ok' if ok else 'FAILED'} ({detail})")
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print("environment " + json.dumps(env, sort_keys=True))
    result = {"correct": correct, "attempted": outcome.attempted,
              "failed": outcome.failed, "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, environment=env, info=outcome.info,
                  checks=[{"name": n, "ok": ok, "detail": d}
                          for n, ok, d in outcome.checks])
    results = OUT / "results"
    results.mkdir(exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in a fresh process; prefix its metrics with its name."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    env = {k: v for k, v in os.environ.items() if k not in BLAS_ENV}
    env.update({k: v for k, v in CALLER_BLAS_ENV.items() if v is not None})
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False, env=env)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"benchmark: workload {name} printed no result", file=sys.stderr)
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="budget for the repeated, measured part of a run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
