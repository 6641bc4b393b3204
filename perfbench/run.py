"""Benchmark entry point: one workload, one seed, one result line.

    python3 perfbench/run.py --workload sweep-small --seed 0 --seconds 10 --trace 0

Run from the root of a source checkout; the package is used from `src/`,
not installed. Inputs are generated from the seed into
`.perfbench_work/<workload>-s<seed>-t<trace>/`, and the workload runs in
its own process with the BLAS thread count pinned to 1. Earlier stdout lines give the per-metric report
and the run's provenance; the last line is the result JSON:
`{"correct", "attempted", "failed", "metrics"}` with the end-to-end
metrics (--trace 0) or the per-layer metrics (--trace 1).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402  (stdlib-only import path set above)
import workloads  # noqa: E402

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("rows_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)
BLAS_THREADS = 1
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
# The whole run must end within 180 s; leave room for set-up and reporting.
WORKER_TIMEOUT_S = 150.0


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("SPINDIMER_OUT_DIR", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    for var in _BLAS_VARS:
        env[var] = str(BLAS_THREADS)
    return env


def _run_child(args: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a Python child in the checkout; it is waited for or killed."""
    return subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=ROOT, env=_child_env(), capture_output=True, text=True,
        timeout=timeout, check=False,
    )


def _git_sha() -> str | None:
    """HEAD of the checkout when it is a git work tree itself, else None."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def _source_digest() -> str:
    """SHA-256 over the package sources, for checkouts that are not git repos."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "spindimer").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int, worker: dict) -> dict:
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": worker["python"],
        "numpy": worker["numpy"],
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "blas_threads": BLAS_THREADS,
        "blas_env": {var: str(BLAS_THREADS) for var in _BLAS_VARS},
        "seed": seed,
    }


def main(argv: list[str] | None = None) -> int:
    t_start = perf_counter()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "spindimer" / "cli.py").is_file():
        print(f"error: no spindimer sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / workloads.PRESSURE_TABLE).is_file():
        print(f"error: missing {workloads.PRESSURE_TABLE}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    plan = workloads.generate(args.workload, args.seed, workdir, ROOT)
    deadline = t_start + WORKER_TIMEOUT_S

    try:
        # Compiles bytecode and warms file caches; not a set-up sample.
        warm = _run_child(["--probe"], max(1.0, deadline - perf_counter()))
        if warm.returncode != 0:
            raise RuntimeError(f"import failed:\n{warm.stderr}")
        result_path = workdir / "result.json"
        proc = _run_child(
            ["--plan", str(plan), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--result", str(result_path)],
            max(1.0, deadline - perf_counter()),
        )
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if proc.returncode != 0:
        print(f"error: workload process exited {proc.returncode}\n{proc.stderr}",
              file=sys.stderr)
        return 1
    worker = json.loads(result_path.read_text(encoding="utf-8"))

    if args.trace == 0:
        values = dict(worker["metrics"], setup_s=statistics.median(worker["setup_samples_s"]))
        units = dict(END_TO_END)
    else:
        values = worker["metrics"]
        units = {name: unit for name, unit, _ in tracing.per_layer_metrics()}
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    report = {
        "workload": args.workload,
        "why": workloads.WHY[args.workload],
        "trace": args.trace,
        "client": "closed loop, 1 client, 1 process, no threads",
        "ops_per_pass": len(json.loads(plan.read_text(encoding="utf-8"))["ops"]),
        **{k: v for k, v in worker.items() if k not in ("metrics", "python", "numpy", "setup_s")},
        "provenance": provenance(args.seed, worker),
    }
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} error_rate = {worker['report']['error_rate']:.6g} ratio "
          f"({worker['failed']} of {worker['attempted']} distinct ops; "
          f"{worker['failed_executions']} of {worker['executions']} executions)")
    if args.trace == 0:
        rep = worker["report"]
        never = rep["observed"]["op_p90_ms_failed_as_never_done"]
        print(f"{args.workload} latency samples = {rep['latency_samples']} distinct ops "
              f"(fastest of {rep['passes']} passes each), {rep['beyond_p90']} beyond p90")
        print(f"{args.workload} observed over all {rep['observed']['samples']} completed ops: "
              f"{rep['observed']['ops_per_s']:.6g} ops/s, p50 {rep['observed']['op_p50_ms']:.6g} ms, "
              f"p90 {rep['observed']['op_p90_ms']:.6g} ms, p90 with failures as never done "
              + (f"{never:.6g} ms" if never is not None else "unbounded"))
    print(json.dumps({"report": report}, sort_keys=True))
    (workdir / "report.json").write_text(json.dumps(report, indent=1), encoding="utf-8")
    print(json.dumps({
        "correct": worker["correct"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
