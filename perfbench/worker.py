"""The workload process: one closed-loop client driving `spindimer.cli.main`.

Started by run.py with the BLAS thread count pinned to 1. It times the
import of `spindimer` and `spindimer.cli` (its set-up), then runs the ops
of the plan one at a time, in order, in whole passes (at least
MIN_PASSES), until the timed wall time reaches --seconds. An op is one CLI
request run in-process; when the request writes a file, the op also reads
it back with the package's own reader, as a user's pipeline would. Each
op's output is verified after its timer stops.

The machine this runs on is shared, and its speed drifts by 20-30% over
tens of seconds as other tenants come and go. So each distinct request's
latency is the fastest of its repetitions in the run (one per pass), and
the end-to-end metrics are taken over those: latency percentiles over the
distinct requests, throughput as completed requests (or their rows) per
second of their summed latencies. The plain averages over every
repetition are kept in the report next to them.

Set-up is sampled in SETUP_PROBES fresh processes started between ops,
spread evenly over the timed passes, so that the median reflects the
whole run and not one moment of it.

The result's `attempted` and `failed` count distinct requests, not
repetitions: a request fails when any of its repetitions fails. So the
counts depend only on the inputs, which come from the seed, and never on
how many passes the machine's speed allowed. Repetition counts are in the
report.

With --trace 1 the untraced passes are followed by one traced pass, and
the per-layer stats come from its spans.

    python3 perfbench/worker.py --probe
    python3 perfbench/worker.py --plan PLAN --seconds S --trace 0|1 --result OUT
"""

from __future__ import annotations

import argparse
import io
import json
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

# Repetitions of each op per run; the fastest one is its latency.
MIN_PASSES = 3
# Fresh-process set-up samples taken during a timed run.
SETUP_PROBES = 9


def _import_program() -> float:
    """Seconds to import the package and its CLI in this fresh process."""
    t0 = perf_counter()
    import spindimer  # noqa: F401
    import spindimer.cli  # noqa: F401
    return perf_counter() - t0


def probe_setup() -> float:
    """Set-up time of a fresh process, which inherits this one's environment."""
    proc = subprocess.run([sys.executable, __file__, "--probe"], capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


class Client:
    """Runs ops, times them, verifies them and keeps the tallies."""

    def __init__(self, plan: dict) -> None:
        import spindimer.cli
        import spindimer.sweep
        import verify
        from workloads import read_pressure_table

        self.cli = spindimer.cli
        self.sweep = spindimer.sweep
        self.verify = verify
        self.plan = plan
        self.nodes = read_pressure_table(plan["pressure_table"])
        self.latencies: list[float] = []  # every completed repetition
        self.rows = 0
        self.best: dict[int, float] = {}  # op index -> fastest completed latency
        self.rows_of: dict[int, int] = {}
        self.executions = 0  # every repetition of every op
        self.failed_executions = 0
        self.attempted: set[int] = set()  # op indices run at least once
        self.failed: set[int] = set()  # op indices that failed at least once
        self.wrong = 0  # executions whose output failed verification
        self.reasons: dict[str, int] = {}
        self.messages: dict[str, int] = {}
        self.timed = 0.0  # op time so far
        self.setup_samples: list[float] = []
        self.probe_every: float | None = None  # op seconds between set-up probes

    def run_op(self, op: dict):
        """Time one request (plus read-back of its file); never raises."""
        out, err = io.StringIO(), io.StringIO()
        readback, error = None, None
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(op["argv"])
            if code == 0 and op["out"] is not None:
                reader = (self.sweep.read_table_csv if op["format"] == "csv"
                          else self.sweep.read_table_json)
                readback = reader(op["out"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:  # a crash is a failed op, not a dead run
            code, error = None, f"{type(exc).__name__}: {exc}"
        latency = perf_counter() - t0
        return latency, code, out.getvalue(), err.getvalue(), readback, error

    def step(self, index: int, op: dict, rng: random.Random) -> float:
        """Run, then verify outside the timer; returns the op's latency."""
        latency, code, stdout, stderr, readback, error = self.run_op(op)
        self.executions += 1
        self.attempted.add(index)
        self.timed += latency
        if (self.probe_every is not None and len(self.setup_samples) < SETUP_PROBES
                and self.timed >= self.probe_every * len(self.setup_samples)):
            self.setup_samples.append(probe_setup())
        problems: list[str] = []
        misses: list[str] = []
        rows = 0
        if code == 0:
            text = None
            if op["kind"] != "critical-field":
                text = stdout if op["out"] is None else Path(op["out"]).read_text(encoding="utf-8")
            problems, misses, rows = self.verify.check_op(
                op, stdout, text, readback, self.nodes, rng)
        if code == 0 and not problems and not misses:
            self.latencies.append(latency)
            self.rows += rows
            self.best[index] = min(latency, self.best.get(index, latency))
            self.rows_of[index] = rows
            return latency
        self.failed_executions += 1
        self.failed.add(index)
        if error is not None:
            reason, message = "exception", error
        elif code != 0:
            reason = f"exit_{code}"
            message = (stderr.strip().splitlines() or ["(no message)"])[-1]
        elif problems:
            self.wrong += 1
            reason, message = "verification", problems[0]
        else:
            reason, message = "fit_outside_sigmas", misses[0]
        self.reasons[reason] = self.reasons.get(reason, 0) + 1
        key = f"{op['kind']}: {_generic(message)}"
        self.messages[key] = self.messages.get(key, 0) + 1
        return latency

    def run_pass(self, seed: int, pass_no: int, tracer=None) -> float:
        wall = 0.0
        for i, op in enumerate(self.plan["ops"]):
            rng = random.Random((seed * 1_000_003 + pass_no) * 100_003 + i)
            if tracer is not None:
                tracer.current_op = self.executions
            try:
                wall += self.step(i, op, rng)
            finally:
                if tracer is not None:
                    tracer.current_op = -1
        return wall

    def summary(self) -> dict:
        return {
            "attempted": len(self.attempted),
            "failed": len(self.failed),
            "executions": self.executions,
            "failed_executions": self.failed_executions,
            "wrong_outputs": self.wrong,
            "failure_reasons": self.reasons,
            "failure_messages": dict(sorted(self.messages.items(), key=lambda kv: -kv[1])),
        }


def _generic(message: str) -> str:
    """Drop the numbers from an error message so alike failures group."""
    return " ".join("#" if any(ch.isdigit() for ch in w) else w for w in message.split())


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8] if len(values) > 1 else values[0]


def end_to_end(client: Client, wall: float) -> tuple[dict, dict]:
    """Metrics over each distinct op's fastest repetition, and the report
    with the same figures over every repetition as observed. An op that
    failed in any repetition is not completed."""
    best = [t for i, t in client.best.items() if i not in client.failed]
    rows = sum(n for i, n in client.rows_of.items() if i not in client.failed)
    per_pass = sum(best)
    p90 = _p90(best)
    metrics = {
        "ops_per_s": len(best) / per_pass,
        "rows_per_s": rows / per_pass,
        "op_p50_ms": 1e3 * statistics.median(best),
        "op_p90_ms": 1e3 * p90,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    lat = sorted(client.latencies)
    # A failed op misses every latency limit: rank it after all completed ops.
    rank = -(-9 * (len(lat) + client.failed_executions) // 10) - 1
    observed = {
        "ops_per_s": len(lat) / wall,
        "rows_per_s": client.rows / wall,
        "op_p50_ms": 1e3 * statistics.median(lat),
        "op_p90_ms": 1e3 * _p90(lat),
        "op_p90_ms_failed_as_never_done": 1e3 * lat[rank] if rank < len(lat) else None,
        "samples": len(lat),
    }
    report = {
        "timed_wall_s": wall,
        "error_rate": len(client.failed) / len(client.attempted),
        "latency_samples": len(best),
        "beyond_p90": sum(1 for x in best if x > p90),
        "observed": observed,
    }
    return metrics, report


def timed_passes(client: Client, seed: int, seconds: float) -> tuple[int, float]:
    """Whole passes until the timed wall reaches `seconds`."""
    passes, wall = 0, 0.0
    while passes < MIN_PASSES or wall < seconds:
        wall += client.run_pass(seed, passes)
        passes += 1
    return passes, wall


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true", help="only time the import")
    parser.add_argument("--plan")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--result")
    args = parser.parse_args(argv)

    setup_s = _import_program()
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy as np

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    seed = plan["seed"]
    client = Client(plan)
    result = {
        "setup_s": setup_s,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }
    if args.trace == 0:
        client.probe_every = args.seconds / SETUP_PROBES
        passes, wall = timed_passes(client, seed, args.seconds)
        while len(client.setup_samples) < SETUP_PROBES:
            client.setup_samples.append(probe_setup())
        result["metrics"], result["report"] = end_to_end(client, wall)
        result["report"]["passes"] = passes
        result["setup_samples_s"] = [setup_s] + client.setup_samples
    else:
        import tracing

        passes, untraced = timed_passes(client, seed, args.seconds)
        tracer = tracing.Tracer()
        tracer.install()
        try:
            traced = client.run_pass(seed, 0, tracer)
        finally:
            tracer.uninstall()
        metrics = tracer.stats()
        metrics["trace.overhead_s"] = traced - untraced / passes
        result["metrics"] = {name: metrics[name] for name, _, _ in tracing.per_layer_metrics()}
        result["report"] = {
            "untraced_passes": passes,
            "untraced_pass_s": untraced / passes,
            "traced_pass_s": traced,
            "spans": len(tracer.start),
            "error_rate": len(client.failed) / len(client.attempted),
        }
        tracer.save(Path(args.result).with_name("spans.npz"))
    result.update(client.summary())
    result["correct"] = client.wrong == 0
    Path(args.result).write_text(json.dumps(result, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
