"""The benchmark's own tests: tiny runs complete, bad output is caught.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spindimer.cli
import spindimer.sweep
import tracing
import worker
import workloads
from spindimer.sweep import SweepTable

ROOT = Path(__file__).resolve().parent.parent


def _tiny_plan(tmp_path, workload):
    path = workloads.generate(workload, seed=3, workdir=tmp_path, root=ROOT, scale=0.01)
    return json.loads(path.read_text(encoding="utf-8")), path


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_tiny_run_completes(tmp_path, workload, trace):
    plan, path = _tiny_plan(tmp_path, workload)
    out = tmp_path / "result.json"
    argv = ["--plan", str(path), "--seconds", "0", "--trace", str(trace), "--result", str(out)]
    assert worker.main(argv) == 0
    result = json.loads(out.read_text(encoding="utf-8"))
    assert result["correct"] and result["wrong_outputs"] == 0
    assert result["attempted"] == len(plan["ops"])
    assert result["executions"] == len(plan["ops"]) * (worker.MIN_PASSES + trace)
    if trace:
        names = {name for name, _, _ in tracing.per_layer_metrics()}
        assert set(result["metrics"]) == names
        assert all(v >= 0.0 for k, v in result["metrics"].items() if k.endswith(".calls"))
        assert (tmp_path / "spans.npz").is_file()
    else:
        assert result["metrics"]["ops_per_s"] > 0.0


def test_tracer_counts_calls_and_restores(tmp_path):
    plan, _ = _tiny_plan(tmp_path, "sweep-large")
    original = spindimer.sweep.gibbs_state
    client = worker.Client(plan)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert spindimer.sweep.gibbs_state is not original
        client.run_pass(seed=3, pass_no=0, tracer=tracer)
    finally:
        tracer.uninstall()
    assert spindimer.sweep.gibbs_state is original
    stats = tracer.stats()
    rows = sum(op["expect"]["steps"] for op in plan["ops"])
    assert stats["sweep.run_sweep.calls"] == len(plan["ops"])
    assert stats["sweep.run_sweep.rows"] == rows
    assert stats["core.gibbs_state.calls"] == rows
    assert stats["cli.build_parser.calls"] == len(plan["ops"])
    assert all(stats[f"{n}.self_s"] >= 0.0 for n in tracer.names)


def _tamper(table: SweepTable, column: str) -> SweepTable:
    """Shift one value: a wrong number that the program did not catch."""
    values = np.array(table.values)
    i, k = len(values) // 2, table.column_names.index(column)
    values[i, k] = values[i, k] * (1.0 + 1e-6) + 1e-6
    return SweepTable(table.column_names, values, table.annotations, table.metadata)


@pytest.mark.parametrize(
    "workload, module, funcs, column",
    [
        ("sweep-small", spindimer.cli, ("run_sweep",), "C_oracle"),
        ("sweep-large", spindimer.cli, ("run_sweep",), "C_oracle"),
        ("fit-batch", spindimer.cli, ("coherence_series",), "C_theoretical"),
        # A reader that disagrees with the file it read is caught too.
        ("sweep-large", spindimer.sweep, ("read_table_csv", "read_table_json"), "Z"),
    ],
)
def test_tampered_table_is_a_failed_op(tmp_path, monkeypatch, workload, module, funcs, column):
    plan, _ = _tiny_plan(tmp_path, workload)
    for name in funcs:
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *a, _real=real: _tamper(_real(*a), column))
    client = worker.Client(plan)
    client.run_pass(seed=3, pass_no=0)
    assert client.wrong > 0
    assert client.failed_executions >= client.wrong
    assert len(client.failed) > 0
    assert client.reasons["verification"] == client.wrong


def test_program_failure_counts_but_is_not_wrong(tmp_path):
    plan, _ = _tiny_plan(tmp_path, "fit-batch")
    # |J| = 300 K puts B_c above the fixed 100 T bisection bracket.
    op = {"kind": "critical-field", "argv": ["critical-field", "--j-kelvin", "-300.0"],
          "out": None, "format": None, "expect": {"j": -300.0, "g": 2.0}}
    client = worker.Client(dict(plan, ops=[op]))
    client.run_pass(seed=0, pass_no=0)
    assert (len(client.attempted), len(client.failed), client.wrong) == (1, 1, 0)
    assert client.reasons == {"exit_4": 1}
    # Another repetition is another execution, not another op: the result's
    # counts do not depend on how many passes fit in the run.
    client.run_pass(seed=0, pass_no=1)
    assert (len(client.attempted), len(client.failed)) == (1, 1)
    assert (client.executions, client.failed_executions) == (2, 2)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-small", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_same_inputs(tmp_path):
    a = workloads.generate("fit-batch", 7, tmp_path, ROOT, scale=0.02).read_bytes()
    first = sorted(p.read_bytes() for p in tmp_path.glob("chi-*.csv"))
    b = workloads.generate("fit-batch", 7, tmp_path, ROOT, scale=0.02).read_bytes()
    assert a == b
    assert first == sorted(p.read_bytes() for p in tmp_path.glob("chi-*.csv"))
