"""Smoke test of the example scripts: each runs to completion and every
table it emits reads back."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from spindimer import read_table_csv

REPO = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize(
    "script, tables",
    [
        ("coherence_curves.py", ["temperature_zero_field.csv", "pressure_scan_2K.csv",
                                 "field_scan_sz.csv", "field_scan_sx.csv"]),
        ("fit_synthetic.py", ["coherence_vs_temperature.csv"]),
    ],
)
def test_script_runs_and_its_tables_read_back(tmp_path, script, tables):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, str(REPO / "scripts" / script), "--out-dir", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    for name in tables:
        assert read_table_csv(tmp_path / name).n_rows > 0
