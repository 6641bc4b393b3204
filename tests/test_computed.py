"""Computed output pinned: each table under tests/data/computed/ is rebuilt
and compared with its file.

The golden-bytes fixtures pin only the renderer; these pin what
`run_sweep` and `coherence_series` compute. The grid, labels, metadata and
every closed-form column use numpy arithmetic and `exp` only, so they must
match exactly. `C_oracle` comes from LAPACK `eigh`, whose rounding may
differ between builds, so it is held to ORACLE_FIXTURE_ATOL.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from spindimer import read_table_csv

COMPUTED = Path(__file__).parent / "data" / "computed"
ORACLE_FIXTURE_ATOL = 4e-15

_spec = importlib.util.spec_from_file_location("computed_fixtures", COMPUTED / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)


def test_every_fixture_has_a_case():
    on_disk = {p.name for p in COMPUTED.glob("*.csv")}
    assert on_disk == set(generate.CASES)
    assert len(on_disk) == 14


@pytest.mark.parametrize("name", sorted(generate.CASES))
def test_rebuilt_table_matches_fixture(name):
    pinned = read_table_csv(COMPUTED / name)
    fresh = generate.CASES[name]()
    assert fresh.column_names == pinned.column_names
    assert fresh.annotations == pinned.annotations
    assert {**fresh.metadata, "timestamp": generate.TIMESTAMP} == pinned.metadata
    for column in fresh.column_names:
        got, want = fresh.column(column), pinned.column(column)
        if column == "C_oracle":
            assert np.max(np.abs(got - want)) <= ORACLE_FIXTURE_ATOL
        else:
            assert np.array_equal(got, want, equal_nan=True), column


def test_sweep_fixtures_cover_both_bases_and_signs_of_j():
    sweeps = [read_table_csv(COMPUTED / n) for n in generate.CASES if n.startswith("sweep_")]
    assert {t.metadata["basis"] for t in sweeps} == {"z", "x"}
    assert {t.metadata["variable"] for t in sweeps} == {
        "temperature", "field_longitudinal", "field_transverse", "pressure"
    }
    assert all(t.n_rows == generate.ROWS for t in sweeps)
    j_held = {t.metadata["j_over_kb"] for t in sweeps if "j_over_kb" in t.metadata}
    assert j_held == {"-2.86", "1.3"}
