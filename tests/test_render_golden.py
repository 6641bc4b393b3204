"""Golden bytes of `render_table`: the emitted text is pinned, not just its
round trip.

The tables are built from literal arrays, so the fixtures depend only on
the renderer. The fixtures under tests/data/golden_*.{csv,json} were
written by the renderer that used per-cell `repr(float(x))` for CSV and
`json.dumps(payload, sort_keys=True, indent=2)` for JSON; any renderer must
reproduce them byte for byte.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from spindimer import SweepTable, read_table_csv, read_table_json, render_table

DATA = Path(__file__).parent / "data"
TIMESTAMP = "2026-01-01T00:00:00Z"


def pressure_table():
    """Shaped like a pressure sweep: J column, ground-state and regime labels."""
    values = np.array([
        [0.0, -2.86, 0.43845614325231217, 0.4384561432523121, 1.7841920128513385],
        [2.5, -1.0850000000000002, 0.2003046157401016, 0.20030461574010171, 1.3140106722093047],
        [5.0, 0.30000000000000004, 0.03735047301342929, 0.0373504730134293, 4.1587393022716755],
        [7.5, 1.0, 0.1220340839917006, 0.12203408399170061, 5.284036860601453],
        [10.0, 2.5e-05, 3.1249999997e-06, 3.124999999700001e-06, 4.000000000012500],
    ])
    return SweepTable(
        column_names=("P_GPa", "J_kelvin", "C_z", "C_oracle", "Z"),
        values=values,
        annotations={
            "ground_state": (
                "singlet", "singlet", "triplet_plus+triplet_zero+triplet_minus",
                "triplet_plus+triplet_zero+triplet_minus", "triplet_plus",
            ),
            "regime": (
                "antiferromagnetic", "antiferromagnetic", "ferromagnetic",
                "ferromagnetic", "ferromagnetic",
            ),
        },
        metadata={
            "variable": "pressure",
            "basis": "z",
            "g": "2.0",
            "tool_version": "0.1.0",
            "pressure_table": "data/pressure_j_synthetic.csv",
            "t_kelvin": "2.0",
            "b_tesla": "0.0",
        },
    )


def fit_table():
    """Shaped like `coherence_series`: NaN rows flagged unphysical."""
    nan = math.nan
    values = np.array([
        [2.0, 0.4401234567890123, 0.43845614325231217, 0.0016673135367001],
        [12.5, nan, 0.05123498765432101, nan],
        [50.0, 0.01203, 0.011998765432100001, 3.1234567899999e-05],
        [125.0, nan, 0.00478812, nan],
        [350.0, 0.0017, 0.0017088888888888889, -8.888888888888889e-06],
    ])
    return SweepTable(
        column_names=("T_kelvin", "C_experimental", "C_theoretical", "residual"),
        values=values,
        annotations={"flag": ("", "unphysical", "", "unphysical", "")},
        metadata={
            "sample_id": "Cu2_sample_A",
            "j_over_kb": "-2.8600000000000003",
            "g": "2.0000000000000004",
            "rss": "1.2345678901234567e-08",
            "tool_version": "0.1.0",
        },
    )


def edge_table():
    """-inf in a flagged row, extreme magnitudes, quoted/non-ASCII text."""
    values = np.array([
        [1e-300, 5e300, -0.0, 1e16],
        [-np.inf, 0.1, 123456789.123, 1e-05],
        [5e-324, -1.7976931348623157e308, 2.0, 0.30000000000000004],
    ])
    return SweepTable(
        column_names=("x", "Z", "\u0394_kelvin", "a b"),
        values=values,
        annotations={
            "flag": ("", "overflow", ""),
            "note": ('say "hi"', "caf\u00e9 \u2014 Cu\u2082", "back\\slash"),
        },
        metadata={
            "quoted": 'a "quoted" value',
            "non_ascii": "Cu\u2082 dimer \u2014 \u00b5_B",
            "backslash": "C:\\data\\run",
            "empty": "",
            "tab": "a\tb",
        },
    )


TABLES = {"pressure": pressure_table, "fit": fit_table, "edge": edge_table}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(TABLES))
def test_render_matches_golden_bytes(name, fmt):
    expected = (DATA / f"golden_{name}.{fmt}").read_bytes()
    rendered = render_table(TABLES[name](), fmt, timestamp=TIMESTAMP)
    assert rendered.encode("utf-8") == expected


def _json_dumps_reference(table, timestamp):
    """The JSON layout spelled out through the stdlib encoder."""
    meta = dict(table.metadata)
    meta["timestamp"] = timestamp
    payload = {
        "metadata": meta,
        "column_order": list(table.column_names),
        "columns": {
            name: [
                float(v) if math.isfinite(v) else None
                for v in table.column(name)
            ]
            for name in table.column_names
        },
        "annotation_order": list(table.annotations),
        "annotations": {k: list(v) for k, v in table.annotations.items()},
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "table",
    [
        SweepTable(("a", "b"), np.empty((0, 2)), {"flag": ()}, {}),
        SweepTable(("a",), np.array([[1.5], [np.nan]]), {"flag": ("", "x")}, {}),
        SweepTable((), np.empty((2, 0)), {"label": ("p", "q")}, {"k": "v"}),
        SweepTable(("t",), np.array([[np.inf], [-np.inf]]), {"flag": ("u", "v")}, {}),
    ],
    ids=["no-rows", "nan", "no-columns", "infinities"],
)
def test_json_layout_matches_stdlib_encoder(table):
    assert render_table(table, "json", timestamp="T0") == _json_dumps_reference(
        table, "T0"
    )


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(TABLES))
def test_golden_metadata_reads_back_exactly(name, fmt):
    # The edge table holds an empty value, whose CSV line `# empty = ` ends
    # in the separator's trailing space.
    reader = read_table_csv if fmt == "csv" else read_table_json
    back = reader(DATA / f"golden_{name}.{fmt}")
    assert back.metadata == {**TABLES[name]().metadata, "timestamp": TIMESTAMP}
