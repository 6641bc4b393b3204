"""Sweep grids, pressure interpolation, and table serialization."""

import numpy as np
import pytest

from spindimer import (
    Basis,
    DataError,
    DimerParams,
    NumericError,
    PressureTable,
    SweepSpec,
    SweepTable,
    SweepVariable,
    build_hamiltonian,
    critical_field,
    emit,
    gibbs_state,
    l1_coherence,
    pressure_to_j,
    read_table_csv,
    read_table_json,
    render_table,
    rotate_to_sx,
    run_sweep,
)

FIXED = DimerParams(-2.86, 2.0, 1.0, 0.0)


def temp_spec(t_min=2.0, t_max=350.0, steps=100, fixed=FIXED, basis=Basis.SZ):
    return SweepSpec(SweepVariable.TEMPERATURE, t_min, t_max, steps, fixed, basis)


# --- spec validation --------------------------------------------------------

def test_spec_rejects_bad_ranges():
    with pytest.raises(ValueError):
        temp_spec(t_min=5.0, t_max=5.0)
    with pytest.raises(ValueError):
        temp_spec(t_min=10.0, t_max=5.0)
    with pytest.raises(ValueError):
        temp_spec(steps=1)
    with pytest.raises(ValueError):
        temp_spec(t_min=0.0)


def test_spec_ties_field_variable_to_basis():
    with pytest.raises(ValueError):
        SweepSpec(SweepVariable.FIELD_LONGITUDINAL, 0.0, 5.0, 10, FIXED, Basis.SX)
    with pytest.raises(ValueError):
        SweepSpec(SweepVariable.FIELD_TRANSVERSE, 0.0, 5.0, 10, FIXED, Basis.SZ)
    with pytest.raises(ValueError):
        SweepSpec(SweepVariable.FIELD_LONGITUDINAL, -1.0, 5.0, 10, FIXED, Basis.SZ)


# --- pressure table ---------------------------------------------------------

def test_pressure_table_validation():
    with pytest.raises(DataError, match="pressures not increasing"):
        PressureTable((0.0, 2.0, 1.0), (-2.0, -1.0, 0.0))
    with pytest.raises(ValueError):
        PressureTable((0.0,), (-2.0,))
    with pytest.raises(ValueError):
        PressureTable((0.0, 1.0), (-2.0,))


def test_pressure_table_from_csv(tmp_path):
    path = tmp_path / "jp.csv"
    path.write_text(
        "# synthetic J(P) nodes\nP_GPa,J_kelvin\n0.0,-2.86\n2.0,-1.5\n4.0,0.5\n"
    )
    table = PressureTable.from_csv(path)
    assert table.pressures_gpa.tolist() == [0.0, 2.0, 4.0]
    assert table.j_values_kelvin.tolist() == [-2.86, -1.5, 0.5]
    assert table.source == str(path)


def test_pressure_table_holds_read_only_float_arrays():
    table = PressureTable((0, 2, 4), [-2.86, -1.5, 0.5])
    for column in (table.pressures_gpa, table.j_values_kelvin):
        assert isinstance(column, np.ndarray) and column.dtype == float
        assert not column.flags.writeable
    assert table == table and table in {table}
    with pytest.raises(ValueError, match="must be finite"):
        PressureTable((0.0, 1.0), (-2.0, np.nan))
    with pytest.raises(ValueError, match="must be finite"):
        PressureTable((0.0, np.inf), (-2.0, -1.0))
    with pytest.raises(DataError, match="pressures not increasing"):
        PressureTable(np.array([0.0, 1.0, 1.0]), np.array([-2.0, -1.0, 0.0]))


def test_pressure_table_csv_errors(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("pressure,J\n0,1\n1,2\n")
    with pytest.raises(DataError, match="malformed header"):
        PressureTable.from_csv(bad_header)

    bad_row = tmp_path / "b.csv"
    bad_row.write_text("P_GPa,J_kelvin\n0.0,-2.0\nxyz,-1.0\n")
    with pytest.raises(DataError, match="row 2"):
        PressureTable.from_csv(bad_row)


def test_pressure_interpolation_nodes_and_midpoints():
    table = PressureTable((0.0, 2.0, 4.0), (-2.86, -1.5, 0.5))
    assert pressure_to_j(table, 0.0) == -2.86
    assert pressure_to_j(table, 2.0) == -1.5
    assert pressure_to_j(table, 4.0) == 0.5
    assert pressure_to_j(table, 1.0) == pytest.approx((-2.86 - 1.5) / 2.0, abs=1e-15)
    assert pressure_to_j(table, 3.0) == pytest.approx((-1.5 + 0.5) / 2.0, abs=1e-15)


def test_pressure_extrapolation_refused():
    table = PressureTable((0.0, 4.0), (-2.86, 0.5))
    with pytest.raises(DataError, match="extrapolation refused"):
        pressure_to_j(table, -0.1)
    with pytest.raises(DataError, match="extrapolation refused"):
        pressure_to_j(table, 4.1)


def test_pressure_sweep_marks_sign_change():
    # J crosses zero linearly at P = 1; the interpolant is exact there.
    table = PressureTable((0.0, 2.0), (-1.0, 1.0))
    assert pressure_to_j(table, 1.0) == 0.0
    spec = SweepSpec(
        SweepVariable.PRESSURE,
        0.0,
        2.0,
        5,
        DimerParams(-1.0, 2.0, 2.0, 0.5),
        Basis.SZ,
    )
    out = run_sweep(spec, table)
    assert out.annotations["regime"] == (
        "antiferromagnetic",
        "antiferromagnetic",
        "uncoupled",
        "ferromagnetic",
        "ferromagnetic",
    )
    np.testing.assert_allclose(
        out.column("J_kelvin"), [-1.0, -0.5, 0.0, 0.5, 1.0], atol=1e-15
    )
    assert out.column("C_z")[2] == 0.0


def test_pressure_sweep_requires_table():
    spec = SweepSpec(SweepVariable.PRESSURE, 0.0, 2.0, 3, FIXED, Basis.SZ)
    with pytest.raises(ValueError):
        run_sweep(spec)


# --- sweep content ----------------------------------------------------------

def test_temperature_sweep_matches_quoted_curve():
    out = run_sweep(temp_spec())
    c = out.column("C_z")
    assert c[0] == pytest.approx(0.4428, abs=1e-4)
    assert c[-1] < 0.01
    assert np.all(np.diff(c) < 0.0)
    assert set(out.annotations["ground_state"]) == {"singlet"}
    assert out.metadata["variable"] == "temperature"


def test_field_sweep_steps_down_in_sz():
    spec = SweepSpec(
        SweepVariable.FIELD_LONGITUDINAL,
        0.0,
        5.0,
        101,
        DimerParams(-2.86, 2.0, 0.05, 0.0),
        Basis.SZ,
    )
    out = run_sweep(spec)
    c = out.column("C_z")
    assert c[0] > 0.999
    assert c[-1] < 1e-6
    assert np.all(np.diff(c) <= 1e-15)
    labels = out.annotations["ground_state"]
    assert labels[0] == "singlet"
    assert labels[-1] == "triplet_plus"


def test_field_sweep_saturates_in_sx():
    spec = SweepSpec(
        SweepVariable.FIELD_TRANSVERSE,
        0.0,
        5.0,
        101,
        DimerParams(-2.86, 2.0, 0.05, 0.0),
        Basis.SX,
    )
    out = run_sweep(spec)
    c = out.column("C_x")
    assert c[0] == pytest.approx(1.0, abs=1e-9)
    assert c[-1] > 2.9
    assert np.all(c >= 0.0) and np.all(c <= 3.0)


def test_ground_state_tie_at_critical_field():
    bc = critical_field(-2.86, 2.0).tesla
    spec = SweepSpec(
        SweepVariable.FIELD_LONGITUDINAL,
        0.0,
        2.0 * bc,
        3,
        DimerParams(-2.86, 2.0, 0.1, 0.0),
        Basis.SZ,
    )
    out = run_sweep(spec)
    assert out.annotations["ground_state"][1] == "singlet+triplet_plus"


def test_stronger_coupling_sustains_more_coherence():
    # On the shipped table's antiferromagnetic nodes, the temperature curve
    # for a larger |J| lies above the weaker-coupling one at every T.
    from pathlib import Path

    table = PressureTable.from_csv(
        Path(__file__).parent.parent / "data" / "pressure_j_synthetic.csv"
    )
    afm = sorted(j for j in table.j_values_kelvin if j < 0.0)
    assert len(afm) >= 2
    curves = [
        run_sweep(temp_spec(fixed=DimerParams(j, 2.0, 1.0, 0.0), steps=40)).column(
            "C_z"
        )
        for j in afm
    ]
    for strong, weak in zip(curves, curves[1:]):
        assert np.all(strong > weak)


def test_sweep_catches_oracle_disagreement(monkeypatch):
    import spindimer.sweep as sweep_module
    from spindimer.quantifiers import CoherenceValue

    def wrong(params):
        return CoherenceValue(np.full_like(params.temperature, 0.123), Basis.SZ)

    monkeypatch.setattr(sweep_module, "coherence_longitudinal", wrong)
    with pytest.raises(NumericError, match="disagree"):
        run_sweep(temp_spec(steps=2))


# --- table type and serialization -------------------------------------------

def _small_table():
    return run_sweep(temp_spec(steps=5))


def test_table_rejects_nonfinite_unflagged():
    with pytest.raises(ValueError, match="unflagged"):
        SweepTable(
            ("a", "b"),
            np.array([[1.0, np.nan]]),
            {"flag": ("",)},
            {},
        )
    # Same row is fine once flagged.
    table = SweepTable(
        ("a", "b"),
        np.array([[1.0, np.nan]]),
        {"flag": ("unphysical",)},
        {},
    )
    assert table.n_rows == 1


@pytest.mark.parametrize(
    "text", ["a\nb", "a\r", "a\x0bb", "a\x1cb", "a\x85b", "a\u2028b", "\n"]
)
def test_table_rejects_line_breaks_in_metadata(text):
    with pytest.raises(ValueError, match="line breaks"):
        SweepTable(("a",), np.array([[1.0]]), {}, {"sample_id": text})
    with pytest.raises(ValueError, match="line breaks"):
        SweepTable(("a",), np.array([[1.0]]), {}, {text: "x"})


@pytest.mark.parametrize("key", ["x = y", " = ", "x =", "a = b = c"])
def test_table_rejects_separator_in_metadata_key(key):
    with pytest.raises(ValueError, match="' = '"):
        SweepTable(("a",), np.array([[1.0]]), {}, {key: "v"})


def test_csv_metadata_keeps_whitespace_and_separators_in_values(tmp_path):
    metadata = {
        "trailing": "value  ",
        "leading": "  value",
        "tab": "value\t",
        "blank": "   ",
        "empty": "",
        "sep": "a = b",
        "ends": "= ",
        "key =x": "v",
        "key  ": "v",
    }
    table = SweepTable(("a",), np.array([[1.0]]), {}, metadata)
    path = tmp_path / "meta.csv"
    emit(table, "csv", path, timestamp="T0")
    assert read_table_csv(path).metadata == {**metadata, "timestamp": "T0"}


# CSV cannot carry a comma or a line break in a name or an annotation cell:
# `("a,b", "c")` would read back as `("a", "c")`, and a column named "a,b"
# would make `read_table_csv` fail.
CSV_BREAKERS = ["a,b", ",", "a\nb", "a\r", "a\u2028b"]


@pytest.mark.parametrize("text", CSV_BREAKERS)
def test_table_rejects_csv_breakers_in_column_names(text):
    with pytest.raises(ValueError, match="commas or line breaks"):
        SweepTable(("x", text), np.array([[1.0, 2.0]]), {}, {})


@pytest.mark.parametrize("text", CSV_BREAKERS)
def test_table_rejects_csv_breakers_in_annotation_names(text):
    with pytest.raises(ValueError, match="commas or line breaks"):
        SweepTable(("x",), np.array([[1.0], [2.0]]), {text: ("p", "q")}, {})


@pytest.mark.parametrize("text", CSV_BREAKERS)
def test_table_rejects_csv_breakers_in_annotation_cells(text):
    with pytest.raises(ValueError, match="commas or line breaks"):
        SweepTable(("x",), np.array([[1.0], [2.0]]), {"note": (text, "c")}, {})


def test_table_rejects_ragged_annotations():
    with pytest.raises(ValueError):
        SweepTable(("a",), np.array([[1.0], [2.0]]), {"flag": ("",)}, {})


def test_csv_round_trip_is_exact(tmp_path):
    table = _small_table()
    path = tmp_path / "sweep.csv"
    emit(table, "csv", path, timestamp="2026-08-15T00:00:00Z")
    back = read_table_csv(path)
    assert back.column_names == table.column_names
    assert np.array_equal(back.values, table.values)
    assert back.annotations == table.annotations
    assert back.metadata["timestamp"] == "2026-08-15T00:00:00Z"
    for key, value in table.metadata.items():
        assert back.metadata[key] == value


def test_read_table_csv_refuses_undecodable_file(tmp_path):
    path = tmp_path / "latin1.csv"
    path.write_bytes(b"# note = caf\xe9\na,b\n1.0,2.0\n")
    with pytest.raises(DataError, match="cannot decode"):
        read_table_csv(path)


@pytest.mark.parametrize("row", ["3.0", "1.0,2.0,5.0"], ids=["short", "long"])
def test_read_table_csv_refuses_ragged_rows(tmp_path, row):
    path = tmp_path / "ragged.csv"
    path.write_text(f"a,b\n1.0,2.0\n{row}\n")
    with pytest.raises(DataError, match=f"row 2: expected 2 fields, got '{row}'"):
        read_table_csv(path)


def test_tables_compare_by_identity():
    a, b = _small_table(), _small_table()
    assert a == a and a != b
    assert len({a, a, b}) == 2


def test_json_round_trip_is_exact(tmp_path):
    table = _small_table()
    path = tmp_path / "sweep.json"
    emit(table, "json", path, timestamp="2026-08-15T00:00:00Z")
    back = read_table_json(path)
    assert back.column_names == table.column_names
    assert np.array_equal(back.values, table.values)
    assert back.annotations == table.annotations


def test_json_round_trips_flagged_nan(tmp_path):
    table = SweepTable(
        ("t", "c"),
        np.array([[1.0, 0.5], [2.0, np.nan]]),
        {"flag": ("", "unphysical")},
        {"note": "x"},
    )
    for fmt, reader in (("json", read_table_json), ("csv", read_table_csv)):
        path = tmp_path / f"t.{fmt}"
        emit(table, fmt, path, timestamp="T0")
        back = reader(path)
        assert back.values[0, 1] == 0.5
        assert np.isnan(back.values[1, 1])
        assert back.annotations["flag"] == ("", "unphysical")


def test_emission_is_deterministic_modulo_timestamp():
    table = _small_table()
    a = render_table(table, "csv", timestamp="A")
    b = render_table(table, "csv", timestamp="A")
    assert a == b
    c = render_table(table, "csv", timestamp="B")
    strip = lambda text: [
        line for line in text.splitlines() if not line.startswith("# timestamp")
    ]
    assert strip(a) == strip(c)
    assert a != c


def test_render_rejects_unknown_format():
    with pytest.raises(ValueError):
        render_table(_small_table(), "yaml")


# --- one batch per sweep ----------------------------------------------------

def _scalar_oracle(j, g, t, b, basis):
    rho = gibbs_state(build_hamiltonian(DimerParams(j, g, t, b)), t)
    if basis is Basis.SX:
        rho = rotate_to_sx(rho)
    return min(max(l1_coherence(rho).value, 0.0), 3.0)


@pytest.mark.parametrize("basis", [Basis.SZ, Basis.SX])
@pytest.mark.parametrize("variable", ["temperature", "field", "pressure"])
def test_oracle_column_equals_row_by_row_scalar_calls(variable, basis):
    fixed = DimerParams(-2.86, 2.0, 0.3, 1.7)
    table = PressureTable((0.0, 2.0, 4.0), (-2.86, -1.5, 0.5))
    if variable == "temperature":
        spec = SweepSpec(SweepVariable.TEMPERATURE, 0.02, 40.0, 150, fixed, basis)
    elif variable == "field":
        kind = (
            SweepVariable.FIELD_LONGITUDINAL
            if basis is Basis.SZ
            else SweepVariable.FIELD_TRANSVERSE
        )
        spec = SweepSpec(kind, 0.0, 8.0, 150, fixed, basis)
    else:
        spec = SweepSpec(SweepVariable.PRESSURE, 0.0, 4.0, 150, fixed, basis)
    out = run_sweep(spec, table)
    swept = out.values[:, 0]
    j = np.full(150, fixed.j_over_kb)
    if variable == "pressure":
        j = out.column("J_kelvin")
    t = swept if variable == "temperature" else np.full(150, fixed.temperature)
    b = swept if variable == "field" else np.full(150, fixed.b_field)
    rows = [
        _scalar_oracle(float(j[k]), 2.0, float(t[k]), float(b[k]), basis)
        for k in range(150)
    ]
    assert np.array_equal(out.column("C_oracle"), rows)
    if variable == "pressure":
        assert np.array_equal(j, [pressure_to_j(table, float(p)) for p in swept])


def test_sweep_names_first_disagreeing_row(monkeypatch):
    import spindimer.sweep as sweep_module
    from spindimer.quantifiers import CoherenceValue

    real = sweep_module.coherence_longitudinal

    def off_from_row_3(params):
        value = real(params).value.copy()
        value[3:] += 0.5
        return CoherenceValue(value, Basis.SZ)

    monkeypatch.setattr(sweep_module, "coherence_longitudinal", off_from_row_3)
    row_3 = float(np.linspace(2.0, 350.0, 10)[3])
    with pytest.raises(NumericError, match=f"at T_kelvin={row_3!r}:"):
        run_sweep(temp_spec(steps=10))


def test_spec_caps_steps():
    from spindimer.sweep import MAX_STEPS

    temp_spec(steps=MAX_STEPS)
    with pytest.raises(ValueError, match="at most"):
        temp_spec(steps=MAX_STEPS + 1)
