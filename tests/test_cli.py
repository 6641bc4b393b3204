"""Exit-code contract and output plumbing of the command-line interface."""

import json

import numpy as np
import pytest

from spindimer import bleaney_bowers_chi, read_table_csv, read_table_json
from spindimer.cli import OUT_DIR_ENV, main
import spindimer.cli as cli
import spindimer.fitting as fitting


def write_series_csv(path, j=-2.86, g=2.0):
    temps = np.linspace(2.0, 350.0, 50)
    lines = ["T_kelvin,chi"] + [
        f"{float(t)!r},{bleaney_bowers_chi(j, g, float(t)).chi!r}" for t in temps
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


def test_critical_field_success(capsys):
    assert main(["critical-field", "--j-kelvin", "-2.86", "--g", "2.0"]) == 0
    out = capsys.readouterr().out
    oe_line = [l for l in out.splitlines() if l.endswith("Oe")][0]
    value = float(oe_line.split("=")[1].split()[0])
    assert value == pytest.approx(21288.828169592736, rel=1e-12)


def test_critical_field_data_error_exit_3(capsys):
    assert main(["critical-field", "--j-kelvin", "1.5"]) == 3
    assert "no level crossing" in capsys.readouterr().err


def test_critical_field_zero_g_exit_2(capsys):
    assert main(["critical-field", "--j-kelvin", "-2.86", "--g", "0"]) == 2
    assert "g must be > 0" in capsys.readouterr().err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["critical-field"])  # missing required --j-kelvin
    assert exc.value.code == 2


def test_bad_range_exit_2(capsys):
    code = main(
        ["sweep", "temp", "--t-min", "10", "--t-max", "2", "--t-steps", "5",
         "--j-kelvin", "-2.86"]
    )
    assert code == 2
    assert "usage error" in capsys.readouterr().err


def test_oversized_grid_refused_exit_2(capsys):
    code = main(
        ["sweep", "temp", "--t-min", "1", "--t-max", "2", "--t-steps",
         "1000000000", "--j-kelvin", "-2.86"]
    )
    assert code == 2
    assert "at most" in capsys.readouterr().err


def test_critical_field_above_100_tesla(capsys):
    assert main(["critical-field", "--j-kelvin", "-300"]) == 0
    assert "B_c = 223.3" in capsys.readouterr().out


def test_numeric_failure_exit_4(capsys):
    code = main(
        ["sweep", "temp", "--t-min", "1e-7", "--t-max", "1", "--t-steps", "3",
         "--j-kelvin", "-2.86"]
    )
    assert code == 4
    assert "temperature underflow" in capsys.readouterr().err


def test_missing_file_exit_3(tmp_path, capsys):
    assert main(["fit", str(tmp_path / "nope.csv")]) == 3
    assert "nope.csv" in capsys.readouterr().err


def test_version_prints_constants(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "k_B" in out and "1.380649e-23" in out


def test_sweep_temp_stdout_csv(capsys):
    code = main(
        ["sweep", "temp", "--t-min", "2", "--t-max", "350", "--t-steps", "5",
         "--j-kelvin", "-2.86"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "T_kelvin,C_z,C_oracle,Z,ground_state" in out
    assert "# variable = temperature" in out


def test_sweep_field_oersted_range(tmp_path, capsys):
    out_file = tmp_path / "field.csv"
    code = main(
        ["sweep", "field", "--b-min", "0", "--b-max", "50000", "--b-steps", "3",
         "--field-unit", "oe", "--t-kelvin", "0.05", "--j-kelvin", "-2.86",
         "--basis", "x", "--out", str(out_file)]
    )
    assert code == 0
    table = read_table_csv(out_file)
    np.testing.assert_allclose(table.column("B_tesla"), [0.0, 2.5, 5.0], atol=1e-15)
    assert table.column_names[1] == "C_x"
    assert table.column("C_x")[-1] > 2.9


def test_out_dir_env_resolves_relative_paths(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    code = main(
        ["sweep", "temp", "--t-min", "2", "--t-max", "10", "--t-steps", "3",
         "--j-kelvin", "-2.86", "--out", "rel.csv", "--format", "json"]
    )
    assert code == 0
    written = tmp_path / "rel.csv"
    assert written.exists()
    payload = json.loads(written.read_text())
    assert payload["metadata"]["variable"] == "temperature"


def test_fit_subcommand_reports_parameters(tmp_path, capsys):
    csv = write_series_csv(tmp_path / "sample.csv")
    assert main(["fit", str(csv)]) == 0
    out = capsys.readouterr().out
    j_line = [l for l in out.splitlines() if l.startswith("J/k_B")][0]
    assert float(j_line.split("=")[1].split()[0]) == pytest.approx(-2.86, abs=1e-8)


def test_fit_subcommand_writes_coherence_table(tmp_path):
    csv = write_series_csv(tmp_path / "sample.csv")
    out_file = tmp_path / "coherence.json"
    code = main(["fit", str(csv), "--format", "json", "--out", str(out_file)])
    assert code == 0
    table = read_table_json(out_file)
    assert table.column_names == (
        "T_kelvin", "C_experimental", "C_theoretical", "residual"
    )
    assert np.abs(table.column("residual")).max() < 1e-10


def test_fit_unconverged_exit_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
    csv = write_series_csv(tmp_path / "sample.csv")
    code = main(["fit", str(csv), "--init-j", "-1.0", "--init-g", "2.3"])
    assert code == 4
    assert "converge" in capsys.readouterr().err


@pytest.mark.parametrize("stem", ["a\nb", "a\x1cb", "a\u2028b"])
def test_fit_refuses_a_sample_id_with_a_line_break(tmp_path, capsys, stem):
    csv = write_series_csv(tmp_path / f"{stem}.csv")
    out_file = tmp_path / "coherence.csv"
    assert main(["fit", str(csv), "--out", str(out_file)]) == 2
    assert "line breaks" in capsys.readouterr().err
    assert not out_file.exists()


def test_fit_malformed_csv_exit_3(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("temperature,chi\n2.0,0.1\n")
    assert main(["fit", str(bad)]) == 3
    assert "malformed header" in capsys.readouterr().err


def test_fit_undecodable_csv_exit_3(tmp_path, capsys):
    bad = tmp_path / "latin1.csv"
    bad.write_bytes(b"# caf\xe9\nT_kelvin,chi\n2.0,0.1\n")
    assert main(["fit", str(bad)]) == 3
    assert "cannot decode" in capsys.readouterr().err


def test_pressure_sweep_undecodable_table_exit_3(tmp_path, capsys):
    jp = tmp_path / "jp.csv"
    jp.write_bytes(b"# caf\xe9\nP_GPa,J_kelvin\n0.0,-2.86\n10.0,1.0\n")
    code = main(
        ["sweep", "pressure", "--p-min", "0", "--p-max", "10", "--p-steps", "5",
         "--pressure-table", str(jp), "--t-kelvin", "2.0"]
    )
    assert code == 3
    assert "cannot decode" in capsys.readouterr().err


def test_pressure_sweep_end_to_end(tmp_path):
    jp = tmp_path / "jp.csv"
    jp.write_text("P_GPa,J_kelvin\n0.0,-2.86\n10.0,1.0\n")
    out_file = tmp_path / "p.csv"
    code = main(
        ["sweep", "pressure", "--p-min", "0", "--p-max", "10", "--p-steps", "5",
         "--pressure-table", str(jp), "--t-kelvin", "2.0", "--out", str(out_file)]
    )
    assert code == 0
    table = read_table_csv(out_file)
    assert "J_kelvin" in table.column_names
    assert table.annotations["regime"][0] == "antiferromagnetic"
    assert table.annotations["regime"][-1] == "ferromagnetic"


def test_pressure_sweep_out_of_range_exit_3(tmp_path, capsys):
    jp = tmp_path / "jp.csv"
    jp.write_text("P_GPa,J_kelvin\n0.0,-2.86\n10.0,1.0\n")
    code = main(
        ["sweep", "pressure", "--p-min", "0", "--p-max", "12", "--p-steps", "5",
         "--pressure-table", str(jp), "--t-kelvin", "2.0"]
    )
    assert code == 3
    assert "extrapolation refused" in capsys.readouterr().err


# --- one parser per process -------------------------------------------------

TEMP_SWEEP = ["sweep", "temp", "--t-min", "0.5", "--t-max", "20", "--t-steps", "6",
              "--j-kelvin", "-2.86"]


def _table_text(capsys):
    """Captured stdout without the timestamp line, which moves per call."""
    out = capsys.readouterr().out
    return [l for l in out.splitlines() if "timestamp" not in l]


def _fresh_parser(monkeypatch):
    """Drop the cached parser, as a new process starts without one."""
    monkeypatch.setattr(cli, "_parser", None)


def test_main_builds_the_parser_once(monkeypatch, capsys, tmp_path):
    _fresh_parser(monkeypatch)
    calls = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real())
    csv = write_series_csv(tmp_path / "sample.csv")
    for argv in (TEMP_SWEEP, ["critical-field", "--j-kelvin", "-2.86"],
                 ["fit", str(csv)], TEMP_SWEEP + ["--basis", "x"]) * 3:
        assert main(argv) == 0
    assert len(calls) == 1


def test_reused_parser_does_not_carry_a_field_over(monkeypatch, capsys):
    _fresh_parser(monkeypatch)
    assert main(TEMP_SWEEP) == 0
    zero_field = _table_text(capsys)
    assert "# b_tesla = 0.0" in zero_field

    assert main(TEMP_SWEEP + ["--b-oe", "5000"]) == 0
    with_field = _table_text(capsys)
    assert "# b_tesla = 0.5" in with_field
    assert main(TEMP_SWEEP) == 0
    assert _table_text(capsys) == zero_field

    _fresh_parser(monkeypatch)
    assert main(TEMP_SWEEP + ["--b-oe", "5000"]) == 0
    assert _table_text(capsys) == with_field


def test_usage_error_and_version_leave_the_parser_as_it_was(monkeypatch, capsys):
    _fresh_parser(monkeypatch)
    assert main(TEMP_SWEEP + ["--format", "json"]) == 0
    before = _table_text(capsys)
    with pytest.raises(SystemExit) as exc:
        main(TEMP_SWEEP + ["--b-oe", "1", "--b-tesla", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "temp", "--t-min", "x"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    capsys.readouterr()
    assert main(TEMP_SWEEP + ["--format", "json"]) == 0
    assert _table_text(capsys) == before
