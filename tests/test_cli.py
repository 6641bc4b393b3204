"""Exit-code contract and output plumbing of the command-line interface."""

import argparse
import io
import json
import os
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

from spindimer import (
    Basis,
    DimerParams,
    PressureTable,
    SweepSpec,
    SweepVariable,
    bleaney_bowers_chi,
    critical_field,
    read_table_csv,
    read_table_json,
    run_sweep,
)
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


def test_fit_overflowing_g_exit_4(tmp_path, capsys):
    csv = write_series_csv(tmp_path / "sample.csv")
    code = main(["fit", str(csv), "--init-j", "-2", "--init-g", "1e160"])
    assert code == 4
    err = capsys.readouterr().err
    assert err == "error: susceptibility overflows at g = 1e+160\n"


@pytest.mark.parametrize("init_g", ["1e140", "1e150"])
def test_fit_overflowing_products_exit_4_on_one_line(capsys, init_g):
    # chi is finite at this g, but rss and the normal equations overflow.
    csv = Path(__file__).parent / "data" / "chi_stall_317.csv"
    code = main(["fit", str(csv), "--init-j", "-2", "--init-g", init_g])
    assert code == 4
    assert capsys.readouterr().err == "error: degenerate fit\n"


# A file name that is not UTF-8 decodes to a lone surrogate, which no table
# format can write.
UNDECODABLE = os.fsdecode(b"a\xffb")


@pytest.mark.parametrize("stem", ["a\nb", "a\x1cb", "a\u2028b", UNDECODABLE])
def test_fit_refuses_a_sample_id_with_a_line_break(tmp_path, capsys, stem):
    try:
        csv = write_series_csv(tmp_path / f"{stem}.csv")
    except (OSError, UnicodeEncodeError):
        pytest.skip("the filesystem refuses this file name")
    cause = "UTF-8" if stem == UNDECODABLE else "line breaks"
    for fmt in ("csv", "json"):
        out_file = tmp_path / f"coherence.{fmt}"
        code = main(["fit", str(csv), "--format", fmt, "--out", str(out_file)])
        assert code == 2
        # The table is refused before any fit line is printed.
        captured = capsys.readouterr()
        assert captured.out == ""
        assert cause in captured.err
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


@pytest.mark.parametrize("rows", ["", "0.0,-2.86\n"])
def test_pressure_sweep_short_table_exit_3(tmp_path, capsys, rows):
    jp = tmp_path / "jp.csv"
    jp.write_text("P_GPa,J_kelvin\n" + rows)
    code = main(
        ["sweep", "pressure", "--p-min", "0", "--p-max", "10", "--p-steps", "5",
         "--pressure-table", str(jp), "--t-kelvin", "2.0"]
    )
    assert code == 3
    n = rows.count("\n")
    assert capsys.readouterr().err == (
        f"error: need at least 2 rows to interpolate, got {n}\n"
    )


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


# --- every sweep leaf against the library -----------------------------------

PRESSURE_CSV = Path(__file__).parent.parent / "data" / "pressure_j_synthetic.csv"
TEMP = ["sweep", "temp", "--t-min", "2", "--t-max", "20", "--t-steps", "5",
        "--j-kelvin", "-2.86"]
FIELD = ["sweep", "field", "--b-min", "0", "--b-max", "5", "--b-steps", "5",
         "--t-kelvin", "0.5", "--j-kelvin", "-2.86"]
FIELD_OE = ["sweep", "field", "--b-min", "0", "--b-max", "5e4", "--b-steps", "5",
            "--field-unit", "oe", "--t-kelvin", "0.5", "--j-kelvin", "-2.86"]
PRESSURE = ["sweep", "pressure", "--p-min", "0", "--p-max", "8", "--p-steps", "5",
            "--pressure-table", str(PRESSURE_CSV), "--t-kelvin", "2"]


def test_pressure_sweep_reads_its_table_before_checking_the_range(capsys):
    # min > max is a usage error, but a range outside the table is found first.
    assert main(PRESSURE + ["--p-min", "-5", "--p-max", "-10"]) == 3
    assert "extrapolation refused" in capsys.readouterr().err


@pytest.mark.parametrize("basis", ["z", "x"])
@pytest.mark.parametrize(
    "argv, variable, lo, hi, t, b",
    [
        (TEMP, SweepVariable.TEMPERATURE, 2.0, 20.0, 1.0, 0.0),
        (TEMP + ["--b-tesla", "1"], SweepVariable.TEMPERATURE, 2.0, 20.0, 1.0, 1.0),
        (TEMP + ["--b-tesla", "-0.0"], SweepVariable.TEMPERATURE, 2.0, 20.0, 1.0, -0.0),
        (TEMP + ["--b-oe", "1e4"], SweepVariable.TEMPERATURE, 2.0, 20.0, 1.0, 1.0),
        (FIELD, SweepVariable.FIELD, 0.0, 5.0, 0.5, 0.0),
        (FIELD_OE, SweepVariable.FIELD, 0.0, 5.0, 0.5, 0.0),
        (PRESSURE, SweepVariable.PRESSURE, 0.0, 8.0, 2.0, 0.0),
        (PRESSURE + ["--b-tesla", "1"], SweepVariable.PRESSURE, 0.0, 8.0, 2.0, 1.0),
        (PRESSURE + ["--b-oe", "1e4"], SweepVariable.PRESSURE, 0.0, 8.0, 2.0, 1.0),
    ],
)
def test_every_sweep_leaf_emits_the_library_table(
    tmp_path, capsys, argv, variable, lo, hi, t, b, basis
):
    out_file = tmp_path / "table.csv"
    assert main(argv + ["--basis", basis, "--out", str(out_file)]) == 0
    emitted = read_table_csv(out_file)
    spec = SweepSpec(variable, lo, hi, 5, DimerParams(-2.86, 2.0, t, b), Basis(basis))
    pressures = None
    if variable is SweepVariable.PRESSURE:
        pressures = PressureTable.from_csv(str(PRESSURE_CSV))
    expected = run_sweep(spec, pressures)
    assert emitted.column_names == expected.column_names
    assert emitted.values.shape == expected.values.shape
    assert emitted.values.tobytes() == expected.values.tobytes()
    assert emitted.annotations == expected.annotations
    assert emitted.metadata.pop("timestamp")
    assert emitted.metadata == expected.metadata


@pytest.mark.parametrize(
    "leaf, flags",
    [
        ("temp", ["--t-min T_MIN", "--t-max T_MAX", "--t-steps T_STEPS"]),
        ("field", ["--b-min B_MIN", "--b-max B_MAX", "--b-steps B_STEPS"]),
        ("pressure", ["--p-min P_MIN", "--p-max P_MAX", "--p-steps P_STEPS"]),
    ],
)
def test_sweep_leaf_help_names_each_range_flag(capsys, leaf, flags):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", leaf, "-h"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    for flag in flags:
        assert f"\n  {flag}" in out


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


# --- negative numbers in exponent form --------------------------------------

@pytest.mark.parametrize("value", ["-2.5e3", "-1e-05", "-2.5E+3", "-.5e1"])
def test_negative_exponent_parses_as_a_value(capsys, value):
    assert main(["critical-field", "--j-kelvin", value]) == 0
    spaced = capsys.readouterr()
    assert main(["critical-field", f"--j-kelvin={value}"]) == 0
    assert capsys.readouterr() == spaced
    assert f"B_c = {critical_field(float(value), 2.0).tesla!r} T" in spaced.out


SWEEP_NEGATIVE_J = ["sweep", "temp", "--t-min", "1e3", "--t-max", "2e3",
                    "--t-steps", "3", "--j-kelvin", "-2.5e3"]


def test_negative_exponent_parses_through_the_full_tree(monkeypatch, capsys):
    _fresh_parser(monkeypatch)
    assert main(SWEEP_NEGATIVE_J) == 0
    leaf = _table_text(capsys)
    monkeypatch.setattr(cli, "_leaves", {})
    assert main(SWEEP_NEGATIVE_J) == 0
    assert _table_text(capsys) == leaf
    assert "# j_over_kb = -2500.0" in leaf


def test_negative_exponent_before_an_unknown_flag_reports_the_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(SWEEP_NEGATIVE_J + ["--bogus"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: spindimer [-h] [--version]")
    assert err.endswith("spindimer: error: unrecognized arguments: --bogus\n")


@pytest.mark.parametrize("argv", [["-2.5e3"], ["sweep", "-2.5e3"]])
def test_negative_exponent_is_a_value_above_the_leaves(capsys, argv):
    with pytest.raises(SystemExit):
        main(argv)
    assert "invalid choice: '-2.5e3'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, number",
    [("-1", True), ("-1.5", True), ("-.5", True), ("-1.", True), ("-1e-05", True),
     ("-2.5E+3", True), ("-1.e5", True), ("-e5", False), ("-1e", False),
     ("-1e+", False), ("-inf", False), ("-nan", False), ("--1", False),
     ("-1.5.2", False), ("-x", False)],
)
def test_negative_number_pattern(text, number):
    assert bool(cli._NEGATIVE_NUMBER.match(text)) is number


def test_argparse_still_reads_the_negative_number_matcher():
    # `_Parser` replaces this private attribute; if argparse dropped it, the
    # replacement would be ignored and exponents would read as options again.
    assert isinstance(argparse.ArgumentParser()._negative_number_matcher, re.Pattern)


# --- parsing at the leaf ----------------------------------------------------

def test_leaf_parsers_come_from_the_one_tree():
    parser = cli.build_parser()
    leaves = cli._leaf_parsers(parser)
    assert sorted(leaves) == [
        ("critical-field",), ("fit",), ("sweep", "field"), ("sweep", "pressure"),
        ("sweep", "temp"),
    ]
    for words, leaf in leaves.items():
        assert leaf.prog == " ".join(["spindimer", *words])


def _base_argvs(tmp_path):
    csv = write_series_csv(tmp_path / "sample.csv")
    table = tmp_path / "jp.csv"
    table.write_text("P_GPa,J_kelvin\n0.0,-2.86\n10.0,1.0\n")
    return [
        ["sweep", "temp", "--t-min", "0.5", "--t-max", "20", "--t-steps", "4",
         "--j-kelvin", "-2.86", "--g", "2.1", "--basis", "x", "--b-tesla", "0.5",
         "--format", "json"],
        ["sweep", "temp", "--t-min", "1e-3", "--t-max", "2", "--t-steps", "3",
         "--j-kelvin", "-1e-05", "--b-oe", "1e4"],
        ["sweep", "field", "--b-min", "0", "--b-max", "5e4", "--b-steps", "4",
         "--field-unit", "oe", "--t-kelvin", "0.5", "--j-kelvin", "-2.5E+1",
         "--basis", "x"],
        ["sweep", "pressure", "--p-min", "0", "--p-max", "10", "--p-steps", "5",
         "--pressure-table", str(table), "--t-kelvin", "2.0", "--b-tesla", "1",
         "--format", "csv"],
        ["fit", str(csv), "--unit", "emu", "--init-j", "-2", "--init-g", "2.1"],
        ["critical-field", "--j-kelvin", "-2.86", "--g", "2.0"],
    ]


def _mutations(argv, rng):
    """argv with flags dropped, repeated, added, abbreviated and mistyped,
    and values made invalid."""
    flags = [i for i, a in enumerate(argv) if a.startswith("--")]
    out = []
    for _ in range(6):
        i = rng.choice(flags)
        flag = argv[i]
        k = rng.randrange(1, len(argv) + 1)
        out += [
            argv[:i] + argv[i + 2:],
            argv[:i] + argv[i + 1:],
            argv + argv[i:i + 2],
            argv[:k] + [rng.choice(["--bogus", "--bogus=1", "-x", "x", "-1e5"])]
            + argv[k:],
            argv[:i] + [flag[:rng.randrange(3, max(len(flag), 4))]] + argv[i + 1:],
            argv[:i] + [flag.replace("-", "_", 1) if rng.random() < 0.5
                        else flag[:-1] + "q"] + argv[i + 1:],
            argv[:i + 1] + [rng.choice(["nan", "-inf", "1e999", "x", "", "--"])]
            + argv[i + 2:],
        ]
    return out


def _levels_of(argv):
    words = argv[: 2 if argv[0] == "sweep" else 1]
    return [words[:n] for n in range(len(words) + 1)]


def _outcome(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    text = "".join(l for l in out.getvalue().splitlines(True) if "timestamp" not in l)
    return code, text, err.getvalue()


def _namespace(parse, argv):
    """The parsed arguments, sorted and as text so that NaN equals NaN, or
    None where parsing exits."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return repr(sorted(vars(parse(argv)).items()))
        except SystemExit:
            return None


def test_leaf_and_full_tree_parse_alike(monkeypatch, tmp_path):
    rng = random.Random(20191)
    argvs = [[], ["bogus"], ["sweep", "bogus"], ["sweep"], ["--bogus"]]
    for base in _base_argvs(tmp_path):
        argvs.append(base)
        argvs += _mutations(base, rng)
        for words in _levels_of(base):
            argvs += [words + ["-h"], words + ["--version"], words + ["--vers"]]
        argvs.append(base + ["-h"])
    parser = cli.build_parser()
    leaves = cli._leaf_parsers(parser)
    monkeypatch.setattr(cli, "_parser", parser)
    codes = []
    for argv in argvs:
        monkeypatch.setattr(cli, "_leaves", {})
        tree = _outcome(argv)
        monkeypatch.setattr(cli, "_leaves", leaves)
        assert _outcome(argv) == tree, argv
        assert _namespace(cli._parse, argv) == _namespace(parser.parse_args, argv)
        codes.append((tree[0], tuple(argv[:2]) in leaves or tuple(argv[:1]) in leaves))
    # Both routes ran: requests that reached a leaf and succeeded, and
    # usage errors, help and version from every level.
    assert {(0, True), (2, True), (2, False), (0, False)} <= set(codes)
    assert len(argvs) > 300
