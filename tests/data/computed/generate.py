"""Write the computed-output fixtures in this directory.

Each fixture is a table that the package computes, rendered as CSV at a
fixed timestamp: temperature, field and pressure sweeps in both bases, and
the coherence tables of the two `chi_stall_*` fits. `tests/test_computed.py`
rebuilds every table from `CASES` and compares it with its file, so a change
to what `run_sweep` or `coherence_series` computes shows up as a failing
test rather than as a diff nobody looks at.

Regenerate only when computed output changes on purpose, and say which
cells moved and by how much:

    PYTHONPATH=src python tests/data/computed/generate.py
"""

from pathlib import Path

from spindimer import (
    Basis,
    DimerParams,
    PressureTable,
    SweepSpec,
    SweepVariable,
    coherence_series,
    fit_bleaney_bowers,
    load_series,
    render_table,
    run_sweep,
)

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent.parent
TIMESTAMP = "2026-01-01T00:00:00Z"
ROWS = 64
G = 2.1

# The pressure table is recorded under its repo-relative name, so the
# fixtures do not depend on where the checkout lives.
PRESSURE_CSV = "data/pressure_j_synthetic.csv"


def _pressure_table() -> PressureTable:
    loaded = PressureTable.from_csv(REPO / PRESSURE_CSV)
    return PressureTable(loaded.pressures_gpa, loaded.j_values_kelvin, PRESSURE_CSV)


def _sweep(axis: str, basis: Basis, held: float):
    """One sweep. `held` is J in kelvin for temperature and field sweeps,
    and the held temperature for pressure sweeps, whose J is the table's."""
    if axis == "temp":
        fixed = DimerParams(held, G, temperature=1.0, b_field=1.5)
        spec = SweepSpec(SweepVariable.TEMPERATURE, 0.05, 20.0, ROWS, fixed, basis)
        return run_sweep(spec)
    if axis == "field":
        fixed = DimerParams(held, G, temperature=0.5, b_field=0.0)
        return run_sweep(SweepSpec(SweepVariable.FIELD, 0.0, 8.0, ROWS, fixed, basis))
    table = _pressure_table()
    fixed = DimerParams(-2.86, G, temperature=held, b_field=1.0)
    spec = SweepSpec(SweepVariable.PRESSURE, 0.0, 10.0, ROWS, fixed, basis)
    return run_sweep(spec, table)


def _fit_table(name: str):
    series = load_series(REPO / "tests" / "data" / name)
    return coherence_series(series, fit_bleaney_bowers(series))


def _cases() -> dict:
    cases = {}
    for basis in (Basis.SZ, Basis.SX):
        for axis, held_values, tag in (
            ("temp", (-2.86, 1.3), "j"),
            ("field", (-2.86, 1.3), "j"),
            ("pressure", (0.5, 5.0), "t"),
        ):
            for held in held_values:
                name = f"sweep_{axis}_{basis.value}_{tag}{held:+g}.csv"
                cases[name] = (lambda a=axis, b=basis, h=held: _sweep(a, b, h))
    for stall in ("chi_stall_71.csv", "chi_stall_317.csv"):
        cases[f"fit_{stall}"] = (lambda s=stall: _fit_table(s))
    return cases


# File name -> zero-argument builder of the table that file holds.
CASES = _cases()


def main() -> None:
    for name, build in CASES.items():
        text = render_table(build(), "csv", timestamp=TIMESTAMP)
        (HERE / name).write_text(text, encoding="utf-8")
        print(f"wrote {name}: {text.count(chr(10))} lines")


if __name__ == "__main__":
    main()
