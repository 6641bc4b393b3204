"""Generate the headline coherence curves and print sanity summaries.

Writes four sweep tables (temperature family over pressure, longitudinal
and transverse field scans, and a zero-field temperature scan) into an
output directory, then prints the qualitative features each one should
show. Everything goes through the public library API.
"""

import argparse
from pathlib import Path

import numpy as np

from spindimer import (
    Basis,
    DimerParams,
    PressureTable,
    SweepSpec,
    SweepVariable,
    critical_field,
    emit,
    run_sweep,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
J_AMBIENT = -2.86
G = 2.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="sweep_tables", help="output directory")
    args = parser.parse_args()
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    b_c = critical_field(J_AMBIENT, G)
    print(f"critical field: {b_c.tesla:.6f} T = {b_c.oersted:.2f} Oe")
    print(f"closed form vs oracle: {abs(b_c.tesla - b_c.tesla_oracle):.2e} T")

    # Zero-field temperature scan: C decays from ~0.44 at 2 K.
    spec = SweepSpec(
        SweepVariable.TEMPERATURE, 2.0, 350.0, 200,
        DimerParams(J_AMBIENT, G, 1.0, 0.0), Basis.SZ,
    )
    table = run_sweep(spec)
    emit(table, "csv", out / "temperature_zero_field.csv")
    c = table.column("C_z")
    print(f"zero field: C(2 K) = {c[0]:.4f}, C(350 K) = {c[-1]:.5f}, "
          f"monotone decay: {bool(np.all(np.diff(c) < 0))}")

    # Pressure family: one temperature curve per pressure node.
    pressure_table = PressureTable.from_csv(
        REPO_ROOT / "data" / "pressure_j_synthetic.csv"
    )
    spec = SweepSpec(
        SweepVariable.PRESSURE, 0.0, 10.0, 6,
        DimerParams(J_AMBIENT, G, 2.0, 0.0), Basis.SZ,
    )
    table = run_sweep(spec, pressure_table)
    emit(table, "csv", out / "pressure_scan_2K.csv")
    regimes = table.annotations["regime"]
    print(f"pressure scan at 2 K: J from {table.column('J_kelvin')[0]:.2f} to "
          f"{table.column('J_kelvin')[-1]:.2f} K, regimes {regimes[0]} -> {regimes[-1]}")

    # Field scans at 50 mK: abrupt S_z drop, S_x saturation toward 3.
    for basis, name in ((Basis.SZ, "field_scan_sz.csv"), (Basis.SX, "field_scan_sx.csv")):
        spec = SweepSpec(
            SweepVariable.FIELD, 0.0, 5.0, 250, DimerParams(J_AMBIENT, G, 0.05, 0.0),
            basis,
        )
        table = run_sweep(spec)
        emit(table, "csv", out / name)
        col = table.column_names[1]
        values = table.column(col)
        print(f"{col} at 0.05 K: starts {values[0]:.4f}, ends {values[-1]:.4f} "
              f"(crossing at {b_c.tesla:.3f} T)")

    print(f"tables written to {out}/")


if __name__ == "__main__":
    main()
