"""Parameter sweeps over temperature, field, and pressure.

Every sweep row carries the closed-form coherence next to a brute-force
oracle value computed by diagonalizing the Hamiltonian; the two must agree
to 1e-10 or the sweep aborts. The whole grid is evaluated as one batch:
one closed-form call and one stacked diagonalization per sweep. A sweep
returns a `SweepTable`; `tables` renders it to CSV or JSON and reads it
back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import compress
from pathlib import Path

import numpy as np

from .constants import TOOL_VERSION
from .core import (
    Basis,
    DimerParams,
    _trusted,
    build_hamiltonian,
    float_or_array,
    gibbs_state,
    rotate_to_sx,
)
from .errors import DataError, NumericError
from .models import (
    ThermalLevels,
    longitudinal_l1,
    partition_from_levels,
    thermal_levels,
    transverse_l1,
)
from .quantifiers import l1_coherence
from .tables import SweepTable, read_two_column_csv

# The benchmark's tracer and worker still look these four up on `sweep`, so
# they stay bound here as the same objects `tables` defines; a wrapper would
# hide the calls that go through `tables` from the tracer.
from .tables import emit, read_table_csv, read_table_json, render_table  # noqa: F401

# Closed form and oracle are independent routes to the same number; beyond
# this gap one of them is wrong.
ORACLE_ATOL = 1e-10

# Largest grid a sweep accepts. A sweep holds its whole working set at once,
# about 744 bytes per row at peak (tracemalloc, 100k-row sweep in either
# basis), so this caps one sweep near 0.75 GB.
MAX_STEPS = 10**6

# Ground-state labels by bitmask over the levels in `level_energies` order;
# exact ties join with '+'.
_LEVEL_ORDER = ("singlet", "triplet_plus", "triplet_zero", "triplet_minus")
_GROUND_LABELS = np.array(
    ["+".join(compress(_LEVEL_ORDER, [m >> k & 1 for k in range(4)]))
     for m in range(16)]
)


class SweepVariable(Enum):
    """Which axis a sweep walks along."""

    TEMPERATURE = "temperature"
    FIELD = "field"
    PRESSURE = "pressure"


@dataclass(frozen=True)
class SweepSpec:
    """A linear grid over one variable with everything else held fixed.

    `fixed` supplies the held parameters; the swept field of it is ignored.
    The field is always along z, so `basis` alone says which coherence a
    sweep reports, C_z or C_x, whatever the variable.
    """

    variable: SweepVariable
    minimum: float
    maximum: float
    steps: int
    fixed: DimerParams
    basis: Basis = Basis.SZ

    def __post_init__(self) -> None:
        if not (math.isfinite(self.minimum) and math.isfinite(self.maximum)):
            raise ValueError("sweep range must be finite")
        if not self.minimum < self.maximum:
            raise ValueError("sweep range must have min < max")
        if self.steps < 2:
            raise ValueError("sweep needs at least 2 steps")
        if self.steps > MAX_STEPS:
            raise ValueError(f"sweep allows at most {MAX_STEPS} steps")
        if self.variable is SweepVariable.TEMPERATURE and self.minimum <= 0.0:
            raise ValueError("temperatures must be > 0 K")
        if self.variable is SweepVariable.FIELD and self.minimum < 0.0:
            raise ValueError("field sweep range must start at B >= 0")


@dataclass(frozen=True, eq=False)
class PressureTable:
    """Tabulated exchange coupling versus hydrostatic pressure, as read-only
    float arrays; compared by identity, since `==` on arrays would raise."""

    pressures_gpa: np.ndarray
    j_values_kelvin: np.ndarray
    source: str = ""

    def __post_init__(self) -> None:
        if len(self.pressures_gpa) != len(self.j_values_kelvin):
            raise ValueError("pressure and J columns differ in length")
        if len(self.pressures_gpa) < 2:
            raise ValueError("need at least 2 rows to interpolate")
        table = np.array([self.pressures_gpa, self.j_values_kelvin], dtype=float)
        if not np.isfinite(table).all():
            raise ValueError("pressure table entries must be finite")
        table.flags.writeable = False
        p, j = table
        if (p[1:] <= p[:-1]).any():
            raise DataError("pressures not increasing")
        object.__setattr__(self, "pressures_gpa", p)
        object.__setattr__(self, "j_values_kelvin", j)

    @classmethod
    def from_csv(cls, path: str | Path) -> "PressureTable":
        """Load `P_GPa,J_kelvin` rows; same dialect as the ingest contract."""
        rows = read_two_column_csv(path, "P_GPa,J_kelvin")
        if len(rows) < 2:
            raise DataError(f"need at least 2 rows to interpolate, got {len(rows)}")
        pressures, j_values = np.array(rows, dtype=float).T
        return cls(pressures, j_values, source=str(path))


def pressure_to_j(
    table: PressureTable, pressure_gpa: float | np.ndarray
) -> float | np.ndarray:
    """Piecewise-linear J/k_B at the given pressure(s); exact at the nodes."""
    lo, hi = table.pressures_gpa[0], table.pressures_gpa[-1]
    p = np.asarray(pressure_gpa, dtype=float)
    outside = ~((lo <= p) & (p <= hi))
    if np.any(outside):
        raise DataError(
            f"extrapolation refused: pressure {np.extract(outside, p)[0]} GPa "
            f"outside [{lo}, {hi}] GPa"
        )
    return float_or_array(np.interp(p, table.pressures_gpa, table.j_values_kelvin))


def _ground_state_labels(levels: ThermalLevels) -> tuple[str, ...]:
    """Name the lowest level(s) of each row; exact ties join with '+'."""
    e_min = levels.e0[..., None]
    tied = levels.energies <= e_min + 1e-12 * np.maximum(1.0, np.abs(e_min))
    return tuple(_GROUND_LABELS[(tied << np.arange(4)).sum(axis=-1)].tolist())


def run_sweep(
    spec: SweepSpec, pressure_table: PressureTable | None = None
) -> SweepTable:
    """Evaluate the grid as one batch; every row is checked closed form vs
    oracle."""
    if spec.variable is SweepVariable.PRESSURE and pressure_table is None:
        raise ValueError("pressure sweep requires a pressure table")
    grid = np.linspace(spec.minimum, spec.maximum, spec.steps)

    c_name = "C_z" if spec.basis is Basis.SZ else "C_x"
    swept_name = {
        SweepVariable.TEMPERATURE: "T_kelvin",
        SweepVariable.FIELD: "B_tesla",
        SweepVariable.PRESSURE: "P_GPa",
    }[spec.variable]
    is_pressure = spec.variable is SweepVariable.PRESSURE

    fixed = spec.fixed
    j, t, b = fixed.j_over_kb, fixed.temperature, fixed.b_field
    if spec.variable is SweepVariable.TEMPERATURE:
        t = grid
    elif is_pressure:
        j = pressure_to_j(pressure_table, grid)
    else:
        b = grid
    # SweepSpec checked the held parameters and a finite grid (T > 0 for a
    # temperature sweep, B >= 0 for a field sweep), and pressure_to_j returns
    # finite J, so the broadcast batch is not checked element by element.
    j, g, t, b = np.broadcast_arrays(j, fixed.g, t, b)
    params = _trusted(DimerParams, j_over_kb=j, g=g, temperature=t, b_field=b)

    rho = gibbs_state(build_hamiltonian(params), params.temperature)
    # One pass over the levels gives the closed-form coherence, Z and the
    # ground-state labels.
    levels = thermal_levels(j, params.zeeman_kelvin, t)
    if spec.basis is Basis.SZ:
        closed = longitudinal_l1(levels.populations)
    else:
        closed = transverse_l1(levels.populations)
        rho = rotate_to_sx(rho)
    oracle = l1_coherence(rho).value
    disagree = np.abs(closed - oracle) > ORACLE_ATOL
    if np.any(disagree):
        i = int(np.argmax(disagree))
        raise NumericError(
            f"closed form and oracle disagree at {swept_name}={float(grid[i])!r}: "
            f"{float(closed[i])!r} vs {float(oracle[i])!r}"
        )
    z = partition_from_levels(levels, t)

    # Saturated values can land a few ulp past the exact bound of 3;
    # clamp after the agreement check so emitted tables stay physical.
    names = [swept_name, c_name, "C_oracle", "Z"]
    data = [grid, np.clip(closed, 0.0, 3.0), np.clip(oracle, 0.0, 3.0), z]
    annotations = {"ground_state": _ground_state_labels(levels)}
    if is_pressure:
        names.insert(1, "J_kelvin")
        data.insert(1, j)
        regime = np.select(
            [j < 0.0, j > 0.0], ["antiferromagnetic", "ferromagnetic"], "uncoupled"
        )
        annotations["regime"] = tuple(regime.tolist())

    variable = spec.variable.value
    # A field table's `variable` line names the field by the basis it
    # reports, so emitted tables stay byte-stable.
    if spec.variable is SweepVariable.FIELD:
        variable = "field_longitudinal" if spec.basis is Basis.SZ else "field_transverse"
    metadata = {
        "variable": variable,
        "basis": spec.basis.value,
        "g": repr(spec.fixed.g),
        "tool_version": TOOL_VERSION,
    }
    if not is_pressure:
        metadata["j_over_kb"] = repr(spec.fixed.j_over_kb)
    else:
        metadata["pressure_table"] = pressure_table.source
    if spec.variable is not SweepVariable.TEMPERATURE:
        metadata["t_kelvin"] = repr(spec.fixed.temperature)
    if spec.variable is not SweepVariable.FIELD:
        metadata["b_tesla"] = repr(spec.fixed.b_field)

    return SweepTable(
        column_names=tuple(names),
        values=np.column_stack(data),
        annotations=annotations,
        metadata=metadata,
    )
