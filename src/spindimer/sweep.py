"""Parameter sweeps over temperature, field, and pressure.

Every sweep row carries the closed-form coherence next to a brute-force
oracle value computed by diagonalizing the Hamiltonian; the two must agree
to 1e-10 or the sweep aborts. The whole grid is evaluated as one batch:
one closed-form call and one stacked diagonalization per sweep. Tables
serialize to CSV or JSON with a metadata block, deterministically enough to
be golden-file tested.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from enum import Enum
from itertools import compress
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .constants import TOOL_VERSION
from .core import (
    Basis,
    DimerParams,
    build_hamiltonian,
    float_or_array,
    gibbs_state,
    rotate_to_sx,
)
from .errors import DataError, NumericError
from .models import (
    coherence_longitudinal,
    coherence_transverse,
    level_energies,
    partition_function,
)
from .quantifiers import l1_coherence

# Closed form and oracle are independent routes to the same number; beyond
# this gap one of them is wrong.
ORACLE_ATOL = 1e-10

# Largest grid a sweep accepts. A sweep holds its whole working set at once,
# about 1.4 KB per row at peak, so this caps one sweep near 1.4 GB.
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
    FIELD_LONGITUDINAL = "field_longitudinal"
    FIELD_TRANSVERSE = "field_transverse"
    PRESSURE = "pressure"


@dataclass(frozen=True)
class SweepSpec:
    """A linear grid over one variable with everything else held fixed.

    `fixed` supplies the held parameters; the swept field of it is ignored.
    Field sweeps tie the variable to the measurement basis: longitudinal
    reports S_z coherence, transverse S_x.
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
        if self.variable is SweepVariable.FIELD_LONGITUDINAL and self.basis is not Basis.SZ:
            raise ValueError("longitudinal field sweep reports the S_z basis")
        if self.variable is SweepVariable.FIELD_TRANSVERSE and self.basis is not Basis.SX:
            raise ValueError("transverse field sweep reports the S_x basis")
        if self.variable in (
            SweepVariable.FIELD_LONGITUDINAL,
            SweepVariable.FIELD_TRANSVERSE,
        ) and self.minimum < 0.0:
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
        _, rows = _read_two_column_csv(path, "P_GPa,J_kelvin")
        pressures, j_values = np.array(rows, dtype=float).reshape(-1, 2).T
        return cls(pressures, j_values, source=str(path))


def _read_text(path: str | Path) -> str:
    """The file's UTF-8 text; a file that cannot be read or decoded is
    reported with its path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot decode {path} as UTF-8: {exc}") from exc


def _read_two_column_csv(
    path: str | Path, expected_header: str
) -> tuple[str, list[tuple[float, float]]]:
    """Shared strict reader: `#` comments, exact header, two floats per row."""
    text = _read_text(path)
    header: str | None = None
    rows: list[tuple[float, float]] = []
    row_index = 0
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            if line != expected_header:
                raise DataError(
                    f"malformed header: expected {expected_header!r}, got {line!r}"
                )
            header = line
            continue
        row_index += 1
        fields = line.split(",")
        if len(fields) != 2:
            raise DataError(f"row {row_index}: expected 2 fields, got {line!r}")
        try:
            a, b = float(fields[0]), float(fields[1])
        except ValueError as exc:
            raise DataError(f"row {row_index}: could not parse {line!r}") from exc
        if not (math.isfinite(a) and math.isfinite(b)):
            raise DataError(f"row {row_index}: non-finite value in {line!r}")
        rows.append((a, b))
    if header is None:
        raise DataError(f"malformed header: {path} has no header line")
    return header, rows


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


@dataclass(frozen=True, eq=False)
class SweepTable:
    """Rectangular numeric grid plus string annotation columns, compared by
    identity, since `==` on arrays would raise.

    Non-finite numeric entries are only allowed on rows whose `flag`
    annotation is nonempty; everything else must be finite.
    """

    column_names: tuple[str, ...]
    values: np.ndarray
    annotations: dict[str, tuple[str, ...]]
    metadata: dict[str, str]

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(self.column_names):
            raise ValueError("values must be rows x named columns")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        n = values.shape[0]
        for name, column in self.annotations.items():
            if len(column) != n:
                raise ValueError(f"annotation {name!r} length != row count")
        # CSV separates cells by commas and rows by line breaks, so no column
        # name, annotation name or distinct annotation cell may hold either.
        ann = self.annotations
        cells = set(self.column_names).union(ann, *ann.values())
        if any("," in s or "".join(s.splitlines()) != s for s in cells):
            raise ValueError("names and annotations must not hold commas or line breaks")
        texts = [s for item in self.metadata.items() for s in item]
        if any(not isinstance(s, str) for s in texts):
            raise ValueError("metadata keys and values must be strings")
        # CSV writes one `# key = value` line per entry and reads it back
        # with str.splitlines, so no entry may hold a line boundary.
        if any("".join(s.splitlines()) != s for s in texts):
            raise ValueError("metadata keys and values must not contain line breaks")
        # The reader splits each line at its first " = ", so the key must
        # not hold one, nor end in " =" that the separator would complete.
        if any(" = " in key + " =" for key in self.metadata):
            raise ValueError("metadata keys must not contain ' = ' or end in ' ='")
        flags = np.asarray(self.annotations.get("flag", [""] * n), dtype=str)
        if np.any(~np.isfinite(values).all(axis=1) & (flags == "")):
            raise ValueError("non-finite values in unflagged rows")

    @property
    def n_rows(self) -> int:
        return int(self.values.shape[0])

    def column(self, name: str) -> np.ndarray:
        return self.values[:, self.column_names.index(name)]


def _ground_state_labels(params: DimerParams) -> tuple[str, ...]:
    """Name the lowest level(s) of each row; exact ties join with '+'."""
    levels = level_energies(params.j_over_kb, params.zeeman_kelvin)
    e_min = levels.min(axis=-1, keepdims=True)
    tied = levels <= e_min + 1e-12 * np.maximum(1.0, np.abs(e_min))
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
        SweepVariable.FIELD_LONGITUDINAL: "B_tesla",
        SweepVariable.FIELD_TRANSVERSE: "B_tesla",
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
    params = DimerParams(*np.broadcast_arrays(j, fixed.g, t, b))

    rho = gibbs_state(build_hamiltonian(params), params.temperature)
    if spec.basis is Basis.SZ:
        closed = coherence_longitudinal(params).value
    else:
        closed = coherence_transverse(params).value
        rho = rotate_to_sx(rho)
    oracle = l1_coherence(rho).value
    disagree = np.abs(closed - oracle) > ORACLE_ATOL
    if np.any(disagree):
        i = int(np.argmax(disagree))
        raise NumericError(
            f"closed form and oracle disagree at {swept_name}={float(grid[i])!r}: "
            f"{float(closed[i])!r} vs {float(oracle[i])!r}"
        )
    z = partition_function(params)

    # Saturated values can land a few ulp past the exact bound of 3;
    # clamp after the agreement check so emitted tables stay physical.
    names = [swept_name, c_name, "C_oracle", "Z"]
    data = [grid, np.clip(closed, 0.0, 3.0), np.clip(oracle, 0.0, 3.0), z]
    annotations = {"ground_state": _ground_state_labels(params)}
    if is_pressure:
        names.insert(1, "J_kelvin")
        data.insert(1, j)
        regime = np.select(
            [j < 0.0, j > 0.0], ["antiferromagnetic", "ferromagnetic"], "uncoupled"
        )
        annotations["regime"] = tuple(regime.tolist())

    metadata = {
        "variable": spec.variable.value,
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
    if spec.variable in (SweepVariable.TEMPERATURE, SweepVariable.PRESSURE):
        metadata["b_tesla"] = repr(spec.fixed.b_field)

    return SweepTable(
        column_names=tuple(names),
        values=np.column_stack(data),
        annotations=annotations,
        metadata=metadata,
    )


def _utc_now() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


# JSON is laid out by hand exactly as `json.dumps(payload, sort_keys=True,
# indent=2)` lays it out, so a cell costs one `repr` or one C-level string
# escape (`_quote`) instead of a pass through the pure-Python indenting
# encoder.
def _json_array(items: list[str], depth: int) -> str:
    """Pre-encoded items as a JSON array nested `depth` levels deep."""
    if not items:
        return "[]"
    pad = "\n" + "  " * (depth + 1)
    return "[" + pad + ("," + pad).join(items) + "\n" + "  " * depth + "]"


def _json_object(members: dict[str, str], depth: int) -> str:
    """Pre-encoded values under sorted, quoted keys, nested `depth` deep."""
    if not members:
        return "{}"
    pad = "\n" + "  " * (depth + 1)
    body = ("," + pad).join(f"{_quote(k)}: {members[k]}" for k in sorted(members))
    return "{" + pad + body + "\n" + "  " * depth + "}"


def _render_json(table: SweepTable, meta: dict[str, str]) -> str:
    # repr of a Python float is the shortest string that round-trips, which
    # is what makes the emitted files bit-stable; non-finite cells are null.
    cells = [list(map(repr, column)) for column in table.values.T.tolist()]
    for k, i in np.argwhere(~np.isfinite(table.values.T)).tolist():
        cells[k][i] = "null"
    names = table.column_names
    payload = {
        "annotation_order": _json_array(list(map(_quote, table.annotations)), 1),
        "annotations": _json_object({
            name: _json_array(list(map(_quote, column)), 2)
            for name, column in table.annotations.items()
        }, 1),
        "column_order": _json_array(list(map(_quote, names)), 1),
        # A repeated name keeps its first column, as `SweepTable.column` does.
        "columns": _json_object(
            {name: _json_array(cells[names.index(name)], 2) for name in names}, 1
        ),
        "metadata": _json_object({k: _quote(v) for k, v in meta.items()}, 1),
    }
    return _json_object(payload, 0) + "\n"


def render_table(table: SweepTable, format: str, timestamp: str | None = None) -> str:
    """Serialize a table to CSV or JSON text."""
    meta = dict(table.metadata)
    meta["timestamp"] = timestamp if timestamp is not None else _utc_now()
    if format == "csv":
        lines = [f"# {k} = {meta[k]}" for k in sorted(meta)]
        ann_names = list(table.annotations)
        lines.append(",".join(list(table.column_names) + ann_names))
        lines += [
            ",".join([*map(repr, row), *cells])
            for row, *cells in zip(table.values.tolist(), *table.annotations.values())
        ]
        return "\n".join(lines) + "\n"
    if format == "json":
        return _render_json(table, meta)
    raise ValueError(f"unknown format {format!r}")


def emit(
    table: SweepTable,
    format: str,
    path: str | Path,
    timestamp: str | None = None,
) -> None:
    """Write the rendered table; I/O failures carry the path."""
    text = render_table(table, format, timestamp)
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot write {path}: {exc}") from exc


def read_table_csv(path: str | Path) -> SweepTable:
    """Parse a table emitted as CSV back into a SweepTable."""
    text = _read_text(path)
    metadata: dict[str, str] = {}
    header: list[str] | None = None
    raw_rows: list[list[str]] = []
    for line in text.splitlines():
        if not line.strip():
            continue
        if line.startswith("#"):
            key, _, value = line[2:].partition(" = ")
            metadata[key] = value
            continue
        if header is None:
            header = line.split(",")
            continue
        fields = line.split(",")
        if len(fields) != len(header):
            raise DataError(
                f"row {len(raw_rows) + 1}: expected {len(header)} fields, got {line!r}"
            )
        raw_rows.append(fields)
    if header is None:
        raise DataError(f"malformed header: {path} has no header line")

    def as_float_column(k: int) -> list[float] | None:
        out = []
        for row in raw_rows:
            try:
                out.append(float(row[k]))
            except ValueError:
                return None
        return out

    numeric: dict[str, list[float]] = {}
    annotations: dict[str, tuple[str, ...]] = {}
    column_names: list[str] = []
    for k, name in enumerate(header):
        parsed = as_float_column(k)
        if parsed is not None:
            column_names.append(name)
            numeric[name] = parsed
        else:
            annotations[name] = tuple(row[k] for row in raw_rows)
    values = np.array([numeric[n] for n in column_names], dtype=float).T
    return SweepTable(tuple(column_names), values, annotations, metadata)


def read_table_json(path: str | Path) -> SweepTable:
    """Parse a table emitted as JSON back into a SweepTable."""
    payload = json.loads(_read_text(path))
    names = tuple(payload["column_order"])
    values = np.array(
        [
            [math.nan if v is None else float(v) for v in payload["columns"][n]]
            for n in names
        ],
        dtype=float,
    ).T
    annotations = {
        k: tuple(payload["annotations"][k]) for k in payload["annotation_order"]
    }
    return SweepTable(names, values, annotations, dict(payload["metadata"]))
