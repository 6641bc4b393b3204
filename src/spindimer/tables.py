"""Tables and their text formats: the one module that reads and writes them.

A `SweepTable` is a rectangular float grid with named columns, string
annotation columns and a metadata block. It renders to CSV (`# key = value`
metadata lines, one header line, one line per row) or to JSON laid out as
`json.dumps(payload, sort_keys=True, indent=2)` lays it out, and reads back
from either. Floats are written as their `repr`, so a rendered table is
byte-stable and reads back exactly. The strict two-column reader for input
files (chi(T) data, pressure tables) lives here too.

This module imports nothing from the package except `errors`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime, timezone
from json.encoder import encode_basestring_ascii as _quote
from pathlib import Path

import numpy as np

from .errors import DataError


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
        # JSON keys its columns by name and `column` looks a name up, so a
        # repeated name would stand for more than one column.
        if len(set(self.column_names)) != len(self.column_names):
            raise ValueError("column names must be distinct")
        # CSV separates cells by commas and rows by line breaks, so no column
        # name, annotation name or distinct annotation cell may hold either.
        ann = self.annotations
        cells = set(self.column_names).union(ann, *ann.values())
        if any("," in s or "".join(s.splitlines()) != s for s in cells):
            raise ValueError("names and annotations must not hold commas or line breaks")
        # The CSV reader skips blank lines and takes lines that start with
        # "#" for metadata, so the header line must be neither.
        header = ",".join([*self.column_names, *ann])
        if not header.strip() or header.startswith("#"):
            raise ValueError("the CSV header must not be blank or start with '#'")
        texts = [s for item in self.metadata.items() for s in item]
        if any(not isinstance(s, str) for s in texts):
            raise ValueError("metadata keys and values must be strings")
        # Both formats are written as UTF-8, which cannot encode the lone
        # surrogate that a file name that is not UTF-8 decodes to.
        try:
            "".join([*cells, *texts]).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise ValueError("names, annotations and metadata must encode as "
                             f"UTF-8: {exc.object[exc.start]!r} does not") from None
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


def _read_text(path: str | Path) -> str:
    """The file's UTF-8 text; a file that cannot be read or decoded is
    reported with its path."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise OSError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"cannot decode {path} as UTF-8: {exc}") from exc


def read_two_column_csv(
    path: str | Path, expected_header: str
) -> list[tuple[float, float]]:
    """Strict ingest reader: `#` comments, exact header, two finite floats
    per row. Returns the rows."""
    text = _read_text(path)
    header_seen = False
    rows: list[tuple[float, float]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not header_seen:
            if line != expected_header:
                raise DataError(
                    f"malformed header: expected {expected_header!r}, got {line!r}"
                )
            header_seen = True
            continue
        row_index = len(rows) + 1
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
    if not header_seen:
        raise DataError(f"malformed header: {path} has no header line")
    return rows


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
        "columns": _json_object(
            {name: _json_array(column, 2) for name, column in zip(names, cells)}, 1
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
    """Parse a table emitted as CSV back into a SweepTable.

    A column whose every cell parses as a float is numeric; any other
    column is an annotation.
    """
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

    column_names: list[str] = []
    numeric: list[list[float]] = []
    annotations: dict[str, tuple[str, ...]] = {}
    # A table without rows still has its header's columns.
    for name, cells in zip(header, list(zip(*raw_rows)) or [()] * len(header)):
        try:
            numeric.append([float(cell) for cell in cells])
        except ValueError:
            if name in annotations:
                raise DataError(f"repeated annotation name {name!r}") from None
            annotations[name] = cells
        else:
            column_names.append(name)
    values = np.array(numeric, dtype=float).T
    return SweepTable(tuple(column_names), values, annotations, metadata)


def read_table_json(path: str | Path) -> SweepTable:
    """Parse a table emitted as JSON back into a SweepTable."""
    payload = json.loads(_read_text(path))
    names = tuple(payload["column_order"])
    # numpy reads a JSON null (None) as NaN.
    values = np.array([payload["columns"][n] for n in names], dtype=float).T
    annotations = {
        k: tuple(payload["annotations"][k]) for k in payload["annotation_order"]
    }
    return SweepTable(names, values, annotations, dict(payload["metadata"]))
