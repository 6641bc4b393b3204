"""Output checks for every op, run outside the timed interval.

Tables are parsed here with the benchmark's own CSV/JSON reader, so a
writer and reader that break in the same way still fail. Numbers are
checked against independent computations: the four-level partition
function in log-sum-exp form, the zero-field closed forms written out
again, and a seeded sample of rows recomputed with the brute-force
`core`/`quantifiers` route. Each check returns a list of problems; an
empty list means the op's output is correct.

A fitted (J, g) is a random estimate, so it is held to a statistical test
instead: within FIT_SIGMAS reported standard errors of the generating
values. A miss makes the op a failed op (the fit misled its user) but not
a wrong output, the same as a fit that does not converge.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import numpy as np

from spindimer.constants import MU_B_KELVIN_PER_TESLA
from spindimer.core import DimerParams, build_hamiltonian, gibbs_state, rotate_to_sx
from spindimer.quantifiers import l1_coherence
from spindimer.sweep import ORACLE_ATOL

from workloads import CURIE_EMU

FIT_SIGMAS = 5.0
_GRID_RTOL = 1e-12
_LOGZ_ATOL = 1e-9
_CLOSED_RTOL = 1e-9


@dataclass
class Table:
    """A parsed table: metadata, ordered numeric columns, annotations."""

    meta: dict[str, str]
    order: list[str]
    columns: dict[str, np.ndarray]
    annotations: dict[str, list[str]]

    @property
    def n_rows(self) -> int:
        return len(next(iter(self.columns.values()))) if self.columns else 0


def parse_table(text: str, fmt: str, numeric: tuple[str, ...]) -> Table:
    """Parse emitted CSV or JSON; `numeric` names the float columns."""
    if fmt == "json":
        payload = json.loads(text)
        columns = {
            n: np.array([math.nan if v is None else v for v in payload["columns"][n]],
                        dtype=float)
            for n in payload["column_order"]
        }
        annotations = {k: list(payload["annotations"][k])
                       for k in payload["annotation_order"]}
        return Table(payload["metadata"], list(payload["column_order"]),
                     columns, annotations)
    meta: dict[str, str] = {}
    header: list[str] | None = None
    rows: list[list[str]] = []
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    if header is None:
        raise ValueError("no header line")
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged rows")
    order = [n for n in header if n in numeric]
    columns = {n: np.array([float(r[header.index(n)]) for r in rows], dtype=float)
               for n in order}
    annotations = {n: [r[k] for r in rows]
                   for k, n in enumerate(header) if n not in numeric}
    return Table(meta, order, columns, annotations)


def same_as_readback(parsed: Table, table) -> list[str]:
    """The program's reader must return what our reader saw."""
    if tuple(parsed.order) != tuple(table.column_names):
        return [f"read-back columns {table.column_names} != {parsed.order}"]
    problems = []
    for name in parsed.order:
        a, b = parsed.columns[name], np.asarray(table.column(name))
        if a.shape != b.shape or not np.array_equal(a, b, equal_nan=True):
            problems.append(f"read-back column {name} differs")
    if {k: list(v) for k, v in table.annotations.items()} != parsed.annotations:
        problems.append("read-back annotations differ")
    if dict(table.metadata) != parsed.meta:
        problems.append("read-back metadata differs")
    return problems


def _log_z(j, g, t, b):
    """ln Z of the four dimer levels, log-sum-exp, vectorized."""
    h = g * MU_B_KELVIN_PER_TESLA * b
    levels = np.stack([0.75 * j, -0.25 * j - h, -0.25 * j, -0.25 * j + h])
    e0 = levels.min(axis=0)
    return -e0 / t + np.log(np.exp(-(levels - e0) / t).sum(axis=0))


def _oracle_c(j, g, t, b, basis):
    rho = gibbs_state(build_hamiltonian(DimerParams(j, g, t, b)), t)
    if basis == "x":
        rho = rotate_to_sx(rho)
    return min(max(l1_coherence(rho).value, 0.0), 3.0)


def _interp(nodes, p):
    """Piecewise-linear J(P) through the table nodes."""
    for (p0, j0), (p1, j1) in zip(nodes, nodes[1:]):
        if p0 <= p <= p1:
            return j0 if p == p0 else j1 if p == p1 else j0 + (j1 - j0) * (p - p0) / (p1 - p0)
    raise ValueError(f"pressure {p} outside table")


def sweep_numeric(axis: str, basis: str) -> tuple[str, ...]:
    swept = {"temp": "T_kelvin", "field": "B_tesla", "pressure": "P_GPa"}[axis]
    c_name = "C_z" if basis == "z" else "C_x"
    mid = ("J_kelvin",) if axis == "pressure" else ()
    return (swept,) + mid + (c_name, "C_oracle", "Z")


def check_sweep(exp: dict, tab: Table, nodes, rng: random.Random, samples: int) -> list[str]:
    axis, basis, steps = exp["axis"], exp["basis"], exp["steps"]
    names = sweep_numeric(axis, basis)
    if tuple(tab.order) != names:
        return [f"columns {tab.order} != {names}"]
    if tab.n_rows != steps:
        return [f"{tab.n_rows} rows for {steps} steps"]
    if tab.meta.get("basis") != basis:
        return [f"metadata basis {tab.meta.get('basis')!r} != {basis!r}"]
    problems = []
    swept = tab.columns[names[0]]
    grid = np.linspace(exp["min"], exp["max"], steps)
    if not np.allclose(swept, grid, rtol=_GRID_RTOL, atol=0.0):
        problems.append("swept column is not the requested grid")
    c, c_or, z = tab.columns[names[-3]], tab.columns["C_oracle"], tab.columns["Z"]
    gap = np.abs(c - c_or)
    if not np.all(gap <= ORACLE_ATOL):
        problems.append(f"closed form vs oracle gap {np.nanmax(gap):.3g} > {ORACLE_ATOL}")
    if not (np.all(np.isfinite(z)) and np.all(z > 0.0)):
        problems.append("Z not finite and positive on every row")
    if not np.all((c >= 0.0) & (c <= 3.0)):
        problems.append("coherence outside [0, 3]")

    n = steps
    g = exp["g"]
    t = swept if axis == "temp" else np.full(n, exp["t"])
    b = swept if axis == "field" else np.full(n, exp["b"])
    if axis == "pressure":
        j = tab.columns["J_kelvin"]
        want = np.array([_interp(nodes, p) for p in swept])
        if not np.allclose(j, want, rtol=_GRID_RTOL, atol=1e-15):
            problems.append("J_kelvin column is not the interpolated table")
    else:
        j = np.full(n, exp["j"])
    if problems:
        return problems
    with np.errstate(divide="ignore", invalid="ignore"):
        dlogz = np.abs(np.log(z) - _log_z(j, g, t, b))
    if not np.all(dlogz <= _LOGZ_ATOL * np.maximum(1.0, np.abs(np.log(z)))):
        problems.append(f"Z disagrees with the level sum (max ln gap {np.nanmax(dlogz):.3g})")
    for i in sorted(rng.sample(range(n), min(samples, n))):
        ref = _oracle_c(float(j[i]), g, float(t[i]), float(b[i]), basis)
        if abs(c[i] - ref) > ORACLE_ATOL or abs(c_or[i] - ref) > ORACLE_ATOL:
            problems.append(f"row {i}: C {c[i]!r} vs recomputed oracle {ref!r}")
    return problems


def _stdout_fields(stdout: str) -> dict[str, list[str]]:
    """`key = v1 v2 ...` lines of the fit / critical-field reports."""
    out = {}
    for line in stdout.splitlines():
        key, sep, rest = line.partition(" = ")
        if sep:
            out.setdefault(key, []).append(rest)
    return out


def fit_report(stdout: str) -> tuple[float, float, float, float]:
    """(J, stderr J, g, stderr g) as printed by `spindimer fit`."""
    fields = _stdout_fields(stdout)
    j_txt, j_err = fields["J/k_B"][0].removesuffix(" K").split(" +/- ")
    g_txt, g_err = fields["g"][0].split(" +/- ")
    return tuple(map(float, (j_txt, j_err, g_txt, g_err)))


def fit_misses(exp: dict, stdout: str) -> list[str]:
    """The statistical test: each parameter within FIT_SIGMAS of the truth."""
    j_fit, se_j, g_fit, se_g = fit_report(stdout)
    misses = []
    if abs(j_fit - exp["j"]) > FIT_SIGMAS * se_j:
        misses.append(f"J {j_fit!r} +/- {se_j} K is over {FIT_SIGMAS} sigma from {exp['j']!r}")
    if abs(g_fit - exp["g"]) > FIT_SIGMAS * se_g:
        misses.append(f"g {g_fit!r} +/- {se_g} is over {FIT_SIGMAS} sigma from {exp['g']!r}")
    return misses


def check_fit(exp: dict, stdout: str, tab: Table, rng: random.Random, samples: int) -> list[str]:
    try:
        j_fit, _, g_fit, _ = fit_report(stdout)
    except (KeyError, IndexError, ValueError):
        return ["fit report unreadable"]
    problems = []
    names = ("T_kelvin", "C_experimental", "C_theoretical", "residual")
    if tuple(tab.order) != names or tab.n_rows != exp["points"]:
        return [f"coherence table shape {tab.order} x {tab.n_rows}"]
    src = np.loadtxt(exp["src"], delimiter=",", skiprows=1)
    t, chi = src[:, 0], src[:, 1]
    if not np.array_equal(tab.columns["T_kelvin"], t):
        problems.append("coherence table temperatures differ from the input")
    corr = 2.0 * t * chi / (g_fit * g_fit * CURIE_EMU) - 1.0
    physical = (corr >= -1.02) & (corr <= 1.0 / 3.0 + 0.02)
    flags = np.array(tab.annotations.get("flag", [""] * len(t)))
    if not np.array_equal(flags == "unphysical", ~physical):
        problems.append("unphysical flags differ from the correlation band")
    e = np.exp(-j_fit / t)
    want = {
        "C_experimental": np.where(physical, np.abs(corr), np.nan),
        "C_theoretical": np.abs(1.0 - e) / (3.0 + e),
    }
    want["residual"] = want["C_experimental"] - want["C_theoretical"]
    for name, ref in want.items():
        if not np.allclose(tab.columns[name], ref, rtol=_CLOSED_RTOL, atol=1e-12, equal_nan=True):
            problems.append(f"{name} column disagrees with the closed form")
    c_th = tab.columns["C_theoretical"]
    for i in sorted(rng.sample(range(len(t)), min(samples, len(t)))):
        ref = _oracle_c(j_fit, g_fit, float(t[i]), 0.0, "z")
        if abs(c_th[i] - ref) > ORACLE_ATOL:
            problems.append(f"row {i}: C_theoretical {c_th[i]!r} vs oracle {ref!r}")
    return problems


def check_critical_field(exp: dict, stdout: str) -> list[str]:
    fields = _stdout_fields(stdout)
    try:
        tesla = float(fields["B_c"][0].removesuffix(" T"))
        oersted = float(fields["B_c"][1].removesuffix(" Oe"))
        gap = float(stdout.rsplit("bisection agreement: ", 1)[1].split()[0])
    except (KeyError, IndexError, ValueError):
        return ["critical-field report unreadable"]
    want = abs(exp["j"]) / (exp["g"] * MU_B_KELVIN_PER_TESLA)
    problems = []
    if not math.isclose(tesla, want, rel_tol=1e-12):
        problems.append(f"B_c {tesla!r} T != |J|/(g mu_B) = {want!r}")
    if not math.isclose(oersted, 1e4 * tesla, rel_tol=1e-12):
        problems.append(f"B_c {oersted!r} Oe != 1e4 x {tesla!r} T")
    if not gap <= 1e-9:
        problems.append(f"bisection disagrees by {gap} T")
    return problems


def check_op(op: dict, stdout: str, text: str | None, readback, nodes,
             rng: random.Random) -> tuple[list[str], list[str], int]:
    """Problems with one successful op's output, statistical misses, and
    its emitted row count.

    `text` is the table as emitted (file or stdout); `readback` is what the
    program's own reader returned for a file output, else None.
    """
    exp = op["expect"]
    if op["kind"] == "critical-field":
        return check_critical_field(exp, stdout), [], 0
    if op["kind"] == "sweep":
        numeric = sweep_numeric(exp["axis"], exp["basis"])
    else:
        numeric = ("T_kelvin", "C_experimental", "C_theoretical", "residual")
    try:
        tab = parse_table(text, op["format"], numeric)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"table unreadable: {exc}"], [], 0
    samples = 32 if tab.n_rows >= 1000 else 4
    if op["kind"] == "sweep":
        problems = check_sweep(exp, tab, nodes, rng, samples)
    else:
        problems = check_fit(exp, stdout, tab, rng, samples)
    if readback is not None:
        problems += same_as_readback(tab, readback)
    misses = fit_misses(exp, stdout) if op["kind"] == "fit" and not problems else []
    return problems, misses, tab.n_rows
