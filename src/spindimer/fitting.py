"""Susceptibility ingestion and (J, g) estimation.

The fitter is a damped Gauss-Newton (Levenberg-Marquardt) loop with the
analytic Jacobian of the dimer susceptibility. The data are molar chi,
converted to emu/mol once on entry, so the convergence thresholds mean the
same thing in either input unit; the reported rss is converted back to
input units squared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .constants import CURIE_EMU_K_PER_MOL, TOOL_VERSION
from .core import DimerParams
from .errors import DataError, NumericError
from .models import (
    ChiUnit,
    SusceptibilityPoint,
    bleaney_bowers_chi,
    coherence_longitudinal,
    correlation_values,
    in_domain,
)
from .tables import SweepTable, read_two_column_csv

MIN_POINTS = 8
MAX_ITERATIONS = 500
STEP_RTOL = 1e-10
GRADIENT_TOL = 1e-12
_LAMBDA_INIT = 1e-3
_LAMBDA_MAX = 1e12


@dataclass(frozen=True)
class SusceptibilitySeries:
    """An ordered chi(T) measurement run on one sample.

    `data` is one array-valued point: equal-length 1-D arrays of
    temperature and chi in one unit, already checked sample by sample by
    `SusceptibilityPoint`. The series adds the shape and strictly
    increasing temperatures, each checked once for the whole run. Read
    the arrays and the unit from `data`.
    """

    data: SusceptibilityPoint
    sample_id: str = ""

    def __post_init__(self) -> None:
        t, chi = self.data.temperature, self.data.chi
        if np.size(t) == 0:
            raise ValueError("series needs at least one point")
        if np.ndim(t) != 1 or np.shape(chi) != np.shape(t):
            raise ValueError("series data must be 1-D arrays of equal length")
        if np.any(t[1:] <= t[:-1]):
            raise DataError("temperatures not increasing")

    def __len__(self) -> int:
        return len(self.data.temperature)


@dataclass(frozen=True)
class FitResult:
    """Least-squares estimate of (J/k_B, g) with 1-sigma errors."""

    j_over_kb: float
    g: float
    rss: float
    stderr_j: float
    stderr_g: float
    iterations: int
    converged: bool
    rss_trace: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.stderr_j < 0.0 or self.stderr_g < 0.0:
            raise ValueError("standard errors must be >= 0")


def load_series(
    path: str | Path, unit: ChiUnit = ChiUnit.EMU_PER_MOL
) -> SusceptibilitySeries:
    """Read a `T_kelvin,chi` CSV into a validated series named by the file
    stem.

    Strict dialect: UTF-8, exact header, `#` comments, one point per line.
    The rows are validated as one array-valued point; a bad row is reported
    with its (1-based) data row index and its own point's message.
    """
    rows = read_two_column_csv(path, "T_kelvin,chi")
    if len(rows) < MIN_POINTS:
        raise DataError(
            f"need at least {MIN_POINTS} points for a fit, got {len(rows)}"
        )
    t, chi = np.array(list(zip(*rows)))
    try:
        data = SusceptibilityPoint(t, chi, unit)
    except ValueError:
        i = int(np.argmin(in_domain(t, chi)))
        try:
            SusceptibilityPoint(float(t[i]), float(chi[i]), unit)
        except ValueError as exc:
            raise DataError(f"row {i + 1}: {exc}") from exc
        raise
    return SusceptibilitySeries(data, Path(path).stem)


def _bb_jacobian(t: np.ndarray, j: float, g: float) -> np.ndarray:
    """Columns (dchi/dJ, dchi/dg) of the model, overflow-safe.

    Uses e/(3+e)^2 = u - 3u^2 with u = 1/(3+e), which stays finite when
    the Boltzmann factor overflows to inf.
    """
    with np.errstate(over="ignore", divide="ignore"):
        e = np.exp(-j / t)
        u = 1.0 / (3.0 + e)
        dj = 2.0 * CURIE_EMU_K_PER_MOL * g * g * (u - 3.0 * u * u) / (t * t)
        dg = 4.0 * CURIE_EMU_K_PER_MOL * g * u / t
    return np.column_stack([dj, dg])


def _rss(residual: np.ndarray) -> float:
    """Sum of squared residuals, inf where it overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(residual @ residual)


def _default_init(t0: float, chi0: float) -> tuple[float, float]:
    """Invert the model at the lowest-T point assuming g = 2.

    chi = 2 g^2 K / (T (3 + q)) with q = e^(-J/T) gives J = -T ln q; the
    sign of the recovered J is the low-temperature slope information. Falls
    back to a mild AFM guess when the point is outside the invertible range.
    """
    g0 = 2.0
    if chi0 > 0.0:
        q = 2.0 * g0 * g0 * CURIE_EMU_K_PER_MOL / (t0 * chi0) - 3.0
        if q > 0.0:
            j0 = -t0 * math.log(q)
            if math.isfinite(j0):
                return max(-100.0, min(100.0, j0)), g0
    return -1.0, g0


def fit_bleaney_bowers(
    series: SusceptibilitySeries, init: tuple[float, float] | None = None
) -> FitResult:
    """Minimize sum [chi_i - chi_model(T_i; J, g)]^2 over molar chi in
    emu/mol; rss is reported in the series unit squared."""
    if len(series) < MIN_POINTS:
        raise DataError(
            f"need at least {MIN_POINTS} points for a fit, got {len(series)}"
        )

    t = series.data.temperature
    y = series.data.chi_emu()

    j, g = init if init is not None else _default_init(float(t[0]), float(y[0]))

    def residual_at(jv: float, gv: float) -> np.ndarray:
        return y - bleaney_bowers_chi(jv, gv, t).chi

    # One model evaluation per iteration: the trial step's residual becomes
    # the current one when the step is taken.
    lam = _LAMBDA_INIT
    residual = residual_at(j, g)
    rss = _rss(residual)
    if not math.isfinite(rss):
        raise NumericError("degenerate fit")
    trace = [rss]
    iterations = 0
    converged = False
    n = len(t)

    while iterations < MAX_ITERATIONS:
        iterations += 1
        jac = _bb_jacobian(t, j, g)
        with np.errstate(over="ignore", invalid="ignore"):
            jtj, grad = jac.T @ jac, jac.T @ residual
        # Both model derivatives vanish at g = 0, so the gradient is zero
        # there without being a minimum; that must not read as convergence.
        # An overflowing Jacobian or residual leaves no usable step either.
        finite = np.isfinite(jtj).all() and np.isfinite(grad).all()
        if not (finite and np.all(np.diag(jtj) > 0.0)):
            raise NumericError("degenerate fit")
        if float(np.abs(grad).max()) < GRADIENT_TOL:
            converged = True
            break
        damp = np.diag(np.diag(jtj))
        try:
            step = np.linalg.solve(jtj + lam * damp, grad)
        except np.linalg.LinAlgError as exc:
            raise NumericError("degenerate fit") from exc
        if not np.all(np.isfinite(step)):
            raise NumericError("degenerate fit")
        j_new, g_new = j + float(step[0]), g + float(step[1])
        residual_new = residual_at(j_new, g_new)
        rss_new = _rss(residual_new)
        rel_step = float(np.abs(step).max()) / max(1e-30, abs(j_new), abs(g_new))
        if math.isfinite(rss_new) and rss_new < rss:
            j, g, rss, residual = j_new, g_new, rss_new, residual_new
            trace.append(rss)
            lam = max(lam / 10.0, 1e-15)
        else:
            lam *= 10.0
        # A step this small, taken or refused, moves rss only at rounding
        # level: the parameters already sit at the minimum.
        if rel_step < STEP_RTOL:
            converged = True
            break
        if lam > _LAMBDA_MAX:
            break

    # The model depends on g only through g^2.
    g = abs(g)

    jac = _bb_jacobian(t, j, g)
    jtj = jac.T @ jac
    if n > 2 and converged:
        try:
            cov = np.linalg.inv(jtj) * rss / (n - 2)
            stderr_j = math.sqrt(max(0.0, float(cov[0, 0])))
            stderr_g = math.sqrt(max(0.0, float(cov[1, 1])))
        except np.linalg.LinAlgError as exc:
            raise NumericError("degenerate fit") from exc
    else:
        stderr_j = stderr_g = 0.0

    rss_scale = series.data.unit.value**2
    return FitResult(
        j_over_kb=j,
        g=g,
        rss=rss * rss_scale,
        stderr_j=stderr_j,
        stderr_g=stderr_g,
        iterations=iterations,
        converged=converged,
        rss_trace=tuple(r * rss_scale for r in trace),
    )


def coherence_series(series: SusceptibilitySeries, fit: FitResult) -> SweepTable:
    """Experimental vs fitted zero-field coherence, point by point.

    Points whose chi implies a correlation outside the physical band are
    flagged "unphysical" and carried as NaN rows instead of aborting.
    """
    if not fit.converged:
        raise DataError("fit did not converge; refusing to build the series")
    temps = series.data.temperature
    theory = coherence_longitudinal(DimerParams(fit.j_over_kb, fit.g, temps)).value
    c, physical = correlation_values(series.data, fit.g)
    experimental = np.where(physical, np.abs(c), math.nan)
    return SweepTable(
        column_names=("T_kelvin", "C_experimental", "C_theoretical", "residual"),
        values=np.column_stack([temps, experimental, theory, experimental - theory]),
        annotations={"flag": tuple(np.where(physical, "", "unphysical").tolist())},
        metadata={
            "sample_id": series.sample_id,
            "j_over_kb": repr(fit.j_over_kb),
            "g": repr(fit.g),
            "rss": repr(fit.rss),
            "tool_version": TOOL_VERSION,
        },
    )


__all__ = [
    "FitResult",
    "SusceptibilitySeries",
    "coherence_series",
    "fit_bleaney_bowers",
    "load_series",
]
