"""Closed-form thermodynamics and coherence of the spin-1/2 dimer.

Dimer susceptibility (Bleaney-Bowers), the susceptibility -> correlation ->
coherence pipeline at zero field with its thermal state, the partition
function, the longitudinal and transverse coherence expressions, and the
singlet level-crossing field.

Every closed form is written on the ground-energy-shifted Boltzmann weights
of the four levels, so every exponent is <= 0 and, of the exponentials,
only the partition function can overflow. Parameters may be numpy arrays;
scalars are the 0-d case. Every function here has an independent brute-force
counterpart in `core`; the test suite holds the two routes together at
tight tolerances. The critical field is computed both ways on every call:
its brute-force value is the zero of the singlet - |00> level gap read off
two batched diagonalizations, and a disagreement raises NumericError.
"""

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .constants import (
    CURIE_EMU_K_PER_MOL,
    MU_B_KELVIN_PER_TESLA,
    OERSTED_PER_TESLA,
    SI_M3_PER_EMU,
)
from .core import (
    SINGLET,
    TRIPLET_ZERO,
    Basis,
    DensityMatrix4,
    DimerParams,
    _trusted,
    build_hamiltonian,
    eigensystem,
    float_or_array,
)
from .errors import DataError, NumericError
from .quantifiers import CoherenceValue

# Noisy experimental points may fall slightly above the physical bound 1/3;
# anything beyond this band is a unit or normalization mistake, not noise.
# A point's chi >= 0 and T > 0 already give c >= -1 exactly.
CORRELATION_NOISE_TOL = 0.02
_CORRELATION_MAX = 1.0 / 3.0 + CORRELATION_NOISE_TOL

# Critical-field bracket width and route agreement, relative to
# max(B_c, 100 T): both 1e-12 T up to 100 T, growing with B_c beyond that so
# the final bracket always stays wider than the float spacing of B_c. The
# worst disagreement over 40,000 random points (|J| log-uniform 1e-6 to
# 1e6 K, g 0.5 to 5) and |J| from 1e-300 to 1e306 K was 4.0e-16 of the
# scale; the agreement bound is 25 times that.
_FIELD_SCALE_FLOOR = 100.0
_BRACKET_RTOL = 1e-14
_CROSS_CHECK_RTOL = 1e-14

# Level energies are J * _J_COEF + h * _H_COEF, in the order singlet, then
# triplet m = +1, 0, -1.
_J_COEF = np.array([0.75, -0.25, -0.25, -0.25])
_H_COEF = np.array([0.0, -1.0, 0.0, 1.0])

# The four level eigenstates as rows, in the order of level_energies, in the
# S_z product basis.
_SZ_STATES = np.array([SINGLET, np.eye(4)[0], TRIPLET_ZERO, np.eye(4)[3]])


class ChiUnit(Enum):
    """Units a susceptibility value is reported in. Each member's value is
    1 emu/mol expressed in that unit, the one conversion factor the package
    uses."""

    EMU_PER_MOL = 1.0
    SI_M3_PER_MOL = SI_M3_PER_EMU


def in_domain(
    temperature: float | np.ndarray, chi: float | np.ndarray
) -> np.ndarray:
    """Mask of the samples a `SusceptibilityPoint` accepts: finite T > 0 K
    and finite chi >= 0."""
    return (0.0 < temperature) & (temperature < np.inf) & (0.0 <= chi) & (chi < np.inf)


@dataclass(frozen=True)
class SusceptibilityPoint:
    """One (temperature, susceptibility) sample, or equal-shaped arrays of
    them."""

    temperature: float | np.ndarray
    chi: float | np.ndarray
    unit: ChiUnit = ChiUnit.EMU_PER_MOL

    def __post_init__(self) -> None:
        t, chi = self.temperature, self.chi
        # One combined check on the common path, which every model
        # evaluation of the fit passes through; the messages are sorted out
        # only on failure.
        if np.all(in_domain(t, chi)):
            return
        if not np.all(np.isfinite(t) & np.isfinite(chi)):
            raise ValueError("susceptibility point must be finite")
        if np.any(t <= 0.0):
            raise ValueError("temperature must be > 0 K")
        raise ValueError("susceptibility must be >= 0 for this model")

    def chi_emu(self) -> float | np.ndarray:
        """Susceptibility in emu/mol regardless of the stored unit."""
        return self.chi / self.unit.value


@dataclass(frozen=True)
class CriticalField:
    """Singlet / polarized-triplet level-crossing field.

    `tesla` is the closed-form value |J| k_B / (g mu_B); `tesla_oracle` is
    the zero of the brute-force singlet - |00> level gap. The two are
    cross-checked at construction time by `critical_field`.
    """

    tesla: float
    oersted: float
    tesla_oracle: float


def level_energies(
    j_over_kb: float | np.ndarray, zeeman_kelvin: float | np.ndarray
) -> np.ndarray:
    """Level energies in kelvin, stacked on a new last axis: singlet 3J/4,
    then the triplet m = +1, 0, -1 levels -J/4 - h, -J/4, -J/4 + h."""
    j = np.asarray(j_over_kb, dtype=float)[..., None]
    return j * _J_COEF + np.asarray(zeeman_kelvin, dtype=float)[..., None] * _H_COEF


class ThermalLevels(NamedTuple):
    """The four levels at coupling j, Zeeman energy h and temperature t:
    their energies, the ground energy E0, the sum S of the level weights
    exp(-(E - E0)/T), and the populations (weights / S). Energies and
    populations hold the levels on their last axis, in level_energies order.
    Every exponent is <= 0 and the ground level weighs 1, so nothing
    overflows and S >= 1; Z = exp(-E0/T) S."""

    energies: np.ndarray
    e0: np.ndarray
    weight_sum: np.ndarray
    populations: np.ndarray


def thermal_levels(j, h, t) -> ThermalLevels:
    """One pass over the levels, from which every closed form here is
    derived."""
    energies = level_energies(j, h)
    e0 = energies.min(axis=-1)
    w = np.exp((e0[..., None] - energies) / np.asarray(t)[..., None])
    total = w.sum(axis=-1)
    return ThermalLevels(energies, e0, total, w / total[..., None])


def _levels(p: DimerParams) -> ThermalLevels:
    return thermal_levels(p.j_over_kb, p.zeeman_kelvin, p.temperature)


def bleaney_bowers_chi(
    j_over_kb: float, g: float, temperature: float | np.ndarray
) -> SusceptibilityPoint:
    """Molar dimer susceptibility in emu/mol,
    2 N_A (g mu_B)^2 / (k_B T) / (3 + exp(-J/k_B T)).

    The factor 1 / (3 + exp(-J/T)) is the zero-field population of the
    m = 0 triplet, taken from the shifted weights, so chi stays finite for
    any J/T. A chi that overflows, through g^2 or through a small T, raises
    NumericError.
    """
    if np.less_equal(temperature, 0.0).any():
        raise ValueError("temperature must be > 0 K")
    triplet_zero = thermal_levels(j_over_kb, 0.0, temperature).populations[..., 2]
    with np.errstate(over="ignore", invalid="ignore"):
        chi = 2.0 * np.square(g) * CURIE_EMU_K_PER_MOL / temperature * triplet_zero
    try:
        return SusceptibilityPoint(temperature, float_or_array(chi))
    except ValueError:
        # From finite inputs chi is >= 0, so it fails only by overflowing.
        if np.isfinite(j_over_kb) and np.isfinite(g) and np.isfinite(temperature).all():
            raise NumericError(f"susceptibility overflows at g = {g:g}") from None
        raise


def correlation_values(
    point: SusceptibilityPoint, g: float
) -> tuple[np.ndarray, np.ndarray]:
    """Spin-spin correlation c = 2 k_B T chi_molar / (N_A g^2 mu_B^2) - 1 of
    each sample, and the mask of samples at most the noise band above 1/3.
    Nothing is clamped or rejected. A g whose square underflows gives
    c = inf, and a NaN c is outside the band too."""
    # A finite g > 0, checked as DimerParams checks it.
    DimerParams(0.0, g, temperature=1.0)
    # In numpy scalars g^2 = 0 divides to inf, where Python floats would
    # raise ZeroDivisionError; every finite result keeps the same bits.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        scale = np.float64(g) ** 2 * CURIE_EMU_K_PER_MOL
        c = 2.0 * point.temperature * point.chi_emu() / scale - 1.0
    return c, c <= _CORRELATION_MAX


def rho_zero_field(c: float | np.ndarray) -> DensityMatrix4:
    """Zero-field thermal state of the dimer at correlation c (a float or an
    array, as `correlation_values` extracts it from susceptibility).

    Diagonal (1+c, 1-c, 1-c, 1+c)/4 with +-c/2 mixing the central block;
    positivity requires c in [-1, 1/3]. An array of c gives a stack of
    states; the first c outside that range, NaN and inf included, is named
    in the error.
    """
    cv = np.asarray(c, dtype=float)
    positive = (-1.0 - 1e-12 <= cv) & (cv <= 1.0 / 3.0 + 1e-12)
    if not np.all(positive):
        bad = np.extract(~positive, cv)[0]
        raise DataError(f"nonpositive state: correlation {bad:.6g}")
    # Singlet population (1 - 3c)/4, each triplet level (1 + c)/4. The level
    # states are orthonormal, so these populations are the state's spectrum.
    p = np.stack([1.0 - 3.0 * cv, 1.0 + cv, 1.0 + cv, 1.0 + cv], axis=-1) / 4.0
    rho = np.einsum("...k,ki,kj->...ij", p, _SZ_STATES, _SZ_STATES)
    return _trusted(DensityMatrix4, entries=rho, basis=Basis.SZ)


def coherence_from_chi(point: SusceptibilityPoint, g: float) -> CoherenceValue:
    """l1 coherence |c| of the zero-field state, straight from susceptibility.

    No clamping: a correlation above 1/3 by more than the noise band raises
    "unphysical data point", naming the first such sample.
    """
    c, physical = correlation_values(point, g)
    if not np.all(physical):
        bad = np.extract(~physical, c)[0]
        raise DataError(f"unphysical data point: correlation {bad:.6g}")
    return CoherenceValue(np.abs(c), Basis.SZ)


def partition_from_levels(levels: ThermalLevels, t) -> np.ndarray:
    """Z = exp(-E0/T) S at temperature(s) t; an overflow raises
    NumericError("temperature underflow")."""
    with np.errstate(over="ignore"):
        z = np.exp(-levels.e0 / t) * levels.weight_sum
    if not np.all(np.isfinite(z)):
        raise NumericError("temperature underflow")
    return z


def partition_function(params: DimerParams) -> float | np.ndarray:
    """Z = e^x + e^(-3x) + 2 e^x cosh(beta h), with x = J/(4T), evaluated as
    exp(-E0/T) times the sum of the shifted level weights.

    Z is the one closed-form quantity that can overflow, once -E0/T passes
    ~709; that raises NumericError("temperature underflow").
    """
    return float_or_array(partition_from_levels(_levels(params), params.temperature))


def longitudinal_l1(populations: np.ndarray) -> np.ndarray:
    """S_z l1 coherence |p_T0 - p_S| from populations in level order."""
    return np.abs(populations[..., 2] - populations[..., 0])


def transverse_l1(populations: np.ndarray) -> np.ndarray:
    """S_x l1 coherence from populations in level order; see
    coherence_transverse."""
    p_s, p_plus, p_0, p_minus = np.moveaxis(populations, -1, 0)
    mean = 0.5 * (p_plus + p_minus)
    return np.abs(mean - p_0) + 2.0 * np.abs(p_plus - p_minus) + np.abs(mean - p_s)


def coherence_longitudinal(params: DimerParams) -> CoherenceValue:
    """Thermal l1 coherence in the S_z basis under a longitudinal field:
    |(1 - e^(-4x)) / (1 + e^(-4x) + 2 cosh(beta h))|, evaluated as the
    population difference |p_T0 - p_S|."""
    return CoherenceValue(longitudinal_l1(_levels(params).populations), Basis.SZ)


def coherence_transverse(params: DimerParams) -> CoherenceValue:
    """Thermal l1 coherence in the S_x basis under a field along z:
    (e^x/Z) (|cosh(bh) - 1| + 4|sinh(bh)| + |cosh(bh) - e^(-4x)|), evaluated
    on populations with e^x cosh(bh)/Z = (p_+ + p_-)/2 and
    4 e^x sinh(bh)/Z = 2 (p_+ - p_-)."""
    return CoherenceValue(transverse_l1(_levels(params).populations), Basis.SX)


def _level_gap(
    j_over_kb: float, g: float, b_tesla: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Brute-force level gap E_S - E_00 in kelvin and whether the singlet is
    the ground state, one of each per field in the 1-d `b_tesla`, from one
    batched diagonalization.

    The singlet-like and |00>-like levels are the eigenpairs with the largest
    squared overlap with SINGLET and with |00>; their energies come from
    `eigh`. J and g are checked by critical_field, and every field lies in
    its bracket, which it checks once.
    """
    params = _trusted(
        DimerParams, j_over_kb=j_over_kb, g=g, temperature=1.0, b_field=b_tesla
    )
    evals, evecs = eigensystem(build_hamiltonian(params))
    singlet = (SINGLET @ evecs) ** 2
    rows = np.arange(len(evals))
    e_singlet = evals[rows, singlet.argmax(axis=-1)]
    e_polarized = evals[rows, np.abs(evecs[:, 0, :]).argmax(axis=-1)]
    return e_singlet - e_polarized, singlet[:, 0] > 0.5


def critical_field(j_over_kb: float, g: float) -> CriticalField:
    """Field at which the singlet ground state crosses the polarized |00>.

    Computed twice: closed form |J| k_B / (g mu_B), and from the brute-force
    level gap E_S - E_00, which is linear in B. Two diagonalizations give
    the oracle value. The first is at the bracket ends 0 and 2 B_c: the
    singlet must be the ground state at B = 0 and not at 2 B_c, and the
    zero of the line through the two gaps, clamped to the bracket, is the
    oracle value. The second is at two fields a width w apart around it,
    across which the ground state must change. w and the allowed
    disagreement with the closed form are both 1e-12 T up to B_c = 100 T, and
    both grow in proportion to B_c beyond it. A larger disagreement raises
    NumericError.
    """
    # A finite J and g > 0, checked before B_c divides by g.
    DimerParams(j_over_kb, g, temperature=1.0)
    if j_over_kb >= 0.0:
        raise DataError("no level crossing: coupling must be antiferromagnetic (J < 0)")
    b_closed = -j_over_kb / (g * MU_B_KELVIN_PER_TESLA)
    scale = max(b_closed, _FIELD_SCALE_FLOOR)

    lo, hi = 0.0, 2.0 * b_closed
    if not math.isfinite(hi):
        raise ValueError("b_field must be finite")
    (gap_lo, gap_hi), (singlet_lo, singlet_hi) = _level_gap(
        j_over_kb, g, np.array([lo, hi])
    )
    if not singlet_lo:
        raise NumericError("critical-field bracket failed at B = 0")
    if singlet_hi:
        raise NumericError(f"no ground-state crossing below {hi!r} T")

    slope = (gap_hi - gap_lo) / hi
    b_oracle = float(min(max(-gap_lo / slope, lo), hi))

    half = 0.5 * _BRACKET_RTOL * scale
    probes = np.array([max(b_oracle - half, lo), min(b_oracle + half, hi)])
    _, (singlet_below, singlet_above) = _level_gap(j_over_kb, g, probes)
    if not singlet_below or singlet_above:
        raise NumericError(f"ground state does not change across {b_oracle!r} T")

    if abs(b_oracle - b_closed) > _CROSS_CHECK_RTOL * scale:
        raise NumericError(
            f"critical-field routes disagree: closed form {b_closed!r} T, "
            f"oracle {b_oracle!r} T"
        )
    return CriticalField(b_closed, b_closed * OERSTED_PER_TESLA, b_oracle)
