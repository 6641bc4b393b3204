"""Closed-form thermodynamics and coherence of the spin-1/2 dimer.

Dimer susceptibility (Bleaney-Bowers), the susceptibility -> correlation ->
coherence pipeline at zero field, the field-dressed thermal density matrices
in both product bases, the partition function, the longitudinal and
transverse coherence expressions, and the singlet level-crossing field.

Every closed form is written on the ground-energy-shifted Boltzmann weights
of the four levels, so every exponent is <= 0 and only the partition
function itself can overflow. Parameters may be numpy arrays; scalars are
the 0-d case. Every function here has an independent brute-force
counterpart in `core`; the test suite holds the two routes together at
tight tolerances.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import (
    CURIE_EMU_K_PER_MOL,
    MU_B_KELVIN_PER_TESLA,
    OERSTED_PER_TESLA,
    SI_M3_PER_EMU,
)
from .core import (
    _R2,
    SINGLET,
    TRIPLET_ZERO,
    Basis,
    DensityMatrix4,
    DimerParams,
    build_hamiltonian,
    eigensystem,
    float_or_array,
)
from .errors import DataError, NumericError
from .quantifiers import CoherenceValue

# Noisy experimental points may fall slightly outside the physical
# correlation range; anything beyond this band is a unit or normalization
# mistake, not noise.
CORRELATION_NOISE_TOL = 0.02
_CORRELATION_BAND = (-1.0 - CORRELATION_NOISE_TOL, 1.0 / 3.0 + CORRELATION_NOISE_TOL)

# Critical-field bisection width and route agreement, relative to
# max(B_c, 100 T): 1e-12 T and 1e-9 T up to 100 T, growing with B_c beyond
# that so the bisection always stops above the float spacing of B_c.
_FIELD_SCALE_FLOOR = 100.0
_BISECTION_RTOL = 1e-14
_CROSS_CHECK_RTOL = 1e-11

# Level energies are J * _J_COEF + h * _H_COEF, in the order singlet, then
# triplet m = +1, 0, -1.
_J_COEF = np.array([0.75, -0.25, -0.25, -0.25])
_H_COEF = np.array([0.0, -1.0, 0.0, 1.0])

# Sections per round of the critical-field bisection: one batched
# diagonalization of the 63 inner edges narrows the bracket 64-fold.
_SECTIONS = 64

# The four level eigenstates as rows, in the order of level_energies, written
# in the S_z and (rotated by the symmetric _R2) in the S_x product basis.
_SZ_STATES = np.array([SINGLET, np.eye(4)[0], TRIPLET_ZERO, np.eye(4)[3]])
_LEVEL_STATES = {Basis.SZ: _SZ_STATES, Basis.SX: _SZ_STATES @ _R2}


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

    `tesla` is the closed-form value |J| k_B / (g mu_B); `tesla_bisection`
    comes from bisecting the brute-force ground-state identity. The two are
    cross-checked at construction time by `critical_field`.
    """

    tesla: float
    oersted: float
    tesla_bisection: float


def level_energies(
    j_over_kb: float | np.ndarray, zeeman_kelvin: float | np.ndarray
) -> np.ndarray:
    """Level energies in kelvin, stacked on a new last axis: singlet 3J/4,
    then the triplet m = +1, 0, -1 levels -J/4 - h, -J/4, -J/4 + h."""
    j = np.asarray(j_over_kb, dtype=float)[..., None]
    return j * _J_COEF + np.asarray(zeeman_kelvin, dtype=float)[..., None] * _H_COEF


def _shifted_weights(j, h, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For coupling j, Zeeman energy h and temperature t: the ground energy
    E0, the sum S of the level weights exp(-(E - E0)/T), and the level
    populations (weights / S) in level_energies order. Every exponent is
    <= 0 and the ground level weighs 1, so nothing overflows and S >= 1;
    Z = exp(-E0/T) S."""
    energies = level_energies(j, h)
    e0 = energies.min(axis=-1)
    w = np.exp((e0[..., None] - energies) / np.asarray(t)[..., None])
    total = w.sum(axis=-1)
    return e0, total, w / total[..., None]


def _populations(p: DimerParams) -> np.ndarray:
    return _shifted_weights(p.j_over_kb, p.zeeman_kelvin, p.temperature)[2]


def _level_mixture(p: np.ndarray, basis: Basis) -> DensityMatrix4:
    """sum_k p_k |k><k| over the four levels (populations on the last axis
    of p, in level_energies order), in the given product basis."""
    states = _LEVEL_STATES[basis]
    rho = np.einsum("...k,ki,kj->...ij", p, states, states)
    return DensityMatrix4(rho.astype(complex), basis)


def bleaney_bowers_chi(
    j_over_kb: float, g: float, temperature: float | np.ndarray
) -> SusceptibilityPoint:
    """Molar dimer susceptibility in emu/mol,
    2 N_A (g mu_B)^2 / (k_B T) / (3 + exp(-J/k_B T)).

    The factor 1 / (3 + exp(-J/T)) is the zero-field population of the
    m = 0 triplet, taken from the shifted weights, so chi stays finite for
    any J/T.
    """
    if np.less_equal(temperature, 0.0).any():
        raise ValueError("temperature must be > 0 K")
    triplet_zero = _shifted_weights(j_over_kb, 0.0, temperature)[2][..., 2]
    chi = 2.0 * g**2 * CURIE_EMU_K_PER_MOL / temperature * triplet_zero
    return SusceptibilityPoint(temperature, float_or_array(chi))


def correlation_values(
    point: SusceptibilityPoint, g: float
) -> tuple[np.ndarray, np.ndarray]:
    """Spin-spin correlation c = 2 k_B T chi_molar / (N_A g^2 mu_B^2) - 1 of
    each sample, and the mask of samples inside the physical range widened
    by the noise band. Nothing is clamped or rejected."""
    c = 2.0 * point.temperature * point.chi_emu() / (g**2 * CURIE_EMU_K_PER_MOL) - 1.0
    lo, hi = _CORRELATION_BAND
    return c, (lo <= c) & (c <= hi)


def rho_zero_field(c: float | np.ndarray) -> DensityMatrix4:
    """Zero-field thermal state of the dimer at correlation c (a float or an
    array, as `correlation_values` extracts it from susceptibility).

    Diagonal (1+c, 1-c, 1-c, 1+c)/4 with +-c/2 mixing the central block;
    positivity requires c in [-1, 1/3]. An array of c gives a stack of
    states; the first c outside that range is named in the error.
    """
    cv = np.asarray(c, dtype=float)
    positive = (-1.0 - 1e-12 <= cv) & (cv <= 1.0 / 3.0 + 1e-12)
    if not np.all(positive):
        bad = np.extract(~positive, cv)[0]
        raise DataError(f"nonpositive state: correlation {bad:.6g}")
    # Singlet population (1 - 3c)/4, each triplet level (1 + c)/4.
    p = np.stack([1.0 - 3.0 * cv, 1.0 + cv, 1.0 + cv, 1.0 + cv], axis=-1) / 4.0
    return _level_mixture(p, Basis.SZ)


def coherence_from_chi(point: SusceptibilityPoint, g: float) -> CoherenceValue:
    """l1 coherence |c| of the zero-field state, straight from susceptibility.

    No clamping: a correlation outside the physical range by more than the
    noise band raises "unphysical data point", naming the first such sample.
    """
    c, physical = correlation_values(point, g)
    if not np.all(physical):
        bad = np.extract(~physical, c)[0]
        raise DataError(f"unphysical data point: correlation {bad:.6g}")
    return CoherenceValue(np.abs(c), Basis.SZ)


def partition_function(params: DimerParams) -> float | np.ndarray:
    """Z = e^x + e^(-3x) + 2 e^x cosh(beta h), with x = J/(4T), evaluated as
    exp(-E0/T) times the sum of the shifted level weights.

    Z is the one closed-form quantity that can overflow, once -E0/T passes
    ~709; that raises NumericError("temperature underflow").
    """
    t = params.temperature
    e0, total, _ = _shifted_weights(params.j_over_kb, params.zeeman_kelvin, t)
    with np.errstate(over="ignore"):
        z = np.exp(-e0 / t) * total
    if not np.all(np.isfinite(z)):
        raise NumericError("temperature underflow")
    return float_or_array(z)


def coherence_longitudinal(params: DimerParams) -> CoherenceValue:
    """Thermal l1 coherence in the S_z basis under a longitudinal field:
    |(1 - e^(-4x)) / (1 + e^(-4x) + 2 cosh(beta h))|, evaluated as the
    population difference |p_T0 - p_S|."""
    p = _populations(params)
    return CoherenceValue(np.abs(p[..., 2] - p[..., 0]), Basis.SZ)


def coherence_transverse(params: DimerParams) -> CoherenceValue:
    """Thermal l1 coherence in the S_x basis under a field along z:
    (e^x/Z) (|cosh(bh) - 1| + 4|sinh(bh)| + |cosh(bh) - e^(-4x)|), evaluated
    on populations with e^x cosh(bh)/Z = (p_+ + p_-)/2 and
    4 e^x sinh(bh)/Z = 2 (p_+ - p_-)."""
    p_s, p_plus, p_0, p_minus = np.moveaxis(_populations(params), -1, 0)
    mean = 0.5 * (p_plus + p_minus)
    value = np.abs(mean - p_0) + 2.0 * np.abs(p_plus - p_minus) + np.abs(mean - p_s)
    return CoherenceValue(value, Basis.SX)


def rho_longitudinal(params: DimerParams) -> DensityMatrix4:
    """Field-dressed thermal state in the S_z product basis (X-shaped)."""
    return _level_mixture(_populations(params), Basis.SZ)


def rho_transverse(params: DimerParams) -> DensityMatrix4:
    """Field-dressed thermal state re-expressed in the S_x product basis."""
    return _level_mixture(_populations(params), Basis.SX)


def _ground_is_singlet(j_over_kb: float, g: float, b_tesla) -> np.ndarray:
    """Brute-force ground-state identity used by the bisection route, one
    answer per field in `b_tesla`."""
    params = DimerParams(j_over_kb, g, temperature=1.0, b_field=b_tesla)
    _, evecs = eigensystem(build_hamiltonian(params))
    return (evecs[..., :, 0] @ SINGLET) ** 2 > 0.5


def critical_field(j_over_kb: float, g: float) -> CriticalField:
    """Field at which the singlet ground state crosses the polarized |00>.

    Computed twice: closed form |J| k_B / (g mu_B), and bisection on the
    brute-force ground-state identity over B in [0, 2 B_c], 64 sections per
    round. The final bracket width and the allowed disagreement are 1e-12 T
    and 1e-9 T up to B_c = 100 T and grow in proportion to B_c beyond it; a
    larger disagreement raises NumericError.
    """
    # A finite J and g > 0, checked before B_c divides by g.
    DimerParams(j_over_kb, g, temperature=1.0)
    if j_over_kb >= 0.0:
        raise DataError("no level crossing: coupling must be antiferromagnetic (J < 0)")
    b_closed = -j_over_kb / (g * MU_B_KELVIN_PER_TESLA)
    scale = max(b_closed, _FIELD_SCALE_FLOOR)

    lo, hi = 0.0, 2.0 * b_closed
    singlet_lo, singlet_hi = _ground_is_singlet(j_over_kb, g, np.array([lo, hi]))
    if not singlet_lo:
        raise NumericError("bisection bracket failed at B = 0")
    if singlet_hi:
        raise NumericError(f"no ground-state crossing below {hi!r} T")
    while hi - lo > _BISECTION_RTOL * scale:
        edges = np.linspace(lo, hi, _SECTIONS + 1)
        singlet = _ground_is_singlet(j_over_kb, g, edges[1:-1])
        k = int(np.argmin(np.append(singlet, False)))  # first probe past the crossing
        lo, hi = float(edges[k]), float(edges[k + 1])
    b_bisect = 0.5 * (lo + hi)

    if abs(b_bisect - b_closed) > _CROSS_CHECK_RTOL * scale:
        raise NumericError(
            f"critical-field routes disagree: closed form {b_closed!r} T, "
            f"bisection {b_bisect!r} T"
        )
    return CriticalField(b_closed, b_closed * OERSTED_PER_TESLA, b_bisect)
