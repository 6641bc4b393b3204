"""Exact operator algebra for a spin-1/2 dimer in a longitudinal field.

Everything here is brute force on purpose: Hamiltonians are assembled from
Kronecker products of single-spin operators, thermal states come from a full
eigendecomposition, and the S_x basis change is an exact Hadamard butterfly
(sums and differences, then a power-of-two scale) equal to conjugation by
_R2. A longitudinal-field state is real, so states stay real throughout.
The closed-form expressions elsewhere in the package are checked against
this layer, never the other way around.

Conventions: |0> is the spin-up S_z eigenstate, the two-spin product basis
is ordered {|00>, |01>, |10>, |11>}, and all energies are stored in kelvin
(divided by k_B) so matrix entries stay O(1).
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .constants import MU_B_KELVIN_PER_TESLA
from .errors import NumericError

HERMITICITY_ATOL = 1e-12
TRACE_ATOL = 1e-12
EIGENVALUE_FLOOR = -1e-10


class Basis(Enum):
    """Two-spin product eigenbasis a density matrix is expressed in."""

    SZ = "z"
    SX = "x"


# Single-spin operators (spin 1/2).
_ID2 = np.eye(2)
_SX1 = 0.5 * np.array([[0.0, 1.0], [1.0, 0.0]])
_SY1 = 0.5 * np.array([[0.0, -1.0j], [1.0j, 0.0]])
_SZ1 = 0.5 * np.array([[1.0, 0.0], [0.0, -1.0]])

# S1.S2 is real in the product basis even though S_y is not.
_S1_DOT_S2 = (
    np.kron(_SX1, _SX1) + np.kron(_SY1, _SY1) + np.kron(_SZ1, _SZ1)
).real
_SZ_TOTAL = np.kron(_SZ1, _ID2) + np.kron(_ID2, _SZ1)

# Single-qubit rotation mapping S_z eigenstates onto S_x eigenstates,
# |+-> = (|0> +- |1>)/sqrt(2). Symmetric, orthogonal, self-inverse.
_R = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
_R2 = np.kron(_R, _R)

SINGLET = np.array([0.0, 1.0, -1.0, 0.0]) / np.sqrt(2.0)
TRIPLET_ZERO = np.array([0.0, 1.0, 1.0, 0.0]) / np.sqrt(2.0)


def float_or_array(x) -> float | np.ndarray:
    """A 0-d result as a Python float, anything else as a float array."""
    x = np.asarray(x, dtype=float)
    return float(x) if x.ndim == 0 else x


@dataclass(frozen=True)
class DimerParams:
    """Physical parameters of one computation, or of a batch of them.

    j_over_kb is the isotropic exchange constant divided by k_B, in kelvin;
    negative values are antiferromagnetic. b_field is the magnitude of the
    field applied along z, in tesla. Each field is a float or a numpy array;
    arrays broadcast against each other and every element is validated.
    """

    j_over_kb: float | np.ndarray
    g: float | np.ndarray
    temperature: float | np.ndarray
    b_field: float | np.ndarray = 0.0

    def __post_init__(self) -> None:
        for name in ("j_over_kb", "g", "temperature", "b_field"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite")
        if np.less_equal(self.temperature, 0.0).any():
            raise ValueError("temperature must be > 0 K")
        if np.less_equal(self.g, 0.0).any():
            raise ValueError("g must be > 0")

    @property
    def zeeman_kelvin(self) -> float | np.ndarray:
        """Zeeman energy scale h = g mu_B B / k_B, in kelvin."""
        return self.g * MU_B_KELVIN_PER_TESLA * self.b_field


@dataclass(frozen=True)
class Hamiltonian4:
    """4x4 real symmetric two-spin Hamiltonian, entries in kelvin, or a
    (..., 4, 4) stack of them, each checked on its own scale."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.entries)
        if np.iscomplexobj(h):
            if np.any(h.imag != 0.0):
                raise ValueError("Hamiltonian must be real symmetric")
            h = h.real
        h = np.asarray(h, dtype=float)
        if h.shape[-2:] != (4, 4):
            raise ValueError("Hamiltonian must be 4x4")
        scale = np.maximum(1.0, np.abs(h).max(axis=(-2, -1)))
        asym = np.abs(h - np.swapaxes(h, -1, -2)).max(axis=(-2, -1))
        if np.any(asym > HERMITICITY_ATOL * scale):
            raise ValueError("Hamiltonian must be symmetric")
        object.__setattr__(self, "entries", h)
        h.flags.writeable = False


@dataclass(frozen=True)
class DensityMatrix4:
    """Two-qubit state: Hermitian, unit trace, positive semidefinite,
    tagged with the product basis its entries refer to. A (..., 4, 4) stack
    holds one state per leading index, all in the same basis. Entries keep
    their kind: real ones are stored as float64, complex ones as complex128."""

    entries: np.ndarray
    basis: Basis

    def __post_init__(self) -> None:
        rho = np.asarray(self.entries)
        rho = np.asarray(rho, dtype=complex if np.iscomplexobj(rho) else float)
        if rho.shape[-2:] != (4, 4):
            raise ValueError("density matrix must be 4x4")
        if np.any(np.abs(rho - np.swapaxes(rho, -1, -2).conj()) > HERMITICITY_ATOL):
            raise ValueError("density matrix must be Hermitian")
        if np.any(np.abs(np.trace(rho, axis1=-2, axis2=-1) - 1.0) > TRACE_ATOL):
            raise ValueError("density matrix must have unit trace")
        if np.any(np.linalg.eigvalsh(rho)[..., 0] < EIGENVALUE_FLOOR):
            raise ValueError("density matrix must be positive semidefinite")
        object.__setattr__(self, "entries", rho)
        rho.flags.writeable = False


def build_hamiltonian(params: DimerParams) -> Hamiltonian4:
    """Assemble -J S1.S2 - g mu_B B (S1z + S2z) in the S_z product basis.

    The spectrum is {-J/4 - h, -J/4, -J/4 + h, 3J/4} in kelvin, with
    h = g mu_B B / k_B. Array parameters give one matrix per broadcast
    element.
    """
    j = np.asarray(params.j_over_kb, dtype=float)[..., None, None]
    h = np.asarray(params.zeeman_kelvin, dtype=float)[..., None, None]
    return Hamiltonian4(-j * _S1_DOT_S2 - h * _SZ_TOTAL)


def eigensystem(h: Hamiltonian4) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors (as columns).

    Signs are fixed deterministically: the largest-magnitude component of
    each eigenvector is made positive.
    """
    evals, evecs = np.linalg.eigh(h.entries)
    lead = np.argmax(np.abs(evecs), axis=-2)[..., None, :]
    flip = np.take_along_axis(evecs, lead, axis=-2) < 0.0
    return evals, np.where(flip, -evecs, evecs)


def gibbs_state(h: Hamiltonian4, temperature: float | np.ndarray) -> DensityMatrix4:
    """Thermal state exp(-H/T)/Z via eigendecomposition.

    Energies are shifted by the ground energy before exponentiating, so the
    Boltzmann weights cannot overflow even at sub-microkelvin temperatures;
    anything non-finite that slips through raises NumericError. A stack of
    Hamiltonians takes one temperature per matrix (or one for all) and is
    diagonalized in a single call.
    """
    t = np.asarray(temperature, dtype=float)
    if np.any(t <= 0.0):
        raise ValueError("temperature must be > 0 K")
    evals, evecs = np.linalg.eigh(h.entries)
    shifted = evals - evals.min(axis=-1, keepdims=True)
    weights = np.exp(-shifted / t[..., None])
    if not np.all(np.isfinite(weights)):
        raise NumericError("temperature underflow")
    weights /= weights.sum(axis=-1, keepdims=True)
    rho = (evecs * weights[..., None, :]) @ np.swapaxes(evecs, -1, -2)
    return DensityMatrix4(rho, Basis.SZ)


def _butterfly(src: np.ndarray, dst: np.ndarray, stride: int) -> None:
    """(x, y) -> (x + y, x - y) over the bit of the given stride in the
    flattened 16-entry index of each matrix, written into dst."""
    x, y = src.reshape(-1, 2, stride), dst.reshape(-1, 2, stride)
    np.add(x[:, 0], x[:, 1], out=y[:, 0])
    np.subtract(x[:, 0], x[:, 1], out=y[:, 1])


def rotate_to_sx(rho: DensityMatrix4) -> DensityMatrix4:
    """Re-express an S_z-basis state in the S_x product basis.

    _R2 rho _R2 with _R2 = (H x H)/2 is one Hadamard butterfly over each of
    the four qubit indices of the flattened matrix, then an exact * 0.25.
    Every matrix of a stack is rotated by the same elementwise operations,
    so the result does not depend on the stack size, and dyadic inputs
    rotate exactly.
    """
    if rho.basis is not Basis.SZ:
        raise ValueError("rotate_to_sx expects a state in the Sz basis")
    flat = rho.entries.reshape(-1, 16)
    a, b = np.empty_like(flat), np.empty_like(flat)
    _butterfly(flat, a, 8)
    _butterfly(a, b, 4)
    _butterfly(b, a, 2)
    _butterfly(a, b, 1)
    b *= 0.25
    return DensityMatrix4(b.reshape(rho.entries.shape), Basis.SX)

