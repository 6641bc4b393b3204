"""Exact operator algebra for a spin-1/2 dimer in a longitudinal field.

Everything here is brute force on purpose: Hamiltonians are assembled from
Kronecker products of single-spin operators, thermal states come from a full
eigendecomposition, and the S_x basis change is an exact Hadamard butterfly
(sums and differences, then a power-of-two scale) equal to conjugation by
_R2. A longitudinal-field state is real, so states stay real throughout.
The closed-form expressions elsewhere in the package are checked against
this layer, never the other way around.

Validation happens once, at the boundary. The public constructors
(DimerParams, Hamiltonian4, DensityMatrix4) check every matrix in full. The
builders here (build_hamiltonian, gibbs_state, rotate_to_sx) check only
what their construction leaves open, then create their result through
_trusted, which skips the constructor's checks: a sweep's states are never
re-diagonalized just to prove they are states.

Conventions: |0> is the spin-up S_z eigenstate, the two-spin product basis
is ordered {|00>, |01>, |10>, |11>}, and all energies are stored in kelvin
(divided by k_B) so matrix entries stay O(1).
"""

from dataclasses import dataclass
from enum import Enum
from typing import TypeVar

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


_T = TypeVar("_T")


def _trusted(cls: type[_T], **fields) -> _T:
    """An instance of the frozen dataclass `cls` holding `fields`, without
    running its __post_init__ checks. An array field is stored as a
    read-only view, so an array the caller still holds stays writeable.

    Only for objects the package built itself, after checking whatever their
    construction does not guarantee. Every field must be passed.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value = value.view()
            value.flags.writeable = False
        object.__setattr__(obj, name, value)
    return obj


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
        j, g, t, b = self.j_over_kb, self.g, self.temperature, self.b_field
        # One combined check on the common path, which every CLI request
        # passes through; the messages are sorted out only on failure.
        # Fields that are not numbers or do not broadcast together are
        # checked one by one.
        try:
            ok = np.isfinite(j) & np.isfinite(g) & np.isfinite(t) & np.isfinite(b)
            if (ok & np.greater(g, 0.0) & np.greater(t, 0.0)).all():
                return
        except (TypeError, ValueError):
            pass
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
    """4x4 real symmetric two-spin Hamiltonian with finite entries in
    kelvin, or a (..., 4, 4) stack of them, each checked on its own scale."""

    entries: np.ndarray

    def __post_init__(self) -> None:
        h = np.asarray(self.entries)
        h = np.asarray(h, dtype=complex if np.iscomplexobj(h) else float)
        if not np.isfinite(h).all():
            raise ValueError("Hamiltonian entries must be finite")
        if np.iscomplexobj(h):
            if np.any(h.imag != 0.0):
                raise ValueError("Hamiltonian must be real symmetric")
            h = h.real
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
    """Two-qubit state: finite, Hermitian, unit trace, positive semidefinite,
    tagged with the product basis its entries refer to. A (..., 4, 4) stack
    holds one state per leading index, all in the same basis. Entries keep
    their kind: real ones are stored as float64, complex ones as complex128."""

    entries: np.ndarray
    basis: Basis

    def __post_init__(self) -> None:
        rho = np.asarray(self.entries)
        rho = np.asarray(rho, dtype=complex if np.iscomplexobj(rho) else float)
        if not np.isfinite(rho).all():
            raise ValueError("density matrix entries must be finite")
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

    The matrix is real symmetric constants times two scalars, so the only
    thing left to check is that its entries are finite: g mu_B B can
    overflow for a finite B. The largest entry is |J|/4 + |h|, so that one
    scalar per matrix is checked instead of its 16 entries.
    """
    j = np.asarray(params.j_over_kb, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        h = np.asarray(params.zeeman_kelvin, dtype=float)
        largest = 0.25 * np.abs(j) + np.abs(h)
    if not np.isfinite(largest).all():
        raise ValueError("Hamiltonian entries must be finite")
    entries = -j[..., None, None] * _S1_DOT_S2 - h[..., None, None] * _SZ_TOTAL
    return _trusted(Hamiltonian4, entries=entries)


def eigensystem(h: Hamiltonian4) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and orthonormal eigenvectors (as columns), as
    `np.linalg.eigh` returns them: each eigenvector's sign is whatever LAPACK
    gives, so callers use only squared or absolute components."""
    return np.linalg.eigh(h.entries)


def gibbs_state(h: Hamiltonian4, temperature: float | np.ndarray) -> DensityMatrix4:
    """Thermal state exp(-H/T)/Z via eigendecomposition.

    Energies are shifted by the ground energy before exponentiating, so the
    Boltzmann weights cannot overflow even at sub-microkelvin temperatures.
    A stack of Hamiltonians takes one temperature per matrix (or one for
    all) and is diagonalized in a single call.

    Finite entries near the float limit can still give infinite eigenvalues,
    which raise NumericError. Otherwise every weight lies in [0, 1] (a shift
    that overflows weighs exactly 0) and the ground weight is 1, so the
    normalized weights are finite and are the state's spectrum. With
    orthonormal eigenvectors the state is then symmetric, of unit trace and
    positive semidefinite by construction, with no eigvalsh to re-derive it.
    """
    t = np.asarray(temperature, dtype=float)
    if (t <= 0.0).any():
        raise ValueError("temperature must be > 0 K")
    if not np.isfinite(t).all():
        raise ValueError("temperature must be finite")
    evals, evecs = np.linalg.eigh(h.entries)
    if not np.isfinite(evals).all():
        raise NumericError("Hamiltonian eigenvalues overflow")
    with np.errstate(over="ignore"):
        shifted = evals - evals.min(axis=-1, keepdims=True)
        weights = np.exp(-shifted / t[..., None])
    weights /= weights.sum(axis=-1, keepdims=True)
    rho = (evecs * weights[..., None, :]) @ np.swapaxes(evecs, -1, -2)
    return _trusted(DensityMatrix4, entries=rho, basis=Basis.SZ)


def _butterfly(src: np.ndarray, dst: np.ndarray, stride: int) -> None:
    """(x, y) -> (x + y, x - y) over the bit of the given stride in the
    16-entry index on the first axis of a (16, N) stack, written into dst.
    Each ufunc call then runs over whole rows of N matrices."""
    n = src.shape[-1]
    x, y = src.reshape(-1, 2, stride, n), dst.reshape(-1, 2, stride, n)
    np.add(x[:, 0], x[:, 1], out=y[:, 0])
    np.subtract(x[:, 0], x[:, 1], out=y[:, 1])


def rotate_to_sx(rho: DensityMatrix4) -> DensityMatrix4:
    """Re-express an S_z-basis state in the S_x product basis.

    _R2 rho _R2 with _R2 = (H x H)/2 is one Hadamard butterfly over each of
    the four qubit indices of the flattened matrix, then an exact * 0.25.
    Every matrix of a stack is rotated by the same elementwise operations,
    so the result does not depend on the stack size, and dyadic inputs
    rotate exactly.

    The input was checked when it was built, and an orthogonal conjugation
    keeps its symmetry, trace and spectrum, so the result is not checked
    again.
    """
    if rho.basis is not Basis.SZ:
        raise ValueError("rotate_to_sx expects a state in the Sz basis")
    entries = rho.entries.reshape(-1, 16).T
    a = np.empty(entries.shape, dtype=entries.dtype)
    b = np.empty_like(a)
    _butterfly(entries, a, 8)
    _butterfly(a, b, 4)
    _butterfly(b, a, 2)
    _butterfly(a, b, 1)
    b *= 0.25
    # Back to one C-ordered matrix per row: reductions over each matrix,
    # as in l1_coherence, then add in the same order at every stack size.
    rotated = np.ascontiguousarray(b.T).reshape(rho.entries.shape)
    return _trusted(DensityMatrix4, entries=rotated, basis=Basis.SX)

