"""Basis-dependent quantum-information quantifiers.

The l1 coherence is the sum of absolute off-diagonal entries of the state
in its declared basis. It never rebases implicitly: coherence is a
basis-dependent quantity, so a rotation has to be requested explicitly
through core.rotate_to_sx.
"""

from dataclasses import dataclass

import numpy as np

from .core import Basis, DensityMatrix4, _trusted, float_or_array
from .errors import DataError

_VALUE_SLACK = 1e-9


@dataclass(frozen=True)
class CoherenceValue:
    """Dimensionless l1 coherence, in [0, 3] for two qubits, with the basis
    it was evaluated in; `value` is an array for a batch of states."""

    value: float | np.ndarray
    basis: Basis

    def __post_init__(self) -> None:
        v = float_or_array(self.value)
        if not np.all((-_VALUE_SLACK <= v) & (v <= 3.0 + _VALUE_SLACK)):
            raise ValueError("two-qubit l1 coherence must lie in [0, 3]")
        object.__setattr__(self, "value", v)


@dataclass(frozen=True)
class DiscordValue:
    """Trace-norm geometric discord; in [0, 1/2] for the dimer's thermal
    states. `value` is an array for a batch of states."""

    value: float | np.ndarray

    def __post_init__(self) -> None:
        v = self.value
        if not np.all((-_VALUE_SLACK <= v) & (v <= 0.5 + _VALUE_SLACK)):
            raise ValueError("discord for this state family lies in [0, 1/2]")


def l1_coherence(rho: DensityMatrix4) -> CoherenceValue:
    """Sum of |rho_ij| over i != j, in the state's declared basis; one value
    per state of a stack.

    A checked state is positive semidefinite, so |rho_ij| <= sqrt(rho_ii
    rho_jj) puts the sum in [0, 3] and the range is not checked again.
    """
    mags = np.abs(rho.entries)
    value = mags.sum(axis=(-2, -1)) - np.trace(mags, axis1=-2, axis2=-1)
    return _trusted(CoherenceValue, value=float_or_array(value), basis=rho.basis)


def geometric_discord_zero_field(coherence: CoherenceValue) -> DiscordValue:
    """Trace-norm geometric discord Q = C_z/2 of a thermal dimer state.

    Zero-field states are Bell-diagonal and longitudinal-field ones X
    states; for both Q is half the S_z l1 coherence (Ciccarello, Tufarelli
    & Giovannetti, NJP 16, 013038 (2014)), so coherences in another basis,
    and S_z coherences above 1, which no such state reaches, are refused.
    """
    if coherence.basis is not Basis.SZ:
        raise DataError("discord needs the l1 coherence in the S_z basis")
    if np.any(coherence.value > 1.0 + 1e-12):
        raise DataError("state outside Bell-diagonal family")
    return DiscordValue(coherence.value / 2.0)
