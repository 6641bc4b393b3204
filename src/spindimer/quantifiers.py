"""Basis-dependent quantum-information quantifiers.

The l1 coherence is the sum of absolute off-diagonal entries of the state
in its declared basis. It never rebases implicitly: coherence is a
basis-dependent quantity, so rotations have to be requested explicitly
through core.rotate_to_sx / rotate_to_sz.
"""

from dataclasses import dataclass

import numpy as np

from .core import Basis, DensityMatrix4, float_or_array
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
    """Trace-norm geometric discord; in [0, 1/2] for the zero-field dimer
    state family."""

    value: float

    def __post_init__(self) -> None:
        if not -_VALUE_SLACK <= self.value <= 0.5 + _VALUE_SLACK:
            raise ValueError("discord for this state family lies in [0, 1/2]")


def l1_coherence(rho: DensityMatrix4) -> CoherenceValue:
    """Sum of |rho_ij| over i != j, in the state's declared basis; one value
    per state of a stack."""
    mags = np.abs(rho.entries)
    value = mags.sum(axis=(-2, -1)) - np.trace(mags, axis1=-2, axis2=-1)
    return CoherenceValue(value, rho.basis)


def geometric_discord_zero_field(coherence: CoherenceValue) -> DiscordValue:
    """Trace-norm geometric discord of a zero-field thermal dimer state.

    For that Bell-diagonal family the discord equals half the l1 coherence.
    The identity does not extend to field-dressed states, so coherences
    above 1 (impossible at zero field) are rejected.
    """
    if coherence.value > 1.0 + 1e-12:
        raise DataError("state outside Bell-diagonal family")
    return DiscordValue(coherence.value / 2.0)
