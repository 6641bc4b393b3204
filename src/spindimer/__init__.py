"""Thermal quantum coherence of spin-1/2 Heisenberg dimers.

Brute-force two-qubit thermodynamics, the matching closed forms, a
Bleaney-Bowers susceptibility fitter, and a sweep CLI. See README.md.
"""

from .constants import TOOL_VERSION as __version__
from .core import (
    Basis,
    DensityMatrix4,
    DimerParams,
    Hamiltonian4,
    build_hamiltonian,
    eigensystem,
    gibbs_state,
    rotate_to_sx,
)
from .errors import DataError, NumericError
from .models import (
    ChiUnit,
    CriticalField,
    SusceptibilityPoint,
    bleaney_bowers_chi,
    coherence_from_chi,
    coherence_longitudinal,
    coherence_transverse,
    critical_field,
    partition_function,
    rho_zero_field,
)
from .fitting import (
    FitResult,
    SusceptibilitySeries,
    coherence_series,
    fit_bleaney_bowers,
    load_series,
)
from .quantifiers import (
    CoherenceValue,
    DiscordValue,
    geometric_discord_zero_field,
    l1_coherence,
)
from .sweep import PressureTable, SweepSpec, SweepVariable, pressure_to_j, run_sweep
from .tables import SweepTable, emit, read_table_csv, read_table_json, render_table

__all__ = [
    "Basis",
    "ChiUnit",
    "CoherenceValue",
    "CriticalField",
    "DataError",
    "DensityMatrix4",
    "DimerParams",
    "DiscordValue",
    "FitResult",
    "Hamiltonian4",
    "NumericError",
    "PressureTable",
    "SusceptibilityPoint",
    "SusceptibilitySeries",
    "SweepSpec",
    "SweepTable",
    "SweepVariable",
    "bleaney_bowers_chi",
    "build_hamiltonian",
    "coherence_from_chi",
    "coherence_longitudinal",
    "coherence_series",
    "coherence_transverse",
    "critical_field",
    "eigensystem",
    "emit",
    "fit_bleaney_bowers",
    "geometric_discord_zero_field",
    "gibbs_state",
    "l1_coherence",
    "load_series",
    "partition_function",
    "pressure_to_j",
    "read_table_csv",
    "read_table_json",
    "render_table",
    "rho_zero_field",
    "rotate_to_sx",
    "run_sweep",
]
