"""Coherence and discord quantifiers on four-level states."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spindimer import (
    Basis,
    CoherenceValue,
    DataError,
    DensityMatrix4,
    DiscordValue,
    geometric_discord_zero_field,
    gibbs_state,
    l1_coherence,
    rotate_to_sx,
    build_hamiltonian,
    coherence_longitudinal,
    coherence_transverse,
    DimerParams,
)
from spindimer.core import SINGLET


def _dm(matrix):
    return DensityMatrix4(np.asarray(matrix, dtype=complex), Basis.SZ)


def test_maximally_mixed_has_zero_coherence():
    c = l1_coherence(_dm(np.eye(4) / 4.0))
    assert c.value == 0.0
    assert c.basis is Basis.SZ


def test_singlet_coherence_is_one():
    c = l1_coherence(_dm(np.outer(SINGLET, SINGLET)))
    assert c.value == pytest.approx(1.0, abs=1e-15)


def test_uniform_superposition_saturates_bound():
    # |psi> = (|00>+|01>+|10>+|11>)/2 has all sixteen entries 1/4, so the
    # off-diagonal sum hits the d-1 = 3 ceiling.
    c = l1_coherence(_dm(np.full((4, 4), 0.25)))
    assert c.value == pytest.approx(3.0, abs=1e-15)


def test_coherence_value_range_check():
    with pytest.raises(ValueError):
        CoherenceValue(-0.1, Basis.SZ)
    with pytest.raises(ValueError):
        CoherenceValue(3.1, Basis.SZ)


def test_discord_endpoints():
    assert geometric_discord_zero_field(CoherenceValue(0.0, Basis.SZ)).value == 0.0
    assert geometric_discord_zero_field(CoherenceValue(1.0, Basis.SZ)).value == 0.5


def test_discord_rejects_states_outside_family():
    with pytest.raises(DataError, match="state outside Bell-diagonal family"):
        geometric_discord_zero_field(CoherenceValue(1.5, Basis.SZ))


def test_discord_value_range_check():
    with pytest.raises(ValueError):
        DiscordValue(-0.01)
    with pytest.raises(ValueError):
        DiscordValue(0.51)
    with pytest.raises(ValueError, match=r"lies in \[0, 1/2\]"):
        DiscordValue(np.array([0.1, 0.51, 0.2]))


def test_discord_refuses_sx_coherence():
    # In field C_x <= 1 passes the family bound, but half of it is not the
    # discord: at (J, T, B) = (-2 K, 5 K, 0.5 T) C_x/2 = 0.114, Q = C_z/2 = 0.0545.
    params = DimerParams(-2.0, 2.0, 5.0, 0.5)
    c_x = coherence_transverse(params)
    assert c_x.value <= 1.0
    with pytest.raises(DataError, match="S_z basis"):
        geometric_discord_zero_field(c_x)
    q = geometric_discord_zero_field(coherence_longitudinal(params)).value
    assert q == pytest.approx(0.0545, abs=5e-5)


def test_discord_of_an_array_matches_scalar_calls():
    temps = np.geomspace(0.1, 100.0, 9)
    for b in (0.0, 1.5):
        batch = coherence_longitudinal(DimerParams(-2.86, 2.0, temps, b))
        q = geometric_discord_zero_field(batch).value
        assert q.shape == temps.shape
        expected = [
            geometric_discord_zero_field(
                coherence_longitudinal(DimerParams(-2.86, 2.0, float(t), b))
            ).value
            for t in temps
        ]
        assert np.array_equal(q, expected)
    with pytest.raises(DataError, match="outside Bell-diagonal family"):
        geometric_discord_zero_field(CoherenceValue(np.array([0.2, 1.5]), Basis.SZ))


@settings(max_examples=60, deadline=None)
@given(
    phases=st.lists(st.floats(0.0, 2.0 * np.pi), min_size=4, max_size=4),
    t=st.floats(0.05, 50.0),
    b=st.floats(0.0, 10.0),
)
def test_coherence_invariant_under_diagonal_unitaries(phases, t, b):
    rho = gibbs_state(build_hamiltonian(DimerParams(-2.86, 2.0, t, b)), t)
    u = np.diag(np.exp(1j * np.array(phases)))
    twisted = DensityMatrix4(u @ rho.entries @ u.conj().T, Basis.SZ)
    assert l1_coherence(twisted).value == pytest.approx(
        l1_coherence(rho).value, abs=1e-12
    )


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), lam=st.floats(0.0, 1.0))
def test_coherence_is_convex(seed, lam):
    rng = np.random.default_rng(seed)

    def random_state():
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        m = a @ a.conj().T
        return _dm(m / m.trace())

    rho, sigma = random_state(), random_state()
    mix = _dm(lam * rho.entries + (1.0 - lam) * sigma.entries)
    bound = lam * l1_coherence(rho).value + (1.0 - lam) * l1_coherence(sigma).value
    assert l1_coherence(mix).value <= bound + 1e-12


@settings(max_examples=40, deadline=None)
@given(j=st.floats(-8.0, 8.0), t=st.floats(0.05, 100.0))
def test_zero_field_coherence_is_basis_independent(j, t):
    rho = gibbs_state(build_hamiltonian(DimerParams(j, 2.0, t, 0.0)), t)
    cz = l1_coherence(rho).value
    cx = l1_coherence(rotate_to_sx(rho)).value
    assert cx == pytest.approx(cz, abs=1e-12)
