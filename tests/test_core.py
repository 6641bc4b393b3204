"""Brute-force layer: Hamiltonians, thermal states, basis rotations."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spindimer import (
    Basis,
    DensityMatrix4,
    DimerParams,
    Hamiltonian4,
    NumericError,
    build_hamiltonian,
    eigensystem,
    gibbs_state,
    rotate_to_sx,
)
from spindimer.constants import MU_B_KELVIN_PER_TESLA
from spindimer.core import _R2, SINGLET

# Frozen from the pinned constants: g * mu_B * 1 T / k_B for g = 2.
H_ZEEMAN_G2_1T = 1.3434276312516795

MAXMIX = DensityMatrix4(np.eye(4, dtype=complex) / 4.0, Basis.SZ)


def params_strategy():
    return st.builds(
        DimerParams,
        j_over_kb=st.floats(-10.0, 10.0),
        g=st.floats(0.5, 5.0),
        temperature=st.floats(0.01, 500.0),
        b_field=st.floats(0.0, 50.0),
    )


def test_params_validation():
    with pytest.raises(ValueError):
        DimerParams(-2.86, 2.0, temperature=0.0)
    with pytest.raises(ValueError):
        DimerParams(-2.86, 2.0, temperature=-1.0)
    with pytest.raises(ValueError):
        DimerParams(-2.86, g=0.0, temperature=1.0)
    with pytest.raises(ValueError):
        DimerParams(float("nan"), 2.0, temperature=1.0)


GOOD_PARAMS = {"j_over_kb": -2.86, "g": 2.0, "temperature": 1.0, "b_field": 0.5}
BAD_PARAMS = {
    "j_over_kb": [np.nan, np.inf],
    "g": [np.nan, -np.inf, 0.0, -1.0],
    "temperature": [np.nan, np.inf, 0.0, -1.0],
    "b_field": [np.nan, -np.inf],
}
BAD_PARAM_CASES = [((n, v),) for n in BAD_PARAMS for v in BAD_PARAMS[n]] + [
    ((a, va), (b, vb))
    for a, b in itertools.combinations(BAD_PARAMS, 2)
    for va in BAD_PARAMS[a]
    for vb in BAD_PARAMS[b]
]


def first_params_failure(fields):
    """The message DimerParams gives: the first non-finite field in
    declaration order, then a temperature <= 0, then a g <= 0."""
    for name in GOOD_PARAMS:
        if not np.isfinite(fields[name]).all():
            return f"{name} must be finite"
    if np.less_equal(fields["temperature"], 0.0).any():
        return "temperature must be > 0 K"
    return "g must be > 0"


@pytest.mark.parametrize("as_array", [False, True])
@pytest.mark.parametrize("bad", BAD_PARAM_CASES, ids=str)
def test_params_report_the_first_failing_check(bad, as_array):
    fields = dict(GOOD_PARAMS)
    for name, value in bad:
        fields[name] = np.array([GOOD_PARAMS[name], value]) if as_array else value
    with pytest.raises(ValueError) as exc:
        DimerParams(**fields)
    assert str(exc.value) == first_params_failure(fields)


def test_params_accept_valid_fields_that_do_not_broadcast():
    p = DimerParams(np.full(2, -2.86), 2.0, np.ones(3))
    assert np.shape(p.temperature) == (3,)
    with pytest.raises(ValueError, match="temperature must be > 0 K"):
        DimerParams(np.full(2, -2.86), 2.0, np.array([1.0, 0.0, 1.0]))


def test_zeeman_scale_matches_pinned_constants():
    p = DimerParams(-2.86, 2.0, 1.0, 1.0)
    assert p.zeeman_kelvin == pytest.approx(H_ZEEMAN_G2_1T, abs=1e-15)
    assert p.zeeman_kelvin == 2.0 * MU_B_KELVIN_PER_TESLA


def test_hamiltonian_zero_coupling_zero_field():
    h = build_hamiltonian(DimerParams(0.0, 2.0, 1.0, 0.0))
    assert np.abs(h.entries).max() == 0.0


def test_hamiltonian_spectrum_zero_field():
    h = build_hamiltonian(DimerParams(-2.86, 2.0, 1.0, 0.0))
    evals, _ = eigensystem(h)
    np.testing.assert_allclose(evals, [-2.145, 0.715, 0.715, 0.715], atol=1e-12)


def test_hamiltonian_spectrum_with_field():
    h = build_hamiltonian(DimerParams(-2.86, 2.0, 1.0, 1.0))
    evals, _ = eigensystem(h)
    expected = np.sort(
        [0.715 - H_ZEEMAN_G2_1T, 0.715, 0.715 + H_ZEEMAN_G2_1T, -2.145]
    )
    np.testing.assert_allclose(evals, expected, atol=1e-12)


def test_hamiltonian_rejects_asymmetric_matrix():
    bad = np.zeros((4, 4))
    bad[0, 1] = 1.0
    with pytest.raises(ValueError):
        Hamiltonian4(bad)


def test_eigensystem_zero_matrix():
    evals, _ = eigensystem(Hamiltonian4(np.zeros((4, 4))))
    np.testing.assert_allclose(evals, np.zeros(4), atol=0.0)


def test_eigensystem_diagonal_identity_vectors():
    evals, evecs = eigensystem(Hamiltonian4(np.diag([1.0, 2.0, 3.0, 4.0])))
    np.testing.assert_allclose(evals, [1.0, 2.0, 3.0, 4.0], atol=0.0)
    np.testing.assert_allclose(evecs, np.eye(4), atol=0.0)


def test_eigensystem_of_a_stack_is_eigh():
    params = DimerParams(-2.86, 2.0, 1.0, np.linspace(0.0, 5.0, 7))
    h = build_hamiltonian(params)
    evals, evecs = eigensystem(h)
    expected_evals, expected_evecs = np.linalg.eigh(h.entries)
    assert np.array_equal(evals, expected_evals)
    assert np.array_equal(evecs, expected_evecs)


def test_gibbs_zero_hamiltonian_is_maximally_mixed():
    rho = gibbs_state(Hamiltonian4(np.zeros((4, 4))), temperature=0.37)
    np.testing.assert_allclose(rho.entries, np.eye(4) / 4.0, atol=1e-15)


def test_gibbs_low_temperature_singlet_projector():
    h = build_hamiltonian(DimerParams(-2.86, 2.0, 1.0, 0.0))
    rho = gibbs_state(h, temperature=0.001)
    np.testing.assert_allclose(rho.entries, np.outer(SINGLET, SINGLET), atol=1e-9)


def test_gibbs_partition_weights_frozen_value():
    # Tr[e^(-H/T)] at J/k_B = -2.86 K, g = 2, B = 1 T, T = 1 K, evaluated
    # by direct exponentiation of the spectrum.
    h = build_hamiltonian(DimerParams(-2.86, 2.0, 1.0, 1.0))
    evals, _ = eigensystem(h)
    z = np.exp(-evals).sum()
    assert z == pytest.approx(11.033548484163056, abs=1e-10)


def test_gibbs_survives_microkelvin():
    h = build_hamiltonian(DimerParams(-2.86, 2.0, 1.0, 0.0))
    for t in (1e-6, 1e-9):
        rho = gibbs_state(h, t)
        np.testing.assert_allclose(rho.entries, np.outer(SINGLET, SINGLET), atol=1e-12)


def test_gibbs_rejects_nonpositive_temperature():
    h = build_hamiltonian(DimerParams(-2.86, 2.0, 1.0, 0.0))
    with pytest.raises(ValueError):
        gibbs_state(h, 0.0)


@pytest.mark.parametrize("t", [np.nan, np.inf, np.array([1.0, np.nan])])
def test_gibbs_rejects_non_finite_temperature(t):
    h = build_hamiltonian(DimerParams(np.array([-2.86, 1.3]), 2.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="temperature must be finite"):
        gibbs_state(h, t)


def test_gibbs_keeps_the_sign_message_for_minus_infinity():
    h = build_hamiltonian(DimerParams(-2.86, 2.0, 1.0, 0.0))
    with pytest.raises(ValueError, match="temperature must be > 0 K"):
        gibbs_state(h, -np.inf)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_density_matrix_refuses_non_finite_entries(bad):
    for dtype in (float, complex):
        rho = (np.eye(4) / 4.0).astype(dtype)
        rho[1, 2] = bad
        with pytest.raises(ValueError, match="density matrix entries must be finite"):
            DensityMatrix4(rho, Basis.SZ)
        with pytest.raises(ValueError, match="density matrix entries must be finite"):
            DensityMatrix4(np.stack([np.eye(4) / 4.0, rho]), Basis.SX)


def test_hamiltonian_refuses_all_nan_matrix():
    with pytest.raises(ValueError, match="Hamiltonian entries must be finite"):
        Hamiltonian4(np.full((4, 4), np.nan))


def test_hamiltonian_refuses_an_infinite_entry_without_a_warning():
    # Warnings are errors in this suite, so an `inf - inf` RuntimeWarning
    # from the symmetry check would fail the test instead of the ValueError.
    h = np.eye(4)
    h[0, 0] = np.inf
    with pytest.raises(ValueError, match="Hamiltonian entries must be finite"):
        Hamiltonian4(h)
    h = np.eye(4, dtype=complex)
    h[2, 2] = complex(1.0, np.nan)
    with pytest.raises(ValueError, match="Hamiltonian entries must be finite"):
        Hamiltonian4(h)


@pytest.mark.parametrize(
    "params",
    [
        # g mu_B B overflows to inf although B is finite.
        DimerParams(-2.86, 10.0, 1.0, 1e308),
        # J and h are finite, but the corner entry -J/4 - h is not.
        DimerParams(-1.7e308, 2.0, 1.0, 1.7e308 / (2.0 * MU_B_KELVIN_PER_TESLA)),
    ],
)
def test_build_hamiltonian_refuses_entries_that_overflow(params):
    with pytest.raises(ValueError, match="Hamiltonian entries must be finite"):
        build_hamiltonian(params)


def test_density_matrix_validation():
    for dtype in (float, complex):
        with pytest.raises(ValueError, match="unit trace"):
            DensityMatrix4(np.eye(4, dtype=dtype), Basis.SZ)  # trace 4
        nonherm = np.eye(4, dtype=dtype) / 4.0
        nonherm[0, 1] = 1e-3
        with pytest.raises(ValueError, match="Hermitian"):
            DensityMatrix4(nonherm, Basis.SZ)
        negative = np.diag([0.6, 0.5, -0.05, -0.05]).astype(dtype)
        with pytest.raises(ValueError, match="positive semidefinite"):
            DensityMatrix4(negative, Basis.SZ)


def test_rotation_fixes_maximally_mixed():
    out = rotate_to_sx(MAXMIX)
    assert out.basis is Basis.SX
    np.testing.assert_allclose(out.entries, np.eye(4) / 4.0, atol=1e-15)


def test_rotation_fixes_singlet_projector():
    # The singlet is rotation invariant: in the S_x product basis it is
    # still (|+-> - |-+>)/sqrt(2), i.e. the same projector matrix.
    proj = DensityMatrix4(np.outer(SINGLET, SINGLET).astype(complex), Basis.SZ)
    out = rotate_to_sx(proj)
    np.testing.assert_allclose(out.entries, proj.entries, atol=1e-15)


# Dyadic states and their hand-computed S_x forms: the butterfly only adds,
# subtracts and scales by 1/4, so these rotate without rounding.
_SINGLET_PROJ = np.array(
    [[0.0, 0.0, 0.0, 0.0], [0.0, 0.5, -0.5, 0.0], [0.0, -0.5, 0.5, 0.0], [0.0, 0.0, 0.0, 0.0]]
)
DYADIC_SX = {
    "maximally mixed": (np.eye(4) / 4.0, np.eye(4) / 4.0),
    "|00><00|": (np.diag([1.0, 0.0, 0.0, 0.0]), np.full((4, 4), 0.25)),
    # The singlet only changes sign: (|+-> - |-+>)/sqrt(2) up to -1.
    "singlet": (_SINGLET_PROJ, _SINGLET_PROJ),
}


@pytest.mark.parametrize("name", sorted(DYADIC_SX))
def test_rotation_is_exact_on_dyadic_states(name):
    rho_z, rho_x = DYADIC_SX[name]
    for dtype in (float, complex):
        out = rotate_to_sx(DensityMatrix4(rho_z.astype(dtype), Basis.SZ))
        assert out.entries.dtype == dtype
        assert (out.entries == rho_x).all()
        twice = rotate_to_sx(DensityMatrix4(out.entries, Basis.SZ))
        assert (twice.entries == rho_z).all()


@pytest.mark.parametrize("n", [1, 3, 16, 2000])
def test_rotated_stack_equals_each_single_rotation(n):
    # Elementwise butterflies round every matrix alike; a stacked BLAS
    # product need not.
    rng = np.random.default_rng(n)
    t = rng.uniform(0.05, 300.0, n)
    params = DimerParams(rng.uniform(-10.0, 10.0, n), 2.0, t, rng.uniform(0.0, 20.0, n))
    rho = gibbs_state(build_hamiltonian(params), t)
    stack = rotate_to_sx(rho).entries
    for k in range(n):
        one = rotate_to_sx(DensityMatrix4(rho.entries[k], Basis.SZ)).entries
        assert np.array_equal(stack[k], one)


def test_real_states_stay_real():
    h = build_hamiltonian(DimerParams(-2.86, 2.0, 1.0, 0.5))
    rho = gibbs_state(h, 1.0)
    assert rho.entries.dtype == np.float64
    assert rotate_to_sx(rho).entries.dtype == np.float64
    assert DensityMatrix4(np.diag([1, 0, 0, 0]), Basis.SZ).entries.dtype == np.float64


def test_complex_state_rotates_like_the_conjugation():
    # The projector on (|00> + i|11>)/sqrt(2) has an imaginary coherence.
    psi = np.array([1.0, 0.0, 0.0, 1.0j]) / np.sqrt(2.0)
    rho = DensityMatrix4(np.outer(psi, psi.conj()), Basis.SZ)
    out = rotate_to_sx(rho).entries
    assert out.dtype == np.complex128
    assert np.abs(out - _R2 @ rho.entries @ _R2).max() <= 1e-15
    assert np.abs(out.imag).max() > 0.1


def test_hamiltonian_refuses_imaginary_entries():
    h = np.zeros((4, 4), dtype=complex)
    h[1, 2], h[2, 1] = 1.0j, -1.0j
    with pytest.raises(ValueError, match="Hamiltonian must be real symmetric"):
        Hamiltonian4(h)
    with pytest.raises(ValueError, match="Hamiltonian must be real symmetric"):
        Hamiltonian4(np.stack([np.eye(4, dtype=complex), h]))


def test_hamiltonian_accepts_complex_array_with_zero_imaginary_parts():
    real = build_hamiltonian(DimerParams(-2.86, 2.0, 1.0, 0.5)).entries
    h = Hamiltonian4(real.astype(complex))
    assert h.entries.dtype == np.float64
    assert np.array_equal(h.entries, real)


def test_rotation_rejects_wrong_basis():
    with pytest.raises(ValueError):
        rotate_to_sx(DensityMatrix4(np.eye(4, dtype=complex) / 4.0, Basis.SX))


@settings(max_examples=80, deadline=None)
@given(params_strategy())
def test_gibbs_state_invariants(params):
    rho = gibbs_state(build_hamiltonian(params), params.temperature)
    m = rho.entries
    assert abs(m.trace() - 1.0) <= 1e-12
    assert np.abs(m - m.conj().T).max() <= 1e-12
    assert np.linalg.eigvalsh(m).min() >= -1e-10


@settings(max_examples=80, deadline=None)
@given(params_strategy())
def test_gibbs_commutes_with_hamiltonian(params):
    h = build_hamiltonian(params)
    rho = gibbs_state(h, params.temperature)
    comm = h.entries @ rho.entries - rho.entries @ h.entries
    assert np.abs(comm).max() <= 1e-10


@settings(max_examples=80, deadline=None)
@given(params_strategy())
def test_rotation_round_trip(params):
    rho = gibbs_state(build_hamiltonian(params), params.temperature)
    rotated = rotate_to_sx(rho)
    assert rotated.basis is Basis.SX
    # _R2 is its own inverse, so conjugating by it again undoes the rotation.
    back = _R2 @ rotated.entries @ _R2
    assert np.abs(back - rho.entries).max() <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    j=st.floats(-8.0, -0.1),
    g=st.floats(0.5, 4.0),
    ratio=st.one_of(st.floats(0.0, 0.95), st.floats(1.05, 20.0)),
)
def test_ground_state_identity_across_crossing(j, g, ratio):
    b_c = -j / (g * MU_B_KELVIN_PER_TESLA)
    params = DimerParams(j, g, temperature=1.0, b_field=ratio * b_c)
    _, evecs = eigensystem(build_hamiltonian(params))
    ground = evecs[:, 0]
    if ratio < 1.0:
        assert np.dot(SINGLET, ground) ** 2 > 1.0 - 1e-10
    else:
        assert ground[0] ** 2 > 1.0 - 1e-10


# --- stacks: one batched call, every matrix checked on its own --------------

VALID_STATE = np.diag([0.4, 0.3, 0.2, 0.1])
_NONHERM = np.eye(4) / 4.0
_NONHERM[0, 1] = 1e-3
BAD_STATES = {
    "unit trace": np.eye(4),
    "Hermitian": _NONHERM,
    "positive semidefinite": np.diag([0.6, 0.5, -0.05, -0.05]),
}


@pytest.mark.parametrize("what", sorted(BAD_STATES))
def test_stack_with_one_bad_state_raises_like_the_single_state(what):
    for dtype in (float, complex):
        bad = BAD_STATES[what].astype(dtype)
        with pytest.raises(ValueError, match=what) as single:
            DensityMatrix4(bad, Basis.SZ)
        stack = np.stack([VALID_STATE, bad, VALID_STATE, np.eye(4) / 4.0]).astype(dtype)
        with pytest.raises(ValueError) as batched:
            DensityMatrix4(stack, Basis.SZ)
        assert str(batched.value) == str(single.value)


def test_stack_checks_each_hamiltonian_on_its_own_scale():
    # A large symmetric neighbour must not widen the small matrix's tolerance.
    small = np.zeros((4, 4))
    small[0, 1] = 1e-9
    with pytest.raises(ValueError, match="symmetric"):
        Hamiltonian4(small)
    with pytest.raises(ValueError, match="symmetric"):
        Hamiltonian4(np.stack([1e6 * np.eye(4), small]))


def test_batched_oracle_equals_row_by_row_calls():
    rng = np.random.default_rng(3)
    j, t = rng.uniform(-10.0, 10.0, 64), rng.uniform(0.01, 300.0, 64)
    b = rng.uniform(0.0, 20.0, 64)
    params = DimerParams(j, 2.0, t, b)
    h = build_hamiltonian(params)
    assert h.entries.shape == (64, 4, 4)
    rho = gibbs_state(h, t)
    evals, evecs = eigensystem(h)
    for k in range(64):
        one = build_hamiltonian(DimerParams(float(j[k]), 2.0, float(t[k]), float(b[k])))
        assert np.array_equal(h.entries[k], one.entries)
        assert np.array_equal(rho.entries[k], gibbs_state(one, float(t[k])).entries)
        ev, vec = eigensystem(one)
        assert np.array_equal(evals[k], ev) and np.array_equal(evecs[k], vec)
    back = _R2 @ rotate_to_sx(rho).entries @ _R2
    assert np.abs(back - rho.entries).max() <= 1e-12


def test_params_validate_every_array_element():
    DimerParams(np.array([-1.0, 2.0]), 2.0, np.array([0.5, 3.0]), 0.0)
    with pytest.raises(ValueError, match="temperature"):
        DimerParams(-2.86, 2.0, np.array([1.0, 0.0, 2.0]))
    with pytest.raises(ValueError, match="finite"):
        DimerParams(np.array([-2.86, np.inf]), 2.0, 1.0)
    pair = build_hamiltonian(DimerParams(np.array([-2.86, -1.0]), 2.0, 1.0))
    with pytest.raises(ValueError):
        gibbs_state(pair, np.array([1.0, -1.0]))
