"""Closed-form thermodynamics checked against the brute-force layer."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from spindimer import (
    Basis,
    ChiUnit,
    DataError,
    DimerParams,
    FitResult,
    NumericError,
    SusceptibilityPoint,
    SusceptibilitySeries,
    bleaney_bowers_chi,
    build_hamiltonian,
    coherence_from_chi,
    coherence_longitudinal,
    coherence_series,
    coherence_transverse,
    critical_field,
    eigensystem,
    gibbs_state,
    l1_coherence,
    partition_function,
    rho_zero_field,
    rotate_to_sx,
)
from spindimer.constants import (
    CURIE_EMU_K_PER_MOL,
    MU_B_KELVIN_PER_TESLA,
    SI_M3_PER_EMU,
)
import spindimer.models as models
from spindimer.models import correlation_values
from spindimer.core import SINGLET

J_REF = -2.86
G_REF = 2.0


# --- frozen single-point values (computed from the pinned constants) ------

def test_bleaney_bowers_frozen_value():
    point = bleaney_bowers_chi(J_REF, G_REF, temperature=2.43)
    assert point.chi == pytest.approx(0.1977835929309155, rel=1e-12)
    assert point.unit is ChiUnit.EMU_PER_MOL


def test_reduced_susceptibility_at_compensation_point():
    # T = -J/k_B makes the Boltzmann factor e^-(J/T) = e, so chi*T over the
    # Curie prefactor collapses to 2/(3+e).
    point = bleaney_bowers_chi(J_REF, G_REF, temperature=-J_REF)
    reduced = point.chi * (-J_REF) / (2.0 * G_REF**2 * CURIE_EMU_K_PER_MOL)
    assert reduced == pytest.approx(0.17487770452710946, rel=1e-12)


def test_correlation_frozen_value():
    point = bleaney_bowers_chi(J_REF, G_REF, temperature=2.43)
    c, physical = correlation_values(point, G_REF)
    assert physical
    assert c == pytest.approx(-0.3594341330907851, abs=1e-12)


def test_partition_function_frozen_value():
    z = partition_function(DimerParams(J_REF, G_REF, 1.0, 1.0))
    assert z == pytest.approx(11.033548484163056, rel=1e-12)


def test_partition_function_limits():
    assert partition_function(DimerParams(0.0, G_REF, 1.0, 0.0)) == pytest.approx(
        4.0, rel=1e-15
    )
    # At zero field cosh collapses and Z = 3 e^x + e^(-3x).
    x = J_REF / (4.0 * 1.7)
    assert partition_function(DimerParams(J_REF, G_REF, 1.7, 0.0)) == pytest.approx(
        3.0 * np.exp(x) + np.exp(-3.0 * x), rel=1e-14
    )


def test_coherence_longitudinal_frozen_values():
    assert coherence_longitudinal(
        DimerParams(J_REF, G_REF, 2.0, 0.0)
    ).value == pytest.approx(0.4427959867018248, abs=1e-12)
    assert coherence_longitudinal(
        DimerParams(J_REF, G_REF, 1.0, 1.0)
    ).value == pytest.approx(0.7298512474981529, abs=1e-12)


def test_coherence_transverse_frozen_value():
    assert coherence_transverse(
        DimerParams(J_REF, G_REF, 1.0, 1.0)
    ).value == pytest.approx(1.0465229099714013, abs=1e-12)


def test_critical_field_frozen_values():
    bc = critical_field(J_REF, G_REF)
    assert bc.tesla == pytest.approx(2.1288828169592735, rel=1e-12)
    assert bc.oersted == pytest.approx(21288.828169592736, rel=1e-12)
    assert abs(bc.tesla_oracle - bc.tesla) <= 1e-9
    assert critical_field(-1.0, 2.0).tesla == pytest.approx(
        0.7443646213144314, rel=1e-12
    )


# --- closed forms against the brute-force oracle ---------------------------

GRID_T = np.geomspace(0.05, 350.0, 20)
GRID_B = np.linspace(0.0, 10.0, 20)


@pytest.mark.parametrize("t", GRID_T)
@pytest.mark.parametrize("b", GRID_B)
def test_closed_forms_match_oracle(t, b):
    params = DimerParams(J_REF, G_REF, float(t), float(b))
    rho_num = gibbs_state(build_hamiltonian(params), params.temperature)

    assert coherence_longitudinal(params).value == pytest.approx(
        l1_coherence(rho_num).value, abs=1e-10
    )
    assert coherence_transverse(params).value == pytest.approx(
        l1_coherence(rotate_to_sx(rho_num)).value, abs=1e-10
    )
    evals, _ = eigensystem(build_hamiltonian(params))
    assert partition_function(params) == pytest.approx(
        np.exp(-evals / params.temperature).sum(), rel=1e-10
    )


def test_longitudinal_coherence_monotone_in_field_at_low_t():
    # Below the crossing the singlet weight only grows away; past it the
    # polarized |00> state takes over, so C_z decays toward zero.
    t = 0.3
    fields = np.linspace(0.0, 2.0, 30)
    values = [
        coherence_longitudinal(DimerParams(J_REF, G_REF, t, float(b))).value
        for b in fields
    ]
    diffs = np.diff(values)
    assert np.all(diffs <= 1e-12)

    high = np.linspace(2.3, 8.0, 30)
    tail = [
        coherence_longitudinal(DimerParams(J_REF, G_REF, t, float(b))).value
        for b in high
    ]
    assert np.all(np.diff(tail) <= 1e-12)
    assert tail[-1] < 0.05


def test_thermal_bump_above_crossing():
    # For B > B_c the coherence vanishes at both temperature extremes and
    # passes through an interior maximum.
    temps = np.geomspace(0.02, 80.0, 220)
    values = np.array(
        [
            coherence_longitudinal(DimerParams(J_REF, G_REF, float(t), 2.5)).value
            for t in temps
        ]
    )
    k = int(values.argmax())
    assert 0 < k < len(temps) - 1
    assert values[k] > 10.0 * values[0]
    assert values[k] > 10.0 * values[-1]


# --- susceptibility pipeline ------------------------------------------------

def test_susceptibility_round_trip_identity():
    # c extracted from the model susceptibility must equal 4<S1z S2z> of the
    # thermal state, and |c| its l1 coherence.
    for t in (0.5, 2.43, 10.0, 120.0):
        point = bleaney_bowers_chi(J_REF, G_REF, t)
        c, physical = correlation_values(point, G_REF)
        assert physical
        rho = gibbs_state(build_hamiltonian(DimerParams(J_REF, G_REF, t, 0.0)), t)
        direct = np.real(np.trace(rho.entries @ _szsz())) * 4.0
        assert c == pytest.approx(direct, abs=1e-12)
        assert coherence_from_chi(point, G_REF).value == pytest.approx(
            l1_coherence(rho).value, abs=1e-12
        )
        np.testing.assert_allclose(
            rho_zero_field(c).entries, rho.entries, atol=1e-12
        )


def _szsz():
    sz = np.diag([0.5, -0.5])
    return np.kron(sz, sz)


def test_susceptibility_route_equals_closed_form_at_zero_field():
    # |c| extracted from the model susceptibility and the zero-field limit
    # of the field-dressed closed form are the same algebraic expression.
    for t in np.geomspace(0.05, 350.0, 40):
        point = bleaney_bowers_chi(J_REF, G_REF, float(t))
        via_chi = coherence_from_chi(point, G_REF).value
        direct = coherence_longitudinal(DimerParams(J_REF, G_REF, float(t), 0.0))
        assert via_chi == pytest.approx(direct.value, abs=1e-12)


def test_si_unit_conversion_round_trip():
    p_emu = bleaney_bowers_chi(J_REF, G_REF, 2.43)
    p_si = SusceptibilityPoint(2.43, p_emu.chi * SI_M3_PER_EMU, ChiUnit.SI_M3_PER_MOL)
    assert p_si.chi_emu() == pytest.approx(p_emu.chi, rel=1e-14)
    assert coherence_from_chi(p_si, G_REF).value == pytest.approx(
        coherence_from_chi(p_emu, G_REF).value, abs=1e-12
    )


def test_zero_field_state_constructors():
    np.testing.assert_allclose(
        rho_zero_field(0.0).entries, np.eye(4) / 4.0, atol=1e-15
    )
    np.testing.assert_allclose(
        rho_zero_field(-1.0).entries,
        np.outer(SINGLET, SINGLET),
        atol=1e-15,
    )
    # Values inside the noise band but outside [-1, 1/3] pass the
    # susceptibility extraction yet cannot form a state.
    with pytest.raises(DataError, match="nonpositive state"):
        rho_zero_field(-1.01)
    with pytest.raises(DataError, match="nonpositive state"):
        rho_zero_field(0.34)
    # The same range check refuses NaN and inf, alone or in a stack.
    for c in (np.nan, np.inf, -np.inf):
        with pytest.raises(DataError, match="nonpositive state"):
            rho_zero_field(c)
        with pytest.raises(DataError, match="nonpositive state"):
            rho_zero_field(np.array([0.0, c, -0.5]))


def test_zero_field_state_of_an_array_matches_scalar_calls():
    cs = np.array([-1.0, -0.5, 0.0, 0.2, 1.0 / 3.0])
    stack = rho_zero_field(cs).entries
    assert stack.shape == (5, 4, 4)
    for c, rho in zip(cs, stack):
        np.testing.assert_array_equal(rho, rho_zero_field(float(c)).entries)
    # One value inside the noise band but outside [-1, 1/3] among valid ones
    # raises the scalar's DataError and names that value.
    with pytest.raises(DataError, match="nonpositive state: correlation 0.34"):
        rho_zero_field(np.array([0.0, 0.34, -0.5]))


def test_unphysical_measurement_rejected():
    # chi so large the implied correlation exceeds 1/3 beyond the noise band.
    with pytest.raises(DataError, match="unphysical data point"):
        coherence_from_chi(
            SusceptibilityPoint(2.0, 10.0, ChiUnit.EMU_PER_MOL), G_REF
        )
    # Negative chi never reaches the correlation stage: the point itself
    # violates the AFM-dimer invariant.
    with pytest.raises(ValueError):
        SusceptibilityPoint(2.0, -1.0, ChiUnit.EMU_PER_MOL)


def test_noise_band_tolerated_on_high_side():
    # A point whose implied c sits just above 1/3 (measurement noise) is
    # accepted by the extraction but rejected by the state builder.
    t = 2.0
    target_c = 1.0 / 3.0 + 0.01
    chi = (target_c + 1.0) * G_REF**2 * CURIE_EMU_K_PER_MOL / (2.0 * t)
    point = SusceptibilityPoint(t, chi, ChiUnit.EMU_PER_MOL)
    c, physical = correlation_values(point, G_REF)
    assert physical
    assert c == pytest.approx(target_c, abs=1e-12)
    assert coherence_from_chi(point, G_REF).value == pytest.approx(
        target_c, abs=1e-12
    )
    with pytest.raises(DataError, match="nonpositive state"):
        rho_zero_field(c)


@pytest.mark.parametrize(
    "c, physical",
    [
        (1.0 / 3.0 + 0.019, True),
        (1.0 / 3.0 + 0.021, False),
        # chi = 0, the lowest chi a point accepts: the band is one-sided.
        (-1.0, True),
    ],
)
def test_noise_band_is_two_hundredths_wide(c, physical):
    t = np.array([2.0])
    chi = (c + 1.0) * G_REF**2 * CURIE_EMU_K_PER_MOL / (2.0 * t)
    point = SusceptibilityPoint(t, chi, ChiUnit.EMU_PER_MOL)
    if physical:
        assert coherence_from_chi(point, G_REF).value == pytest.approx(
            [abs(c)], abs=1e-12
        )
    else:
        with pytest.raises(DataError, match="unphysical data point"):
            coherence_from_chi(point, G_REF)
    fit = FitResult(J_REF, G_REF, 0.0, 0.0, 0.0, iterations=1, converged=True)
    table = coherence_series(SusceptibilitySeries(point, "band"), fit)
    assert table.annotations["flag"] == ("" if physical else "unphysical",)


POINTS = {
    "scalar": SusceptibilityPoint(2.0, 0.1),
    "array": SusceptibilityPoint(np.array([2.0, 3.0]), np.array([0.1, 0.0])),
}


@pytest.mark.parametrize("kind", POINTS)
@pytest.mark.parametrize(
    "g, message",
    [
        (0.0, "g must be > 0"),
        (-2.0, "g must be > 0"),
        (np.nan, "g must be finite"),
        (np.inf, "g must be finite"),
    ],
)
def test_correlation_refuses_a_bad_g(kind, g, message):
    with pytest.raises(ValueError, match=message):
        correlation_values(POINTS[kind], g)
    with pytest.raises(ValueError, match=message):
        coherence_from_chi(POINTS[kind], g)


@pytest.mark.parametrize("kind", POINTS)
def test_a_g_whose_square_underflows_reads_as_unphysical(kind):
    # g^2 = 0: c = inf, or NaN where chi = 0; neither is in the band, and
    # neither division warns.
    c, physical = correlation_values(POINTS[kind], 1e-200)
    assert not np.any(physical)
    with pytest.raises(DataError, match="unphysical data point: correlation inf"):
        coherence_from_chi(POINTS[kind], 1e-200)


@pytest.mark.parametrize("g", [0.5, G_REF, 2.0023193, 7.3, 1e-100, 1e100])
def test_correlation_keeps_the_bits_of_the_plain_formula(g):
    t, chi = np.array([2.0, 35.0, 350.0]), np.array([0.1, 0.013, 1.7e-3])
    expected = [2.0 * ti * xi / (g**2 * CURIE_EMU_K_PER_MOL) - 1.0
                for ti, xi in zip(t.tolist(), chi.tolist())]
    c, _ = correlation_values(SusceptibilityPoint(t, chi), g)
    assert c.tolist() == expected
    for ti, xi, ci in zip(t.tolist(), chi.tolist(), expected):
        assert correlation_values(SusceptibilityPoint(ti, xi), g)[0] == ci


@pytest.mark.parametrize("t", [0.0, -1.0, np.array([2.0, -1.0])])
def test_bleaney_bowers_chi_refuses_a_nonpositive_temperature(t):
    with pytest.raises(ValueError, match="temperature must be > 0 K"):
        bleaney_bowers_chi(J_REF, G_REF, t)


def test_ferromagnetic_coupling_has_no_crossing():
    with pytest.raises(DataError, match="no level crossing"):
        critical_field(1.5, 2.0)
    with pytest.raises(DataError, match="no level crossing"):
        critical_field(0.0, 2.0)


@pytest.mark.parametrize("g", [0.0, -2.0])
def test_critical_field_refuses_nonpositive_g(g):
    with pytest.raises(ValueError, match="g must be > 0"):
        critical_field(J_REF, g)


def test_partition_function_underflow():
    with pytest.raises(NumericError, match="temperature underflow"):
        partition_function(DimerParams(J_REF, G_REF, 1e-7, 0.0))


# --- shifted weights: finite wherever the oracle is -----------------------

@pytest.mark.parametrize("t, b", [(1e-3, 0.0), (0.05, 60.0)])
def test_closed_forms_finite_where_only_z_overflows(t, b):
    from spindimer.sweep import ORACLE_ATOL

    params = DimerParams(J_REF, G_REF, t, b)
    rho = gibbs_state(build_hamiltonian(params), t)
    assert abs(
        coherence_longitudinal(params).value - l1_coherence(rho).value
    ) <= ORACLE_ATOL
    assert abs(
        coherence_transverse(params).value - l1_coherence(rotate_to_sx(rho)).value
    ) <= ORACLE_ATOL
    with pytest.raises(NumericError, match="temperature underflow"):
        partition_function(params)


def test_bleaney_bowers_finite_for_strong_coupling():
    chi = bleaney_bowers_chi(-300.0, 2.0, 0.4).chi
    assert np.isfinite(chi) and chi >= 0.0


def test_closed_forms_take_arrays_like_scalars():
    rng = np.random.default_rng(5)
    j, t = rng.uniform(-8.0, 8.0, 40), rng.uniform(0.05, 200.0, 40)
    b = rng.uniform(0.0, 10.0, 40)
    batch = DimerParams(j, G_REF, t, b)
    rows = [
        DimerParams(float(j[k]), G_REF, float(t[k]), float(b[k])) for k in range(40)
    ]
    for f in (
        partition_function,
        lambda p: coherence_longitudinal(p).value,
        lambda p: coherence_transverse(p).value,
    ):
        assert np.array_equal(f(batch), np.array([f(p) for p in rows]))
    assert isinstance(partition_function(rows[0]), float)
    chi = bleaney_bowers_chi(J_REF, G_REF, t).chi
    assert np.array_equal(
        chi, [bleaney_bowers_chi(J_REF, G_REF, float(x)).chi for x in t]
    )


@pytest.mark.parametrize("j", [-135.0, -300.0, -1e4])
def test_critical_field_beyond_100_tesla(j):
    bc = critical_field(j, G_REF)
    assert bc.tesla == -j / (G_REF * MU_B_KELVIN_PER_TESLA)
    assert bc.tesla > 100.0
    assert abs(bc.tesla_oracle - bc.tesla) <= 1e-11 * bc.tesla


@pytest.mark.parametrize("j", [J_REF, -300.0])
def test_critical_field_checks_its_bracket_in_one_diagonalization(monkeypatch, j):
    expected = critical_field(j, G_REF)
    batches = []

    def counting_eigensystem(h):
        batches.append(h.entries.shape[:-2])
        return eigensystem(h)

    monkeypatch.setattr(models, "eigensystem", counting_eigensystem)
    assert critical_field(j, G_REF) == expected
    # Both bracket ends, then the two fields on either side of the zero of
    # the level gap interpolated between them.
    assert batches == [(2,), (2,)]


@pytest.mark.parametrize(
    "ends, message",
    [
        ((False, False), "bracket failed at B = 0"),
        ((True, True), "no ground-state crossing"),
    ],
)
def test_critical_field_bracket_errors_survive_the_joint_check(
    monkeypatch, ends, message
):
    monkeypatch.setattr(
        models, "_level_gap", lambda j, g, b: (np.array([j, -j]), np.array(ends))
    )
    with pytest.raises(NumericError, match=message):
        critical_field(J_REF, G_REF)


@pytest.mark.parametrize("j", [J_REF, -300.0])
def test_critical_field_probes_straddle_the_oracle_one_width_apart(monkeypatch, j):
    fields = []
    real = models._level_gap

    def recording(j_over_kb, g, b_tesla):
        fields.append(b_tesla)
        return real(j_over_kb, g, b_tesla)

    monkeypatch.setattr(models, "_level_gap", recording)
    bc = critical_field(j, G_REF)
    below, above = fields[1]
    assert below < bc.tesla_oracle < above
    # The width is 1e-14 of max(B_c, 100 T), give or take the rounding of
    # the oracle value each probe is offset from.
    scale = max(bc.tesla, 100.0)
    assert above - below <= 1e-14 * scale + 2 * np.spacing(bc.tesla_oracle)


# The oracle's critical field may differ from the closed form by rounding
# only: this many units in the last place of B_c.
ORACLE_ULPS = 4


def assert_within_ulps(bc):
    assert abs(bc.tesla_oracle - bc.tesla) <= ORACLE_ULPS * np.spacing(bc.tesla)


@pytest.mark.parametrize(
    "j", [-1e-300, -1e-20, -1e-12, -1e-4, J_REF, -300.0, -1e4, -1e300]
)
def test_critical_field_oracle_agrees_to_rounding_over_all_scales(j):
    bc = critical_field(j, G_REF)
    assert bc.tesla == -j / (G_REF * MU_B_KELVIN_PER_TESLA)
    assert_within_ulps(bc)


@pytest.mark.parametrize("g", [0.5, 5.0])
@pytest.mark.parametrize("j", [-1e-300, -1e-6, -1e6, -1e300, -1e306])
def test_critical_field_passes_the_route_agreement_at_extreme_couplings(j, g):
    bc = critical_field(j, g)
    scale = max(bc.tesla, 100.0)
    assert abs(bc.tesla_oracle - bc.tesla) <= models._CROSS_CHECK_RTOL * scale
    assert models._CROSS_CHECK_RTOL <= 1e-14


def test_critical_field_refuses_an_oracle_the_old_bound_let_through(monkeypatch):
    # The whole level picture moved up by 5e-14 of the scale: the probes still
    # see the crossing, but the oracle lands 5 times the bound away.
    shift = 5e-14 * 100.0
    real = models._level_gap
    monkeypatch.setattr(models, "_level_gap", lambda j, g, b: real(j, g, b - shift))
    with pytest.raises(NumericError, match="routes disagree"):
        critical_field(J_REF, G_REF)


@settings(max_examples=200, deadline=None)
@given(log_j=st.floats(-6.0, 6.0), g=st.floats(0.5, 5.0))
def test_critical_field_oracle_agrees_to_rounding(log_j, g):
    assert_within_ulps(critical_field(-(10.0**log_j), g))


def test_critical_field_oracle_refuses_a_field_that_does_not_flip_the_ground_state(
    monkeypatch,
):
    # A gap shifted so that its zero lies at B_c / 2: the singlet is the
    # ground state on both sides of that zero, so it must not be reported.
    real = models._level_gap

    def shifted_gap(j, g, b):
        gap, singlet_ground = real(j, g, b)
        return gap - j / 2.0, singlet_ground

    monkeypatch.setattr(models, "_level_gap", shifted_gap)
    with pytest.raises(NumericError, match="ground state does not change"):
        critical_field(J_REF, G_REF)


@pytest.mark.parametrize(
    "g, t", [(1e160, 5.0), (1e160, np.array([2.0, 5.0])), (1e150, 1e-300)]
)
def test_bleaney_bowers_chi_overflow_is_a_numeric_error(g, t):
    with pytest.raises(NumericError, match="susceptibility overflows"):
        bleaney_bowers_chi(J_REF, g, t)


@pytest.mark.parametrize(
    "j, g, t",
    [
        (np.nan, 2.0, 5.0),
        (J_REF, np.inf, 5.0),
        (J_REF, 2.0, np.nan),
        (J_REF, 2.0, np.inf),
    ],
)
def test_bleaney_bowers_chi_non_finite_inputs_keep_their_message(j, g, t):
    with pytest.raises(ValueError, match="susceptibility point must be finite"):
        bleaney_bowers_chi(j, g, t)
