"""CSV ingestion and the damped Gauss-Newton susceptibility fitter."""

import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest

from spindimer import (
    ChiUnit,
    DataError,
    NumericError,
    SusceptibilityPoint,
    SusceptibilitySeries,
    bleaney_bowers_chi,
    coherence_series,
    fit_bleaney_bowers,
    load_series,
)
from spindimer.constants import SI_M3_PER_EMU
import spindimer.fitting as fitting
from spindimer.fitting import _bb_jacobian

J_TRUE = -2.86
G_TRUE = 2.0
TEMPS = np.linspace(2.0, 350.0, 50)
DATA = Path(__file__).parent / "data"


def synthetic_series(unit=ChiUnit.EMU_PER_MOL, scale=1.0, rng=None, noise=0.0):
    values = []
    for t in TEMPS:
        chi = bleaney_bowers_chi(J_TRUE, G_TRUE, float(t), unit=unit).chi * scale
        if rng is not None and noise > 0.0:
            chi *= 1.0 + noise * rng.standard_normal()
        values.append(chi)
    return SusceptibilitySeries(
        SusceptibilityPoint(TEMPS, np.array(values), unit), "synthetic"
    )


def model_series(temps, sample_id):
    """Noiseless chi from one scalar model call per temperature."""
    chi = [bleaney_bowers_chi(J_TRUE, G_TRUE, float(t)).chi for t in temps]
    return SusceptibilitySeries(SusceptibilityPoint(temps, np.array(chi)), sample_id)


def write_csv(path, rows, header="T_kelvin,chi", comments=()):
    lines = [f"# {c}" for c in comments] + [header] + rows
    path.write_text("\n".join(lines) + "\n")
    return path


# --- ingestion ---------------------------------------------------------------

def test_load_series_happy_path(tmp_path):
    rows = [
        f"{float(t)!r},{bleaney_bowers_chi(J_TRUE, G_TRUE, float(t)).chi!r}"
        for t in TEMPS
    ]
    path = write_csv(tmp_path / "sample.csv", rows, comments=("synthetic run",))
    series = load_series(path)
    assert len(series) == 50
    assert series.sample_id == "sample"
    assert series.unit is ChiUnit.EMU_PER_MOL
    np.testing.assert_allclose(series.temperatures(), TEMPS, atol=0.0)


def test_load_series_malformed_header(tmp_path):
    path = write_csv(tmp_path / "h.csv", ["1,2"], header="temp,chi")
    with pytest.raises(DataError, match="malformed header"):
        load_series(path)


def test_load_series_bad_row_named_by_index(tmp_path):
    rows = [f"{float(t)},0.01" for t in range(2, 11)]
    rows[2] = "abc,1e-3"
    path = write_csv(tmp_path / "r.csv", rows)
    with pytest.raises(DataError, match="row 3"):
        load_series(path)


def test_load_series_rejects_nonfinite_rows(tmp_path):
    rows = [f"{float(t)},0.01" for t in range(2, 11)]
    rows[4] = "6.0,nan"
    path = write_csv(tmp_path / "n.csv", rows)
    with pytest.raises(DataError, match="row 5"):
        load_series(path)


def test_load_series_shuffled_temperatures(tmp_path):
    rows = [f"{float(t)},0.01" for t in (2, 3, 4, 9, 5, 6, 7, 8)]
    path = write_csv(tmp_path / "s.csv", rows)
    with pytest.raises(DataError, match="temperatures not increasing"):
        load_series(path)


def test_load_series_too_few_rows(tmp_path):
    rows = [f"{float(t)},0.01" for t in range(2, 9)]
    path = write_csv(tmp_path / "f.csv", rows)
    with pytest.raises(DataError, match="at least 8"):
        load_series(path)


def test_load_series_negative_chi_named_by_row(tmp_path):
    rows = [f"{float(t)},0.01" for t in range(2, 11)]
    rows[1] = "3.0,-0.01"
    path = write_csv(tmp_path / "neg.csv", rows)
    with pytest.raises(DataError, match="row 2"):
        load_series(path)


def test_load_series_names_first_of_several_bad_rows(tmp_path):
    # Row 3 has chi < 0 and row 6 has T <= 0: the whole-file check fails on
    # the temperature, but the error must name row 3 with its own message.
    rows = [f"{float(t)},0.01" for t in range(2, 12)]
    rows[2] = "4.0,-0.01"
    rows[5] = "-7.0,0.01"
    path = write_csv(tmp_path / "bad.csv", rows)
    with pytest.raises(DataError) as info:
        load_series(path)
    assert str(info.value) == "row 3: susceptibility must be >= 0 for this model"
    rows[2] = "4.0,0.01"
    path = write_csv(tmp_path / "bad.csv", rows)
    with pytest.raises(DataError) as info:
        load_series(path)
    assert str(info.value) == "row 6: temperature must be > 0 K"


def test_load_series_keeps_unit_and_arrays(tmp_path):
    rows = [f"{float(t)!r},{0.01 * t!r}" for t in range(2, 12)]
    path = write_csv(tmp_path / "si.csv", rows)
    series = load_series(path, ChiUnit.SI_M3_PER_MOL, sample_id="run-7")
    assert series.unit is ChiUnit.SI_M3_PER_MOL
    assert series.data.unit is ChiUnit.SI_M3_PER_MOL
    assert series.sample_id == "run-7"
    assert len(series) == 10
    assert series.temperatures().tolist() == [float(t) for t in range(2, 12)]
    assert series.chi_values().tolist() == [0.01 * t for t in range(2, 12)]


def test_series_refuses_empty_data():
    with pytest.raises(ValueError, match="at least one point"):
        SusceptibilitySeries(SusceptibilityPoint(np.array([]), np.array([])))


@pytest.mark.parametrize(
    "t, chi",
    [
        (np.array([[2.0, 3.0], [4.0, 5.0]]), np.full((2, 2), 0.1)),
        (np.array(2.0), np.array(0.1)),
        (np.array([2.0, 3.0, 4.0]), np.array(0.1)),
    ],
    ids=["2-D", "0-D", "scalar-chi"],
)
def test_series_refuses_data_that_is_not_1d_pairs(t, chi):
    with pytest.raises(ValueError, match="1-D arrays of equal length"):
        SusceptibilitySeries(SusceptibilityPoint(t, chi))


@pytest.mark.parametrize("temps", [[2.0, 3.0, 3.0, 4.0], [2.0, 4.0, 3.0, 5.0]])
def test_series_refuses_non_increasing_temperatures(temps):
    data = SusceptibilityPoint(np.array(temps), np.full(4, 0.1))
    with pytest.raises(DataError, match="temperatures not increasing"):
        SusceptibilitySeries(data)


# --- fitting -----------------------------------------------------------------

def test_fit_noiseless_round_trip_default_init():
    fit = fit_bleaney_bowers(synthetic_series())
    assert fit.converged
    assert abs(fit.j_over_kb - J_TRUE) < 1e-10
    assert abs(fit.g - G_TRUE) < 1e-10


def test_fit_noiseless_from_displaced_init():
    fit = fit_bleaney_bowers(synthetic_series(), init=(-1.0, 2.3))
    assert fit.converged
    assert fit.iterations < 100
    assert abs(fit.j_over_kb - J_TRUE) < 1e-8
    assert abs(fit.g - G_TRUE) < 1e-8


def test_fit_rss_trace_decreases():
    fit = fit_bleaney_bowers(synthetic_series(), init=(-1.0, 2.3))
    assert len(fit.rss_trace) >= 2
    assert all(a > b for a, b in zip(fit.rss_trace, fit.rss_trace[1:]))


def test_fit_noise_consistency():
    errors = []
    for noise in (1e-2, 1e-4, 1e-6):
        rng = np.random.default_rng(12345)
        fit = fit_bleaney_bowers(synthetic_series(rng=rng, noise=noise))
        assert fit.converged
        errors.append(abs(fit.j_over_kb - J_TRUE) + abs(fit.g - G_TRUE))
    assert errors[0] > errors[1] > errors[2]


def test_fit_noisy_standard_errors_are_sane():
    rng = np.random.default_rng(7)
    fit = fit_bleaney_bowers(synthetic_series(rng=rng, noise=0.01))
    assert fit.converged
    assert 0.0 < fit.stderr_j < 0.2
    assert 0.0 < fit.stderr_g < 0.05
    assert fit.rss > 0.0


def test_fit_scale_equivariance():
    base = fit_bleaney_bowers(synthetic_series(), init=(-1.0, 2.3))
    for k in (4.0 * math.pi * 1e-6, 1.0e3):
        scaled = fit_bleaney_bowers(
            synthetic_series(scale=k), init=(-1.0, 2.3), model_scale=k
        )
        assert abs(scaled.j_over_kb - base.j_over_kb) < 1e-10
        assert abs(scaled.g - base.g) < 1e-10


def test_fit_si_unit_route_matches_emu():
    emu = fit_bleaney_bowers(synthetic_series(), init=(-1.0, 2.3))
    si = fit_bleaney_bowers(
        synthetic_series(unit=ChiUnit.SI_M3_PER_MOL), init=(-1.0, 2.3)
    )
    assert abs(si.j_over_kb - emu.j_over_kb) < 1e-10
    assert abs(si.g - emu.g) < 1e-10


def test_fit_rss_reported_in_input_units():
    rng = np.random.default_rng(21)
    noisy_emu = synthetic_series(rng=rng, noise=0.01)
    si_data = SusceptibilityPoint(
        noisy_emu.temperatures(),
        noisy_emu.chi_values() * SI_M3_PER_EMU,
        ChiUnit.SI_M3_PER_MOL,
    )
    emu_fit = fit_bleaney_bowers(noisy_emu)
    si_fit = fit_bleaney_bowers(SusceptibilitySeries(si_data, "si"))
    assert si_fit.rss == pytest.approx(emu_fit.rss * SI_M3_PER_EMU**2, rel=1e-6)


def test_fit_degenerate_at_zero_g():
    with pytest.raises(NumericError, match="degenerate fit"):
        fit_bleaney_bowers(synthetic_series(), init=(J_TRUE, 0.0))


def test_fit_requires_enough_points():
    series = model_series(TEMPS[:5], "short")
    with pytest.raises(DataError, match="at least 8"):
        fit_bleaney_bowers(series)


def test_fit_unconverged_is_reported_not_raised(monkeypatch):
    monkeypatch.setattr(fitting, "MAX_ITERATIONS", 1)
    fit = fit_bleaney_bowers(synthetic_series(), init=(-1.0, 2.3))
    assert not fit.converged
    assert fit.iterations == 1
    with pytest.raises(DataError, match="did not converge"):
        coherence_series(synthetic_series(), fit)


@pytest.mark.parametrize("name", ["chi_stall_71.csv", "chi_stall_317.csv"])
def test_fit_at_rounding_level_minimum_converges(name):
    # On these noisy series the fit reaches the minimum with a gradient just
    # above GRADIENT_TOL, and the next proposed step changes rss only at
    # rounding level, so it is refused. That must end the fit as converged,
    # not let the damping climb to its cap and report failure.
    fit = fit_bleaney_bowers(load_series(DATA / name))
    assert fit.converged
    assert fit.iterations < 20
    assert fit.stderr_j > 0.0 and fit.stderr_g > 0.0


@pytest.mark.parametrize("name", ["chi_stall_71.csv", "chi_stall_317.csv"])
def test_fit_result_matches_golden(name):
    # Written by the fitter that evaluated the model twice per iteration;
    # reusing the trial step's residual must not move a single bit.
    golden = json.loads((DATA / "chi_stall_fits.json").read_text())[name]
    fit = dataclasses.asdict(fit_bleaney_bowers(load_series(DATA / name)))
    fit["rss_trace"] = list(fit["rss_trace"])
    assert fit == golden


@pytest.mark.parametrize(
    "series, init",
    [
        (synthetic_series(), (-1.0, 2.3)),
        (synthetic_series(rng=np.random.default_rng(7), noise=0.01), None),
        (load_series(DATA / "chi_stall_71.csv"), None),
        (load_series(DATA / "chi_stall_317.csv"), None),
    ],
    ids=["displaced-init", "noisy", "stall-71", "stall-317"],
)
def test_fit_evaluates_model_once_per_iteration(monkeypatch, series, init):
    calls = []

    def counting_chi(*args, **kwargs):
        calls.append(args)
        return bleaney_bowers_chi(*args, **kwargs)

    monkeypatch.setattr(fitting, "bleaney_bowers_chi", counting_chi)
    fit = fit_bleaney_bowers(series, init)
    assert fit.converged
    assert fit.iterations >= 2
    assert len(calls) <= fit.iterations + 1


def test_jacobian_matches_central_differences():
    rng = np.random.default_rng(99)
    for _ in range(10):
        j = float(rng.uniform(-8.0, 8.0))
        g = float(rng.uniform(0.5, 4.0))
        jac = _bb_jacobian(TEMPS, j, g)
        eps_j = 1e-6 * max(1.0, abs(j))
        eps_g = 1e-6 * max(1.0, abs(g))
        chi = lambda jv, gv: bleaney_bowers_chi(jv, gv, TEMPS).chi
        fd_j = (chi(j + eps_j, g) - chi(j - eps_j, g)) / (2.0 * eps_j)
        fd_g = (chi(j, g + eps_g) - chi(j, g - eps_g)) / (2.0 * eps_g)
        assert np.abs(jac[:, 0] - fd_j).max() <= 1e-6 * max(1.0, np.abs(fd_j).max())
        assert np.abs(jac[:, 1] - fd_g).max() <= 1e-6 * max(1.0, np.abs(fd_g).max())


def test_jacobian_overflow_safe():
    jac = _bb_jacobian(np.array([2.0]), -2000.0, 2.0)
    assert np.all(np.isfinite(jac))
    assert jac[0, 0] == 0.0


# --- coherence series --------------------------------------------------------

def test_coherence_series_noiseless_residuals_vanish():
    series = synthetic_series()
    fit = fit_bleaney_bowers(series)
    table = coherence_series(series, fit)
    assert table.column_names == (
        "T_kelvin",
        "C_experimental",
        "C_theoretical",
        "residual",
    )
    assert np.abs(table.column("residual")).max() < 1e-10
    assert all(flag == "" for flag in table.annotations["flag"])


def test_coherence_series_flags_corrupted_point():
    clean = synthetic_series()
    fit = fit_bleaney_bowers(clean)
    chi = clean.chi_values().copy()
    chi[25] *= 10.0
    corrupted = SusceptibilitySeries(
        SusceptibilityPoint(clean.temperatures(), chi, clean.unit), "corrupted"
    )
    table = coherence_series(corrupted, fit)
    flags = table.annotations["flag"]
    assert flags[25] == "unphysical"
    assert all(f == "" for i, f in enumerate(flags) if i != 25)
    assert np.isnan(table.column("C_experimental")[25])
    clean_rows = [i for i in range(len(flags)) if i != 25]
    assert np.abs(table.column("residual")[clean_rows]).max() < 1e-10


def test_coherence_series_reproduces_pipeline_value():
    temps = np.concatenate([[2.43], np.linspace(3.0, 350.0, 49)])
    series = model_series(temps, "with-anchor")
    fit = fit_bleaney_bowers(series)
    table = coherence_series(series, fit)
    assert table.column("C_experimental")[0] == pytest.approx(
        0.3594341330907851, abs=1e-6
    )
