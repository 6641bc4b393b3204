"""End-to-end acceptance gate.

Each test is one shipping criterion, checked at its stated tolerance, and
prints a single PASS/FAIL line (run pytest with -s or read captured output).
"""

import subprocess
import sys
import time

import numpy as np
import pytest

from spindimer import (
    Basis,
    CoherenceValue,
    DimerParams,
    SusceptibilitySeries,
    SusceptibilityPoint,
    bleaney_bowers_chi,
    build_hamiltonian,
    coherence_from_chi,
    coherence_longitudinal,
    coherence_transverse,
    critical_field,
    fit_bleaney_bowers,
    geometric_discord_zero_field,
    gibbs_state,
    l1_coherence,
    read_table_csv,
    rotate_to_sx,
    run_sweep,
    SweepSpec,
    SweepVariable,
    emit,
)
from spindimer.models import ChiUnit

J_REF = -2.86
G_REF = 2.0


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_critical_field_cli():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "spindimer", "critical-field",
         "--j-kelvin", "-2.86", "--g", "2.0"],
        capture_output=True,
        text=True,
    )
    elapsed = time.perf_counter() - start
    oe_line = [l for l in proc.stdout.splitlines() if l.endswith("Oe")][0]
    b_c_oe = float(oe_line.split("=")[1].split()[0])
    rel = abs(b_c_oe - 21279.0) / 21279.0
    routes = critical_field(J_REF, G_REF)
    gap = abs(routes.tesla - routes.tesla_oracle)
    ok = proc.returncode == 0 and rel < 1e-3 and gap < 1e-9 and elapsed < 1.0
    _report(
        1,
        ok,
        f"B_c = {b_c_oe:.2f} Oe, {rel:.2e} from 21279 Oe, route gap "
        f"{gap:.2e} T, {elapsed:.2f} s",
    )


def test_criterion_2_coherence_at_entanglement_death():
    start = time.perf_counter()
    point = bleaney_bowers_chi(J_REF, G_REF, 2.43)
    c = coherence_from_chi(point, G_REF).value
    elapsed = time.perf_counter() - start
    ok = abs(c - 0.359) <= 0.005 and elapsed < 1.0
    _report(2, ok, f"C(2.43 K) = {c:.6f} vs 0.359 +/- 0.005, {elapsed:.3f} s")


def test_criterion_3_oracle_equivalence_on_grid():
    start = time.perf_counter()
    temps = np.geomspace(0.05, 350.0, 20)
    fields = np.linspace(0.0, 10.0, 20)
    worst_c = 0.0
    for t in temps:
        for b in fields:
            params = DimerParams(J_REF, G_REF, float(t), float(b))
            rho = gibbs_state(build_hamiltonian(params), params.temperature)
            rho_x = rotate_to_sx(rho)
            worst_c = max(
                worst_c,
                abs(coherence_longitudinal(params).value - l1_coherence(rho).value),
                abs(coherence_transverse(params).value - l1_coherence(rho_x).value),
            )
    elapsed = time.perf_counter() - start
    ok = worst_c < 1e-10 and elapsed < 10.0
    _report(
        3, ok, f"400 points: max |C gap| = {worst_c:.2e} (< 1e-10), {elapsed:.2f} s"
    )


def test_criterion_4_ground_state_limits():
    b_c = critical_field(J_REF, G_REF).tesla
    below = DimerParams(J_REF, G_REF, 0.01, 0.5 * b_c)
    above = DimerParams(J_REF, G_REF, 0.01, 1.5 * b_c)
    cz_below = coherence_longitudinal(below).value
    cz_above = coherence_longitudinal(above).value
    cx_above = coherence_transverse(above).value
    ok = (
        abs(cz_below - 1.0) < 1e-6
        and abs(cz_above) < 1e-6
        and abs(cx_above - 3.0) < 1e-6
    )
    _report(
        4,
        ok,
        f"T = 0.01 K: C_z(0.5 B_c) = {cz_below:.9f}, C_z(1.5 B_c) = "
        f"{cz_above:.2e}, C_x(1.5 B_c) = {cx_above:.9f}, each within 1e-6",
    )


def test_criterion_5_basis_independence_at_zero_field():
    temps = np.geomspace(0.05, 350.0, 200)
    worst = 0.0
    for t in temps:
        params = DimerParams(J_REF, G_REF, float(t), 0.0)
        worst = max(
            worst,
            abs(
                coherence_longitudinal(params).value
                - coherence_transverse(params).value
            ),
        )
    ok = worst < 1e-12
    _report(5, ok, f"max |C_z - C_x| over T in [0.05, 350] K = {worst:.2e} < 1e-12")


def test_criterion_6_fit_recovery():
    start = time.perf_counter()
    temps = np.linspace(2.0, 350.0, 50)
    clean = np.array([bleaney_bowers_chi(J_REF, G_REF, float(t)).chi for t in temps])
    series = SusceptibilitySeries(SusceptibilityPoint(temps, clean), "noiseless")
    fit = fit_bleaney_bowers(series)
    noiseless_ok = (
        fit.converged
        and abs(fit.j_over_kb - J_REF) < 1e-8
        and abs(fit.g - G_REF) < 1e-8
    )

    dj = []
    dg = []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        noisy = np.array([c * (1.0 + 0.01 * rng.standard_normal()) for c in clean])
        noisy_fit = fit_bleaney_bowers(
            SusceptibilitySeries(
                SusceptibilityPoint(temps, noisy, ChiUnit.EMU_PER_MOL), f"seed{seed}"
            )
        )
        dj.append(abs(noisy_fit.j_over_kb - J_REF))
        dg.append(abs(noisy_fit.g - G_REF))
    med_j = float(np.median(dj))
    med_g = float(np.median(dg))
    elapsed = time.perf_counter() - start
    ok = noiseless_ok and med_j < 0.05 and med_g < 0.02 and elapsed < 30.0
    _report(
        6,
        ok,
        f"noiseless |dJ| = {abs(fit.j_over_kb - J_REF):.1e}, |dg| = "
        f"{abs(fit.g - G_REF):.1e} (< 1e-8); 1% noise medians |dJ| = "
        f"{med_j:.4f} K (< 0.05), |dg| = {med_g:.4f} (< 0.02); {elapsed:.1f} s",
    )


def test_criterion_7_qualitative_figure_behavior(tmp_path):
    # (a) C_z falls monotonically with longitudinal field at fixed T.
    spec_a = SweepSpec(
        SweepVariable.FIELD, 0.0, 5.0, 120,
        DimerParams(J_REF, G_REF, 0.05, 0.0), Basis.SZ,
    )
    path_a = tmp_path / "a.csv"
    emit(run_sweep(spec_a), "csv", path_a, timestamp="T0")
    c_a = read_table_csv(path_a).column("C_z")
    mono = bool(np.all(np.diff(c_a) <= 1e-15))

    # (b) For B > B_c the temperature curve has an interior maximum near 1 K.
    spec_b = SweepSpec(
        SweepVariable.TEMPERATURE, 0.05, 10.0, 300,
        DimerParams(J_REF, G_REF, 1.0, 2.5), Basis.SZ,
    )
    path_b = tmp_path / "b.csv"
    emit(run_sweep(spec_b), "csv", path_b, timestamp="T0")
    table_b = read_table_csv(path_b)
    c_b = table_b.column("C_z")
    t_b = table_b.column("T_kelvin")
    k = int(np.argmax(c_b))
    interior = 0 < k < len(c_b) - 1
    bump = c_b[k] > c_b[0] + 0.05 and c_b[k] > c_b[-1] + 0.05
    near_1k = 0.3 < t_b[k] < 3.0

    # (c) Transverse-basis coherence exceeds 1 at strong field.
    spec_c = SweepSpec(
        SweepVariable.FIELD, 0.0, 5.0, 120,
        DimerParams(J_REF, G_REF, 0.05, 0.0), Basis.SX,
    )
    path_c = tmp_path / "c.csv"
    emit(run_sweep(spec_c), "csv", path_c, timestamp="T0")
    c_c = read_table_csv(path_c).column("C_x")
    exceeds = bool(np.max(c_c) > 1.0)

    bounded = all(
        bool(np.all(col >= 0.0) and np.all(col <= 3.0)) for col in (c_a, c_b, c_c)
    )
    ok = mono and interior and bump and near_1k and exceeds and bounded
    _report(
        7,
        ok,
        f"(a) monotone drop: {mono}; (b) interior max C_z = {c_b[k]:.4f} at "
        f"T = {t_b[k]:.2f} K: {interior and bump and near_1k}; (c) max C_x = "
        f"{np.max(c_c):.3f} > 1: {exceeds}; all C in [0, 3]: {bounded}",
    )


def test_criterion_8_discord_identity():
    temps = np.geomspace(0.05, 350.0, 120)
    worst = 0.0
    for t in temps:
        c = coherence_longitudinal(DimerParams(J_REF, G_REF, float(t), 0.0))
        q = geometric_discord_zero_field(CoherenceValue(c.value, Basis.SZ)).value
        worst = max(worst, abs(q - c.value / 2.0))
    ok = worst <= 1e-12
    _report(8, ok, f"max |Q - C/2| over zero-field grid = {worst:.2e} <= 1e-12")
