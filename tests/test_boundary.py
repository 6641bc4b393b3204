"""Validation happens once, at the boundary.

Public constructors check everything. The package's own builders skip the
checks that their construction already guarantees. These tests hold them
to it: every object a builder returns must still pass its public
constructor, and a sweep must not re-derive any spectrum with eigvalsh.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import spindimer.models as models
import spindimer.sweep as sweep
from spindimer import (
    Basis,
    CoherenceValue,
    DensityMatrix4,
    DimerParams,
    Hamiltonian4,
    PressureTable,
    SweepSpec,
    SweepVariable,
    build_hamiltonian,
    critical_field,
    gibbs_state,
    l1_coherence,
    rho_zero_field,
    rotate_to_sx,
    run_sweep,
)


@st.composite
def params_over_the_box(draw):
    """|J| 1e-3 to 1e3 K of both signs, T 1e-2 to 1e3 K, B 0 to 100 T; as
    0-d values, or as a stack of 1 to 6."""
    scalar = draw(st.booleans())
    n = 1 if scalar else draw(st.integers(1, 6))

    def column(values):
        drawn = np.array(draw(st.lists(values, min_size=n, max_size=n)))
        return float(drawn[0]) if scalar else drawn

    j = column(st.sampled_from([-1.0, 1.0])) * 10.0 ** column(st.floats(-3.0, 3.0))
    t = 10.0 ** column(st.floats(-2.0, 3.0))
    return DimerParams(j, column(st.floats(0.5, 5.0)), t, column(st.floats(0.0, 100.0)))


def _accepted_again(rho: DensityMatrix4) -> None:
    public = DensityMatrix4(rho.entries, rho.basis)
    assert np.array_equal(public.entries, rho.entries)
    assert not rho.entries.flags.writeable


@settings(max_examples=150, deadline=None)
@given(
    params_over_the_box(),
    st.lists(st.floats(-1.0, 1.0 / 3.0), min_size=1, max_size=6),
)
def test_every_builder_output_passes_its_public_constructor(params, cs):
    h = build_hamiltonian(params)
    assert np.array_equal(Hamiltonian4(h.entries).entries, h.entries)
    assert not h.entries.flags.writeable

    rho_z = gibbs_state(h, params.temperature)
    rho_x = rotate_to_sx(rho_z)
    states = [rho_z, rho_x, rho_zero_field(cs[0]), rho_zero_field(np.array(cs))]
    for rho in states:
        _accepted_again(rho)
        c = l1_coherence(rho)
        public = CoherenceValue(c.value, c.basis)
        assert np.array_equal(public.value, c.value)
        assert type(public.value) is type(c.value)


def _specs():
    fixed = DimerParams(-2.86, 2.0, 0.5, 1.5)
    table = PressureTable(
        np.array([0.0, 5.0, 10.0]), np.array([-2.86, -0.5, 1.0]), "inline"
    )
    for basis in (Basis.SZ, Basis.SX):
        yield SweepSpec(SweepVariable.TEMPERATURE, 0.01, 300.0, 50, fixed, basis), None
        yield SweepSpec(SweepVariable.FIELD, 0.0, 20.0, 50, fixed, basis), None
        yield SweepSpec(SweepVariable.PRESSURE, 0.0, 10.0, 50, fixed, basis), table


SPECS = list(_specs())
# Each case is named by the `variable` its table writes and its basis.
_FIELD_IDS = {Basis.SZ: "field_longitudinal", Basis.SX: "field_transverse"}
SPEC_IDS = [
    f"{_FIELD_IDS[s.basis] if s.variable is SweepVariable.FIELD else s.variable.value}"
    f"-{s.basis.value}"
    for s, _ in SPECS
]


@pytest.mark.parametrize("spec, table", SPECS, ids=SPEC_IDS)
def test_run_sweep_calls_no_eigvalsh(monkeypatch, spec, table):
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counting(*args, **kwargs):
        calls.append(args)
        return eigvalsh(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counting)
    run_sweep(spec, table)
    assert calls == []
    # The counter is live: the public constructor still re-derives the
    # spectrum of a state handed to it from outside.
    DensityMatrix4(np.eye(4) / 4.0, spec.basis)
    assert len(calls) == 1


@pytest.mark.parametrize("spec, table", SPECS, ids=SPEC_IDS)
def test_run_sweep_batch_passes_the_public_parameter_check(monkeypatch, spec, table):
    seen = []

    def recording(params):
        seen.append(params)
        return build_hamiltonian(params)

    monkeypatch.setattr(sweep, "build_hamiltonian", recording)
    run_sweep(spec, table)
    (params,) = seen
    public = DimerParams(
        params.j_over_kb, params.g, params.temperature, params.b_field
    )
    assert np.shape(public.temperature) == (spec.steps,)


def test_run_sweep_leaves_the_callers_arrays_writeable():
    j = np.full(3, -2.86)
    fixed = DimerParams(j, 2.0, 1.0, 0.5)
    run_sweep(SweepSpec(SweepVariable.TEMPERATURE, 0.5, 50.0, 3, fixed, Basis.SZ))
    assert j.flags.writeable


@pytest.mark.parametrize("j", [-2.86, -300.0, -1e4])
def test_critical_field_rounds_pass_the_public_parameter_check(monkeypatch, j):
    fields = []

    def recording(params):
        fields.append(params.b_field)
        DimerParams(params.j_over_kb, params.g, params.temperature, params.b_field)
        return build_hamiltonian(params)

    monkeypatch.setattr(models, "build_hamiltonian", recording)
    bc = critical_field(j, 2.0)
    assert len(fields) >= 2
    assert all(np.all((0.0 <= f) & (f <= 2.0 * bc.tesla)) for f in fields)


def test_critical_field_checks_its_bracket_before_the_rounds():
    # 2 B_c overflows: refused as the public DimerParams refused it.
    with pytest.raises(ValueError, match="b_field must be finite"):
        critical_field(-1e308, 1e-300)
    # The bracket is finite, but g mu_B B at its top end is not.
    with pytest.raises(ValueError, match="Hamiltonian entries must be finite"):
        critical_field(-1e308, 2.0)
