"""The package's public surface: one public path per quantity."""

import importlib
import inspect
import pkgutil

import numpy as np
import pytest

import spindimer
from spindimer import (
    ChiUnit,
    DataError,
    SusceptibilityPoint,
    SusceptibilitySeries,
    bleaney_bowers_chi,
    coherence_from_chi,
    fit_bleaney_bowers,
    load_series,
)
from spindimer.constants import CURIE_EMU_K_PER_MOL
from spindimer.models import correlation_values

REMOVED = (
    "CorrelationValue",
    "correlation_from_chi",
    "rotate_to_sz",
    "rho_longitudinal",
    "rho_transverse",
    "_level_mixture",
    "_LEVEL_STATES",
)

# The chi pipeline takes molar chi and nothing else: every parameter left
# is one a program sets.
SIGNATURES = {
    bleaney_bowers_chi: ["j_over_kb", "g", "temperature"],
    correlation_values: ["point", "g"],
    coherence_from_chi: ["point", "g"],
    fit_bleaney_bowers: ["series", "init"],
    load_series: ["path", "unit"],
}


def _modules():
    yield spindimer
    for info in pkgutil.iter_modules(spindimer.__path__):
        yield importlib.import_module(f"spindimer.{info.name}")


@pytest.mark.parametrize("name", spindimer.__all__)
def test_every_exported_name_resolves(name):
    assert getattr(spindimer, name, None) is not None


def test_exports_are_unique():
    assert len(spindimer.__all__) == len(set(spindimer.__all__))


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_gone_everywhere(name):
    assert name not in spindimer.__all__
    for module in _modules():
        assert not hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("func", SIGNATURES, ids=lambda f: f.__name__)
def test_chi_pipeline_parameters(func):
    assert list(inspect.signature(func).parameters) == SIGNATURES[func]


@pytest.mark.parametrize("name", ("temperatures", "chi_values", "unit"))
def test_series_reads_through_its_data(name):
    assert not hasattr(SusceptibilitySeries, name)


def test_chi_unit_values_are_one_emu_per_mol():
    assert ChiUnit.EMU_PER_MOL.value == 1.0
    si = ChiUnit.SI_M3_PER_MOL
    assert SusceptibilityPoint(2.0, si.value, si).chi_emu() == 1.0


def test_coherence_from_chi_names_the_bad_sample_of_an_array():
    g, t = 2.0, np.array([2.0, 5.0, 10.0, 20.0])
    # c = 2 T chi / (g^2 K) - 1: the band is [-1.02, 1/3 + 0.02], and only
    # the third sample (c = 0.9) falls outside it.
    c = np.array([-0.4, 0.1, 0.9, 0.3])
    chi = (c + 1.0) * g**2 * CURIE_EMU_K_PER_MOL / (2.0 * t)
    point = SusceptibilityPoint(t, chi, ChiUnit.EMU_PER_MOL)
    with pytest.raises(DataError, match=r"unphysical data point: correlation 0\.9$"):
        coherence_from_chi(point, g)
    good = SusceptibilityPoint(t[[0, 1, 3]], chi[[0, 1, 3]], ChiUnit.EMU_PER_MOL)
    np.testing.assert_allclose(
        coherence_from_chi(good, g).value, [0.4, 0.1, 0.3], atol=1e-12
    )
