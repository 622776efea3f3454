"""Spectrum families: construction rules, positivity, scaling."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from dosc.errors import PositivityError, UsageError
from dosc.spectra import (
    FlatBand,
    GaussianPeak,
    OhmicExp,
    Tabulated,
    UnitSystem,
    eval_V,
    positivity_check,
    require_admissible,
)

U = UnitSystem()


def test_zero_coupling_evaluates_to_zero():
    spec = OhmicExp(amplitude=0.0, cutoff=5.0)
    assert eval_V(spec, 0.7) == 0.0
    assert spec.is_zero()


def test_ohmic_value_at_cutoff():
    spec = OhmicExp(amplitude=0.3, cutoff=5.0)
    v = eval_V(spec, 5.0)
    assert abs(v * v - 0.09 * 5.0 * math.exp(-1.0)) < 1e-14


def test_flat_band_midpoint():
    spec = FlatBand(level=0.2, lower=0.1, upper=2.0)
    assert eval_V(spec, 1.05) == 0.2
    assert eval_V(spec, 0.05) == 0.0
    assert eval_V(spec, 2.5) == 0.0


def test_zero_coupling_margin_is_omega0():
    rep = positivity_check(OhmicExp(amplitude=0.0, cutoff=5.0), U)
    assert rep.integral == 0.0
    assert rep.margin == U.omega0
    assert rep.renormalized_sq == U.omega0**2


@pytest.mark.parametrize(
    "spec",
    [
        OhmicExp(amplitude=0.3, cutoff=5.0),
        OhmicExp(amplitude=0.4, cutoff=2.0),
        FlatBand(level=0.2, lower=0.1, upper=2.0),
        FlatBand(level=0.3, lower=0.5, upper=1.7),
        Tabulated(omegas=(0.0, 0.8, 1.6, 2.4, 3.2, 4.0),
                  values=(0.0, 0.3, 0.25, 0.2, 0.15, 0.1)),
        Tabulated(omegas=(0.5, 1.0, 2.0), values=(0.3, 0.2, 0.1)),
    ],
)
def test_positivity_integral_matches_analytic(spec):
    # positivity_check takes the closed form; QUADPACK, one segment of a
    # tabulated V at a time so that no kink lies inside an integral, is
    # the independent reference
    edges = getattr(spec, "omegas", (spec.support_lower, spec.support_upper))
    ref = sum(quad(lambda w: spec.v_sq_scalar(w) / w, a, b, epsabs=0.0, epsrel=1e-13)[0]
              for a, b in zip(edges[:-1], edges[1:]))
    rep = positivity_check(spec, U)
    exact = spec.analytic_positivity_integral()
    assert rep.integral == exact
    assert abs(exact - ref) <= 1e-10 * ref


@given(s=st.floats(0.1, 2.0))
def test_scaling_quadratic_ohmic(s):
    base = OhmicExp(amplitude=0.25, cutoff=5.0)
    assert math.isclose(
        base.scaled(s).analytic_positivity_integral(),
        s * s * base.analytic_positivity_integral(),
        rel_tol=1e-12,
    )


@given(s=st.floats(0.1, 2.0))
def test_scaling_quadratic_flat(s):
    base = FlatBand(level=0.2, lower=0.1, upper=2.0)
    assert math.isclose(
        base.scaled(s).analytic_positivity_integral(),
        s * s * base.analytic_positivity_integral(),
        rel_tol=1e-12,
    )


def test_gaussian_scaling_numerical():
    base = GaussianPeak(amplitude=0.1, center=1.0, width=0.05)
    i1 = positivity_check(base, U).integral
    i2 = positivity_check(base.scaled(2.0), U).integral
    assert abs(i2 - 4.0 * i1) < 1e-8 * abs(i2)


def test_supercritical_coupling_rejected():
    # amplitude^2 * cutoff = 1.01 * omega0
    spec = OhmicExp(amplitude=math.sqrt(1.01 / 5.0), cutoff=5.0)
    with pytest.raises(PositivityError) as exc:
        require_admissible(spec, U)
    assert exc.value.detail["margin"] < 0


def test_near_critical_coupling_admitted():
    spec = OhmicExp(amplitude=math.sqrt(0.99 / 5.0), cutoff=5.0)
    rep = require_admissible(spec, U)
    assert 0.0 < rep.margin < 0.011
    assert math.isclose(rep.renormalized_sq, U.omega0 * rep.margin, rel_tol=1e-15)


def test_flat_band_requires_positive_lower_edge():
    with pytest.raises(UsageError):
        FlatBand(level=0.2, lower=0.0, upper=2.0)
    with pytest.raises(UsageError):
        FlatBand(level=0.2, lower=1.5, upper=1.0)


def test_gaussian_peak_must_clear_origin():
    with pytest.raises(UsageError):
        GaussianPeak(amplitude=0.1, center=0.4, width=0.1)


def test_gaussian_support_window():
    spec = GaussianPeak(amplitude=0.1, center=1.0, width=0.05)
    assert spec.support_lower == pytest.approx(0.6)
    assert spec.support_upper == pytest.approx(1.4)
    assert spec.v_sq(0.5) == 0.0
    assert spec.v_sq(1.0) == pytest.approx(0.01)


def test_tabulated_interpolates_linearly():
    spec = Tabulated(omegas=(0.5, 1.0, 2.0), values=(0.0, 0.2, 0.1))
    assert eval_V(spec, 0.75) == pytest.approx(0.1)
    assert eval_V(spec, 1.5) == pytest.approx(0.15)
    assert eval_V(spec, 0.2) == 0.0
    assert eval_V(spec, 3.0) == 0.0


def test_tabulated_construction_rules():
    with pytest.raises(UsageError):
        Tabulated(omegas=(1.0, 0.5), values=(0.1, 0.1))
    with pytest.raises(UsageError):
        Tabulated(omegas=(0.0, 1.0), values=(0.3, 0.1))
    with pytest.raises(UsageError):
        Tabulated(omegas=(0.5, 1.0, 2.0), values=(0.1, 0.2))
    # node at zero is fine when V vanishes there
    Tabulated(omegas=(0.0, 1.0), values=(0.0, 0.1))


def test_omega_max_cannot_truncate_support():
    with pytest.raises(UsageError):
        FlatBand(level=0.2, lower=0.1, upper=2.0, omega_max=1.0)


def test_negative_query_rejected():
    with pytest.raises(UsageError):
        eval_V(OhmicExp(amplitude=0.3, cutoff=5.0), -0.5)


def test_unit_system_validation():
    with pytest.raises(UsageError):
        UnitSystem(omega0=-1.0)
    with pytest.raises(UsageError):
        UnitSystem(mass=0.0)
