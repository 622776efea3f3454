"""Spectrum families: construction rules, positivity, scaling, and the
one number rule (errors.checked) behind every scalar a model or a
library entry point takes."""

import dataclasses
import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad

from dosc import dynamics, fano, oracle, weakcoupling
from dosc.errors import PositivityError, UsageError
from dosc.spectra import (
    CouplingSpectrum,
    FlatBand,
    GaussianPeak,
    OhmicExp,
    Tabulated,
    UnitSystem,
    positivity_check,
    require_admissible,
)

U = UnitSystem()


def test_zero_coupling_evaluates_to_zero():
    spec = OhmicExp(amplitude=0.0, cutoff=5.0)
    assert spec.v(0.7) == 0.0
    assert spec.is_zero()


def test_ohmic_value_at_cutoff():
    spec = OhmicExp(amplitude=0.3, cutoff=5.0)
    v = spec.v(5.0)
    assert abs(v * v - 0.09 * 5.0 * math.exp(-1.0)) < 1e-14


def test_flat_band_midpoint():
    spec = FlatBand(level=0.2, lower=0.1, upper=2.0)
    assert spec.v(1.05) == 0.2
    assert spec.v(0.05) == 0.0
    assert spec.v(2.5) == 0.0


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
        GaussianPeak(amplitude=0.1, center=1.0, width=0.05),
        # the peak window reaching almost to the origin, and a narrow peak
        GaussianPeak(amplitude=0.2, center=1.0, width=1.0 / 8.0001),
        GaussianPeak(amplitude=0.3, center=3.0, width=1e-4),
    ],
)
def test_positivity_integral_matches_analytic(spec):
    # positivity_check takes the closed form; QUADPACK, one segment of a
    # tabulated V at a time so that no kink lies inside an integral, is
    # the independent reference
    edges = getattr(spec, "omegas", (spec.support_lower, spec.support_upper))
    ref = sum(quad(lambda w: spec.v_sq(w) / w, a, b, epsabs=0.0, epsrel=1e-13)[0]
              for a, b in zip(edges[:-1], edges[1:]))
    rep = positivity_check(spec, U)
    exact = spec.analytic_positivity_integral()
    assert rep.integral == exact
    assert abs(exact - ref) <= 1e-10 * ref


@given(s=st.floats(0.1, 2.0))
def test_scaling_quadratic_ohmic(s):
    base = OhmicExp(amplitude=0.25, cutoff=5.0)
    assert math.isclose(
        replace(base, amplitude=s * base.amplitude).analytic_positivity_integral(),
        s * s * base.analytic_positivity_integral(),
        rel_tol=1e-12,
    )


@given(s=st.floats(0.1, 2.0))
def test_scaling_quadratic_flat(s):
    base = FlatBand(level=0.2, lower=0.1, upper=2.0)
    assert math.isclose(
        replace(base, level=s * base.level).analytic_positivity_integral(),
        s * s * base.analytic_positivity_integral(),
        rel_tol=1e-12,
    )


@given(s=st.floats(0.1, 2.0))
def test_scaling_quadratic_gaussian(s):
    base = GaussianPeak(amplitude=0.1, center=1.0, width=0.05)
    assert math.isclose(
        replace(base, amplitude=s * base.amplitude).analytic_positivity_integral(),
        s * s * base.analytic_positivity_integral(),
        rel_tol=1e-12,
    )


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
    assert spec.v(0.75) == pytest.approx(0.1)
    assert spec.v(1.5) == pytest.approx(0.15)
    assert spec.v(0.2) == 0.0
    assert spec.v(3.0) == 0.0
    # V keeps its sign; |V|^2 does not
    spec = Tabulated(omegas=(0.5, 1.0, 2.0), values=(0.0, -0.2, 0.1))
    assert spec.v(0.75) == pytest.approx(-0.1)
    assert spec.v(1.0) == -0.2
    assert spec.v_sq(1.0) == pytest.approx(0.04)
    assert np.array_equal(spec.v(np.array([0.75, 1.0])), [spec.v(0.75), -0.2])


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


FAMILY_SAMPLES = [
    OhmicExp(amplitude=0.3, cutoff=5.0),
    FlatBand(level=0.2, lower=0.1, upper=2.0),
    GaussianPeak(amplitude=0.1, center=1.0, width=0.05),
    Tabulated(omegas=(0.0, 0.5, 1.0, 2.0), values=(0.0, 0.3, -0.2, 0.1)),
]


@pytest.mark.parametrize("spec", FAMILY_SAMPLES, ids=lambda s: s.family)
def test_scalar_call_matches_array(spec):
    # inside and outside the support, and on its edges
    xs = np.concatenate([np.linspace(0.0, 1.2 * spec.omega_max, 41),
                         [spec.support_lower, spec.omega_max]])
    for name in ("v_sq", "v"):
        fn = getattr(spec, name)
        array = fn(xs)
        for x, expected in zip(xs, array):
            out = fn(float(x))
            assert type(out) is float
            assert out == expected


@pytest.mark.parametrize("spec", FAMILY_SAMPLES, ids=lambda s: s.family)
def test_is_zero_exactly_at_zero_scale(spec):
    assert not spec.is_zero()
    if spec.scale is None:
        assert replace(spec, values=(0.0,) * len(spec.values)).is_zero()
        # one non-zero node is enough to couple
        assert not replace(spec, values=(0.0, 0.0, 0.0, -1e-3)).is_zero()
    else:
        assert replace(spec, **{spec.scale: 0.0}).is_zero()
        assert not replace(spec, **{spec.scale: 1e-3}).is_zero()


def test_unit_system_validation():
    with pytest.raises(UsageError):
        UnitSystem(omega0=-1.0)
    with pytest.raises(UsageError):
        UnitSystem(mass=0.0)


# -- the number rule ---------------------------------------------------

SPEC = FlatBand(level=0.2, lower=0.1, upper=2.0)


@functools.cache
def _kernels():
    return dynamics.kernels(fano.solve(SPEC, U), np.linspace(0.0, 5.0, 11))


def _cases():
    """(id, call taking the value, field name, rule) for every float
    field of UnitSystem and of each family, and each entry point."""
    for sample in [U, *FAMILY_SAMPLES]:
        for f in dataclasses.fields(sample):
            if f.type in ("float", "float | None"):
                rule = ">= 0" if f.name == getattr(sample, "scale", None) else "> 0"
                yield (f"{type(sample).__name__}.{f.name}",
                       lambda x, s=sample, n=f.name: replace(s, **{n: x}), f.name, rule)
    yield ("FiniteBathModel.omega0",
           lambda x: oracle.FiniteBathModel(x, [1.0], [0.5]), "omega0", "> 0")
    yield "lamb_shift", lambda x: weakcoupling.lamb_shift(SPEC, U, x), "omega", ">= 0"
    yield "discretize", lambda x: oracle.discretize(SPEC, U, x), "N", "integer >= 1"
    yield ("classify_damping",
           lambda x: dynamics.classify_damping(_kernels(), scan_window=x),
           "scan_window", "> 0")


def _bad_values():
    for case_id, call, name, rule in _cases():
        bad = [True, math.nan, math.inf, -1]
        if rule != ">= 0":
            bad.append(0)
        if rule.startswith("integer"):
            bad.append(2.5)
        for value in bad:
            yield pytest.param(call, name, value, id=f"{case_id}={value!r}")


def test_every_family_has_a_sample():
    # the number rule and the conventions above reach a family through
    # its sample
    assert ({s.family for s in FAMILY_SAMPLES}
            == {cls.family for cls in CouplingSpectrum.__subclasses__()})


@pytest.mark.parametrize("call,name,value", _bad_values())
def test_bad_number_refused(call, name, value):
    with pytest.raises(UsageError) as exc:
        call(value)
    assert str(exc.value).startswith(f"{name} must be ")


def test_integral_float_is_an_integer():
    # the library agrees with the CLI, where oracle.N=1e3 means 1000
    by_float = oracle.discretize(SPEC, U, 10.0)
    by_int = oracle.discretize(SPEC, U, 10)
    assert by_float.n_modes == 10
    assert np.array_equal(by_float.bath_freqs, by_int.bath_freqs)
    assert np.array_equal(by_float.couplings, by_int.couplings)



@pytest.mark.parametrize("make,value", [
    (lambda x: oracle.discretize(SPEC, U, x).bath_freqs, np.int64(10)),
    (lambda x: FlatBand(level=x, lower=0.1, upper=2.0).level, np.float32(0.2)),
    (lambda x: UnitSystem(omega0=x).omega0, np.int64(2)),
    (lambda x: UnitSystem(omega0=x).omega0, np.True_),
], ids=["discretize-N-int64", "FlatBand-level-float32", "UnitSystem-omega0-int64",
        "UnitSystem-omega0-bool_"])
def test_numpy_scalars_are_numbers(make, value):
    # a numpy scalar passes wherever the matching Python number does;
    # numpy's bool is refused like Python's
    if isinstance(value, np.bool_):
        with pytest.raises(UsageError, match="omega0 must be a finite number > 0"):
            make(value)
    else:
        assert np.array_equal(make(value), make(value.item()))
