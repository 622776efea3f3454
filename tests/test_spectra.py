"""Spectrum families: construction rules, positivity, scaling, the
one number rule (errors.checked) behind every scalar a model or a
library entry point takes, and the numpy ports of the special
functions against scipy.special."""

import dataclasses
import decimal
import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import special
from scipy.integrate import quad

from dosc import dynamics, fano, oracle, spectra, weakcoupling
from dosc.errors import PositivityError, UsageError
from dosc.spectra import (
    DAWSON_TABLE_X,
    OHMIC_ASYMPTOTIC_X,
    OHMIC_SERIES_X,
    CouplingSpectrum,
    FlatBand,
    GaussianPeak,
    OhmicExp,
    Tabulated,
    UnitSystem,
    dawsn,
    ohmic_bracket,
    require_admissible,
    xlogy,
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
    spec = OhmicExp(amplitude=0.0, cutoff=5.0)
    assert spec.analytic_positivity_integral() == 0.0
    assert require_admissible(spec, U) == U.omega0


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
    # require_admissible takes the closed form; QUADPACK, one segment of a
    # tabulated V at a time so that no kink lies inside an integral, is
    # the independent reference
    edges = getattr(spec, "omegas", (spec.support_lower, spec.support_upper))
    ref = sum(quad(lambda w: spec.v_sq(w) / w, a, b, epsabs=0.0, epsrel=1e-13)[0]
              for a, b in zip(edges[:-1], edges[1:]))
    exact = spec.analytic_positivity_integral()
    assert require_admissible(spec, U) == U.omega0 - exact
    assert abs(exact - ref) <= 1e-10 * ref


def test_tabulated_positivity_integral_with_close_nodes():
    # 100 random nodes, two of them 4e-5 apart relative to their
    # position: the expanded segment terms cancelled to an error of 1e-9
    # here, and the brackets without their series still reach 6e-14
    rng = np.random.default_rng(7)
    omegas = np.sort(rng.uniform(0.1, 5.0, 100))
    spec = Tabulated(omegas=omegas.tolist(), values=rng.uniform(0.0, 0.3, 100).tolist())
    ref = sum(quad(lambda w: spec.v_sq(w) / w, a, b, epsabs=0.0, epsrel=1e-13)[0]
              for a, b in zip(omegas[:-1], omegas[1:]))
    assert abs(spec.analytic_positivity_integral() - ref) <= 1e-14 * ref


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
    margin = require_admissible(spec, U)
    assert 0.0 < margin < 0.011


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
def _solution():
    return fano.solve(SPEC, U)


@functools.cache
def _kernels():
    return dynamics.kernels(_solution(), np.linspace(0.0, 5.0, 11))


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
    for name, rule in (("max_nodes", "integer >= 1"), ("max_rounds", "integer >= 1"),
                       ("norm_tol", "> 0"), ("sum_tol", "> 0")):
        yield (f"compute_pi.{name}",
               lambda x, n=name: fano.compute_pi(SPEC, U, **{n: x}),
               name, rule)
    yield ("refine_for_times.t_max",
           lambda x: fano.refine_for_times(_solution(), x), "t_max", "")
    yield ("SpectralSolution.alias_mass_tol",
           lambda x: replace(_solution(), alias_mass_tol=x), "alias_mass_tol", ">= 0")
    yield ("classify_damping",
           lambda x: dynamics.classify_damping(_kernels(), scan_window=x),
           "scan_window", "> 0")
    yield ("classify_damping.resolution",
           lambda x: dynamics.classify_damping(_kernels(), resolution=x),
           "resolution", ">= 0")
    yield ("compare_with_continuum",
           lambda x: oracle.compare_with_continuum(_solution(), U, 100, bins=x),
           "bins", "integer >= 1")


def _bad_values():
    for case_id, call, name, rule in _cases():
        bad = [True, math.nan, math.inf]
        if rule:                       # a lower bound; t_max has none
            bad.append(-1)
        if rule not in ("", ">= 0"):
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


def test_numpy_scalars_stored_as_python_numbers():
    # a model keeps the Python number its numpy scalar stands for, so a
    # float32 level solves to the same grid as its float64 widening
    by_f32 = fano.solve(FlatBand(level=np.float32(0.2), lower=0.1, upper=2.0), U)
    by_f64 = fano.solve(FlatBand(level=float(np.float32(0.2)), lower=0.1, upper=2.0), U)
    assert np.array_equal(by_f32.nodes, by_f64.nodes)
    assert np.array_equal(by_f32.pi, by_f64.pi)
    assert type(UnitSystem(omega0=np.int64(2)).omega0) is int
    assert type(oracle.FiniteBathModel(np.float32(1.0), [1.0], [0.5]).omega0) is float


# ---------------------------------------------------------------------------
# special functions: the numpy ports against scipy.special

def _both_sides(points):
    points = np.asarray(points, dtype=float)
    return np.concatenate([points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)])


def _dawson_maclaurin(x: float) -> float:
    """D(x) = sum_n (-2)^n x^(2n+1) / (2n+1)!! in 40-digit decimal
    arithmetic, for |x| < 1/4."""
    with decimal.localcontext() as ctx:
        ctx.prec = 40
        x = decimal.Decimal(x)
        term = total = x
        for n in range(1, 30):
            term *= -2 * x * x / (2 * n + 1)
            total += term
        return float(total)


def test_dawsn_port_matches_reference():
    # every cell centre and edge of the table, its top, the asymptotic
    # range out to 40, and dense points near 0, of both signs
    x = np.concatenate([
        np.geomspace(1e-300, 0.25, 200), np.linspace(0.0, 1.0, 401),
        _both_sides(np.arange(0.0, DAWSON_TABLE_X + 0.01, 1 / 32)),
        np.linspace(DAWSON_TABLE_X, 40.0, 801)])
    x = np.concatenate([x, -x])
    # scipy's own value is off by up to 1.8e-14 near |x| = 0.0105 (against
    # mpmath), so below 1/4 the reference is the Maclaurin series
    ref = special.dawsn(x)
    small = np.abs(x) < 0.25
    ref[small] = [_dawson_maclaurin(v) for v in x[small]]
    got = dawsn(x)
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))
    assert np.array_equal(dawsn(x.reshape(2, -1)), got.reshape(2, -1))
    assert dawsn(0.3).shape == () and float(dawsn(0.3)) == dawsn(np.array([0.3]))[0]


def test_ohmic_bracket_port_matches_scipy():
    # g on (0, 50]: below the series switch (and under 1e-6), both sides
    # of every cell edge, and the top
    edges = OHMIC_SERIES_X * spectra._OHMIC_RATIO ** np.arange(spectra._OHMIC_CELLS + 1)
    x = np.concatenate([np.geomspace(1e-300, OHMIC_ASYMPTOTIC_X, 2000),
                        np.linspace(0.0, OHMIC_ASYMPTOTIC_X, 2001)[1:],
                        _both_sides(edges), _both_sides([1e-6, 2.0])])
    x = x[(x > 0.0) & (x <= OHMIC_ASYMPTOTIC_X)]
    ref = x * (np.exp(-x) * special.expi(x) + np.exp(x) * special.exp1(x)) - 2.0
    assert np.max(np.abs(ohmic_bracket(x) - ref)) <= 1e-13


def test_xlogy_port_matches_scipy():
    a = np.array([0.0, 0.0, 0.0, -0.0, 1.0, -1.0, 2.0, 0.0, 3.0, np.nan])
    b = np.array([0.0, np.inf, np.nan, 0.5, 0.0, 0.0, np.e, 0.5, np.inf, 1.0])
    got, ref = xlogy(a, b), special.xlogy(a, b)
    np.testing.assert_array_equal(got, ref)
    assert np.array_equal(np.signbit(got[~np.isnan(ref)]), np.signbit(ref[~np.isnan(ref)]))
    y = np.geomspace(1e-300, 1e300, 1001)
    np.testing.assert_allclose(xlogy(np.full_like(y, 0.7), y), special.xlogy(0.7, y),
                               rtol=4e-16, atol=0.0)


def test_tabulated_dispersion_finite_and_continuous_at_interior_nodes():
    # there the log term multiplies a bracket that vanishes: xlogy(0, 0)
    spec = Tabulated(omegas=[0.0, 0.5, 1.0, 1.5, 2.0], values=[0.0, 0.2, 0.1, 0.15, 0.0])
    nodes = np.array([0.5, 1.0, 1.5])
    at = spec.dispersion(nodes)
    assert np.all(np.isfinite(at))
    for side in (-1e-9, 1e-9):
        assert np.max(np.abs(spec.dispersion(nodes + side) - at)) < 1e-6


def test_special_functions_at_extreme_arguments():
    # as in scipy, and no RuntimeWarning (an error under the suite's filter)
    x = np.array([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7e308, np.inf, -np.inf, np.nan])
    got, ref = dawsn(x), special.dawsn(x)
    np.testing.assert_allclose(got, ref, rtol=1e-15, atol=0.0)
    assert np.array_equal(np.signbit(got[:-1]), np.signbit(ref[:-1]))
    w = np.array([0.0, 1e-300, 250.0, np.nextafter(250.0, 1e3), 1e300, np.inf])
    ohmic = OhmicExp(amplitude=0.3, cutoff=5.0).dispersion(w)
    assert np.all(np.isfinite(ohmic)) and ohmic[0] == ohmic[1] == -2.0 * 0.09 * 5.0
    assert ohmic[-1] == ohmic[-2] == 0.0
    peak = GaussianPeak(amplitude=0.1, center=1.5, width=0.1).dispersion(np.array([1e300, np.inf]))
    assert np.array_equal(peak, [0.0, 0.0])
