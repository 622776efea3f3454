"""Quadrature layer: golden values, invariances, failure modes."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dosc.errors import QuadratureError, UsageError
from dosc.quadrature import IntegrationResult, cauchy_pv, integrate

# PV int_0^inf exp(-x)/(1-x) dx = exp(-1)*Ei(1), computed independently
# with mpmath (30 digits) and by shrinking-window Richardson sweeps.
PV_EXP_GOLDEN = 0.6971748832350660688


def test_smooth_integral_matches_closed_form():
    r = integrate(lambda x: math.exp(-x), 0.0, math.inf)
    assert abs(r.value - 1.0) < 1e-10
    assert r.error_estimate < 1e-8
    assert r.evaluations > 0


def test_polynomial_exact():
    r = integrate(lambda x: 3.0 * x * x, 0.0, 2.0)
    assert abs(r.value - 8.0) < 1e-12


def test_pv_exponential_golden():
    r = cauchy_pv(lambda x: math.exp(-x), 1.0, 0.0, math.inf)
    assert abs(r.value - PV_EXP_GOLDEN) < 1e-10


def test_pv_constant_symmetric_interval_vanishes():
    r = cauchy_pv(lambda x: 1.0, 1.0, 0.0, 2.0)
    assert abs(r.value) < 1e-12


def test_pv_constant_asymmetric_interval():
    # PV over [0, 3] of 1/(1-x) dx = ln((pole-0)/(3-pole)) = -ln 2.
    r = cauchy_pv(lambda x: 1.0, 1.0, 0.0, 3.0)
    assert abs(r.value - (-math.log(2.0))) < 1e-10


def test_pv_linear_numerator():
    # x/(1-x) = -1 + 1/(1-x); the PV of the second piece vanishes on [0,2].
    r = cauchy_pv(lambda x: x, 1.0, 0.0, 2.0)
    assert abs(r.value - (-2.0)) < 1e-10


def test_pv_deterministic():
    a = cauchy_pv(lambda x: math.cos(x), 2.0, 0.5, 7.0)
    b = cauchy_pv(lambda x: math.cos(x), 2.0, 0.5, 7.0)
    assert a.value == b.value
    assert a.evaluations == b.evaluations


@given(
    a=st.floats(-3.0, 3.0),
    b=st.floats(-3.0, 3.0),
)
def test_integrate_linearity(a, b):
    f = lambda x: math.sin(x)
    g = lambda x: x * x
    lhs = integrate(lambda x: a * f(x) + b * g(x), 0.0, 2.0).value
    rhs = a * integrate(f, 0.0, 2.0).value + b * integrate(g, 0.0, 2.0).value
    assert abs(lhs - rhs) < 1e-9 * (1.0 + abs(lhs))


@given(shift=st.floats(0.2, 4.0))
def test_pv_pole_first_sign_convention(shift):
    # For f == 1 the closed form ln((pole-a)/(b-pole)) pins the sign.
    a, b = 0.0, 1.0 + shift
    r = cauchy_pv(lambda x: 1.0, 1.0, a, b)
    expect = math.log((1.0 - a) / (b - 1.0))
    assert abs(r.value - expect) < 1e-9


def test_divergent_integral_raises_with_partial():
    with pytest.raises(QuadratureError) as exc:
        integrate(lambda x: 1.0 / x, 0.0, 1.0)
    partial = exc.value.partial
    assert isinstance(partial, IntegrationResult)
    assert partial.evaluations > 0


def test_divergent_principal_value_raises_with_partial():
    # 1/x is not integrable at the lower limit; QAWC flags it
    with pytest.raises(QuadratureError) as exc:
        cauchy_pv(lambda x: 1.0 / x if x > 0 else 0.0, 1.0, 0.0, 2.0)
    partial = exc.value.partial
    assert isinstance(partial, IntegrationResult)
    assert partial.evaluations > 0


def test_bad_interval_rejected():
    with pytest.raises(UsageError):
        integrate(lambda x: x, 2.0, 1.0)
    with pytest.raises(UsageError):
        integrate(lambda x: x, math.nan, 1.0)


def test_pole_outside_interval_rejected():
    with pytest.raises(UsageError):
        cauchy_pv(lambda x: 1.0, 5.0, 0.0, 2.0)


def test_infinite_lower_limit_rejected_for_pv():
    with pytest.raises(UsageError):
        cauchy_pv(lambda x: 1.0, 1.0, -math.inf, 2.0)
