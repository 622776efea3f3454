"""Ground-state observables: two-mode goldens, invariants, identities."""

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dosc.errors import InternalConsistencyError, UsageError
from dosc.fano import frequency_moment, refine_for_times, solve
from dosc.groundstate import (
    ground_state_moments,
    interpretation_identities,
    uncoupled_summary,
)
from dosc.spectra import OhmicExp, UnitSystem

U = UnitSystem()


class Measure:
    """Minimal (nodes, weights) measure: discrete weights at fixed
    frequencies, for an oscillator of frequency omega0 and stability
    margin ``margin``."""

    def __init__(self, weights, freqs, omega0=1.0, margin=1.0):
        self.weights = np.asarray(weights, dtype=float)
        self.nodes = np.asarray(freqs, dtype=float)
        self.omega0 = omega0
        self.margin = margin


def one_node(m1, minv):
    """A single node at sqrt(m1/minv) with weight sqrt(m1 minv): its
    moments are <<omega>> = m1 and <<1/omega>> = minv."""
    return Measure((math.sqrt(m1 * minv),), (math.sqrt(m1 / minv),))


# Oscillator at omega0=1 coupled to one bath mode at omega1=1 with V=0.5:
# the 2x2 frequency matrix [[1, .5], [.5, 1]] has normal modes at
# sqrt(1.5), sqrt(0.5) with equal weights 1/2, and margin 1 - 0.5^2/1.
TWO_MODE = Measure((0.5, 0.5), (math.sqrt(1.5), math.sqrt(0.5)), margin=0.75)


def chi(s, xi_r, xi_i):
    """Characteristic function of the reduced state,
    chi(xi) = exp(-(<<omega>>/omega0 xi_r^2 + omega0 <<1/omega>> xi_i^2)/2),
    written with quad_p_unc^2 = <<omega>>/(2 omega0) and
    quad_x_unc^2 = omega0 <<1/omega>>/2."""
    return math.exp(-(s.quad_p_unc ** 2 * xi_r ** 2 + s.quad_x_unc ** 2 * xi_i ** 2))


def test_uncoupled_closed_forms():
    s = uncoupled_summary(U)
    assert s.var_x == 0.5 and s.var_p == 0.5
    assert s.omega_c == 1.0 and s.n_bar_c == 0.0
    assert s.T_eff == 0.0 and s.entropy == 0.0 and s.mutual_info == 0.0
    assert s.mean_energy == 0.5
    assert s.quad_x_unc * s.quad_p_unc == pytest.approx(0.5)


def test_uncoupled_other_units():
    # the moments of a unit point mass at omega0, within an ulp or so
    # of the textbook closed forms
    for units in (UnitSystem(omega0=2.0, mass=3.0, hbar=1.5),
                  UnitSystem(omega0=0.3, mass=0.7, hbar=2.0)):
        hbar, m, w0 = units.hbar, units.mass, units.omega0
        s = uncoupled_summary(units)
        assert s == ground_state_moments(Measure((1.0,), (w0,), w0), units)
        assert s.var_x == pytest.approx(hbar / (2 * m * w0), rel=1e-15)
        assert s.var_p == pytest.approx(hbar * m * w0 / 2, rel=1e-15)
        assert s.quad_x_unc == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert s.quad_p_unc == pytest.approx(math.sqrt(0.5), rel=1e-15)
        assert s.omega_c == pytest.approx(w0, rel=1e-15)
        assert s.mean_energy == pytest.approx(0.5 * hbar * w0, rel=1e-15)
        assert s.n_bar_c == s.T_eff == s.entropy == s.mutual_info == 0.0


def test_two_mode_moments():
    s = ground_state_moments(TWO_MODE, U)
    assert s.var_x == pytest.approx(0.5576776, abs=1e-6)
    assert s.var_p == pytest.approx(0.4829629, abs=1e-6)
    assert s.mean_x == 0.0 and s.mean_p == 0.0 and s.sym_xp == 0.0


def test_two_mode_effective_parameters():
    s = ground_state_moments(TWO_MODE, U)
    assert s.omega_c == pytest.approx(0.9306049, abs=1e-6)
    assert s.n_bar_c == pytest.approx(0.0189773, abs=2e-6)
    assert s.T_eff == pytest.approx(0.2336, abs=2e-4)


def test_two_mode_entropy_and_energy():
    s = ground_state_moments(TWO_MODE, U)
    n = s.n_bar_c
    assert s.entropy == pytest.approx((n + 1) * math.log1p(n) - n * math.log(n), rel=1e-12)
    assert s.entropy == pytest.approx(0.094391, abs=2e-5)
    assert s.mean_energy == pytest.approx(0.5203202, abs=1e-6)


def test_two_mode_characteristic_function():
    s = ground_state_moments(TWO_MODE, U)
    assert chi(s, 0.0, 0.0) == 1.0
    assert chi(s, 1.0, 0.0) == pytest.approx(0.616952, abs=1e-6)
    m1 = frequency_moment(TWO_MODE, 1)
    minv = frequency_moment(TWO_MODE, -1)
    got = chi(s, 0.3, 0.7)
    assert got == pytest.approx(math.exp(-0.5 * (m1 * 0.09 + minv * 0.49)), rel=1e-14)


def test_summary_on_reference_solution(ohmic_ref):
    _, sol = ohmic_ref
    s = ground_state_moments(sol, U)
    assert s.var_x * s.var_p > 0.25  # uncertainty, strict for nonzero coupling
    assert s.quad_x_unc * s.quad_p_unc > 0.5
    assert s.omega_c < U.omega0
    assert s.n_bar_c > 0.0
    assert s.entropy > 0.0
    assert s.mean_energy > 0.5 * U.hbar * U.omega0
    assert s.mutual_info == 2.0 * s.entropy


def test_identities_on_reference_solution(ohmic_ref):
    # the certificate reads the solve's own defects
    _, sol = ohmic_ref
    rep = interpretation_identities(sol, U)
    assert rep.ok
    assert rep.identity_defect == sol.identity_defect and abs(rep.identity_defect) <= 1e-14
    assert rep.sum_rule_defect == abs(sol.sum_defect) <= 1e-14


def test_two_mode_meets_the_low_end_identity():
    # <<1/omega^2>> = 0.5/1.5 + 0.5/0.5 = 4/3 = 1/(omega0 margin)
    rep = interpretation_identities(TWO_MODE, U)
    assert rep.ok and abs(rep.identity_defect) <= 1e-15 and rep.sum_rule_defect <= 1e-15


def test_units_are_required_away_from_omega0_one():
    # away from omega0 = 1 both functions need the units: an omega0 = 1
    # default would break the sum rule and mis-scale chi
    units = UnitSystem(omega0=2.0)
    sol = solve(OhmicExp(amplitude=0.3, cutoff=5.0), units)
    rep = interpretation_identities(sol, units)
    assert rep.ok and rep.sum_rule_defect <= 1e-6
    chi_r = chi(ground_state_moments(sol, units), 1.0, 0.0)
    assert chi_r == pytest.approx(0.621, abs=1e-3)
    assert chi_r == pytest.approx(math.exp(-0.5 * frequency_moment(sol, 1) / units.omega0),
                                  rel=1e-12)
    with pytest.raises(TypeError):
        ground_state_moments(sol)
    with pytest.raises(TypeError):
        interpretation_identities(sol)


@pytest.mark.parametrize("observables", [ground_state_moments, interpretation_identities])
def test_units_of_another_oscillator_refused(observables):
    # a measure solved for omega0 = 1 read in units with omega0 = 2
    # would give numbers for neither oscillator
    with pytest.raises(UsageError, match="omega0"):
        observables(TWO_MODE, UnitSystem(omega0=2.0))
    observables(TWO_MODE, UnitSystem(mass=2.0, hbar=0.5))   # omega0 matches


def test_certificate_fails_on_either_end():
    # one node at sqrt(1.1) of weight sqrt(1.1): <<1/omega^2>> is
    # 1/sqrt(1.1), met by the margin sqrt(1.1), and the sum rule misses
    # by 1.1^1.5 - 1; TWO_MODE meets both until its margin is 2e-9 off
    node = one_node(1.1, 1.0)
    node.margin = math.sqrt(1.1)
    rep = interpretation_identities(node, U)
    assert not rep.ok and abs(rep.identity_defect) <= 1e-15
    assert rep.sum_rule_defect == pytest.approx(1.1**1.5 - 1.0, rel=1e-12)
    off = Measure(TWO_MODE.weights, TWO_MODE.nodes, margin=0.75 * (1.0 + 2e-9))
    rep = interpretation_identities(off, U)
    assert not rep.ok and rep.identity_defect == pytest.approx(2e-9, rel=1e-6)
    assert rep.sum_rule_defect <= 1e-15


def test_certificate_gates_the_norm_too():
    # 0.80107 at omega 0.5 and 0.19993 at omega 2 meet the sum rule, and
    # a margin that meets the low-end identity, with 1e-3 of mass too
    # much: ok is compute_pi's own gate, which the norm is part of
    b = 0.74975 / 3.75
    a = 1.001 - b
    measure = Measure((a, b), (0.5, 2.0), margin=1.0 / (a / 0.25 + b / 4.0))
    rep = interpretation_identities(measure, U)
    assert rep.sum_rule_defect <= 1e-15 and abs(rep.identity_defect) <= 1e-15
    assert not rep.ok


def test_outputs_stable_under_refinement(ohmic_ref):
    _, sol = ohmic_ref
    finer = refine_for_times(sol, 10.0)
    a = ground_state_moments(sol, U)
    b = ground_state_moments(finer, U)
    for name in ("var_x", "var_p", "omega_c", "n_bar_c", "mean_energy"):
        x, y = getattr(a, name), getattr(b, name)
        assert abs(x - y) <= 1e-6 * max(abs(x), 1e-3)


def test_occupation_clamp_and_violation():
    # product of moments a hair under 1: round-off, clamps to zero
    eps_ok = Measure((1.0,), (1.0,))
    assert ground_state_moments(eps_ok, U).n_bar_c == 0.0

    # M1 * Minv = 1 - 1e-13: inside the clamp
    assert ground_state_moments(one_node(1.0 - 1e-13, 1.0), U).n_bar_c == 0.0

    with pytest.raises(InternalConsistencyError):
        ground_state_moments(one_node(1.0 - 1e-7, 1.0), U)


def test_temperature_zero_at_zero_occupation():
    assert ground_state_moments(Measure((1.0,), (1.0,)), U).T_eff == 0.0


@given(n=st.floats(1e-6, 5.0))
def test_entropy_positive_and_monotone_structure(n):
    s = (n + 1) * math.log1p(n) - n * math.log(n)
    assert s > 0.0
    # entropy grows with occupation
    m = n * 1.5
    sm = (m + 1) * math.log1p(m) - m * math.log(m)
    assert sm > s


def test_temperature_monotone_in_occupation():
    vals = []
    for n in (0.01, 0.05, 0.2, 1.0):
        w = 2.0 * (n + 0.5) * 0.9  # keeps omega_c fixed at 0.9 given M1
        m1 = 0.9 * (2 * n + 1)
        minv = m1 / 0.81
        vals.append(ground_state_moments(one_node(m1, minv), U).T_eff)
    assert all(x < y for x, y in zip(vals, vals[1:]))


def test_summary_json_round_trip(ohmic_ref):
    _, sol = ohmic_ref
    s = ground_state_moments(sol, U)
    d = json.loads(s.to_json())
    assert d["var_x"] == s.var_x
    assert d["mutual_info"] == s.mutual_info
    assert "omega_c" in s.report_block() or "omega_c" in s.to_json()
    assert "var_x" in s.report_block()
