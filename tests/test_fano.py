"""Diagonalisation core: goldens, closed forms, invariants, export.

The solve evaluates the dispersion integral in closed form
(``spec.dispersion``).  Its references here are independent: the scalar
QUADPACK route ``_dispersion_parts`` below for the smooth families, a
segment-wise Cauchy-weight quadrature for tabulated V (whose kinks
defeat the QUADPACK route), and the Ei/E1 and logarithm formulas
written out below for the goldens.
"""

import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.integrate import quad, simpson
from scipy.special import exp1, expi

from dosc import fano, weakcoupling
from dosc.errors import ConvergenceError, UsageError
from dosc.fano import (
    _grid_bounds,
    build_grid,
    compute_pi,
    frequency_moment,
    moment,
    refine_for_times,
    solve,
)
from dosc.quadrature import cauchy_pv, integrate
from dosc.spectra import FlatBand, GaussianPeak, OhmicExp, Tabulated, UnitSystem

U = UnitSystem()
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def config_spec(name):
    doc = json.loads((CONFIGS / f"{name}.json").read_text())["spectrum"]
    return OhmicExp(amplitude=doc["amplitude"], cutoff=doc["cutoff"])

# Y at omega0 for the exponential family with amplitude 0.3, cutoff 5,
# frozen from a shrinking-window principal-value sweep cross-checked
# against the Ei/E1 closed form below (agreement to 3e-12).
Y_OHMIC_GOLDEN = 11.211807891106027733
ALPHA_SQ_OHMIC_GOLDEN = 0.40040472875850262481


def ohmic_dispersion_closed_form(amplitude, cutoff, w):
    """I(omega) for |V|^2 = amplitude^2 w exp(-w/cutoff), via Ei and E1."""
    x = w / cutoff
    return amplitude**2 * (w * (math.exp(-x) * expi(x) + math.exp(x) * exp1(x)) - 2.0 * cutoff)


def dressed(spec, omegas):
    """Y, |alpha|^2, beta/alpha and pi at the given frequencies, by the
    assembly every solution uses."""
    return fano._assemble(spec, U, np.asarray(omegas, dtype=float))


def Y_at(spec, w):
    return float(dressed(spec, [w])[0][0])


def alpha_sq_at(spec, w):
    return float(dressed(spec, [w])[1][0])


def ohmic_Y_closed_form(amplitude, cutoff, w, w0=1.0):
    i = ohmic_dispersion_closed_form(amplitude, cutoff, w)
    vsq = amplitude**2 * w * math.exp(-w / cutoff)
    return (2.0 * (w * w - w0 * w0) / w0 - i) / vsq


def flat_Y_closed_form(a, b, w, w0=1.0, vsq=None):
    # PV and regular pieces are logs; the level cancels out of Y except
    # through the leading 2(w^2-w0^2)/(w0 vsq) term.
    lead = 2.0 * (w * w - w0 * w0) / (w0 * vsq) if vsq else 0.0
    return lead + math.log((b - w) * (b + w) / ((w - a) * (w + a)))


def test_ohmic_Y_golden_at_omega0():
    spec = OhmicExp(amplitude=0.3, cutoff=5.0)
    assert abs(Y_at(spec, 1.0) - Y_OHMIC_GOLDEN) < 1e-9


def test_ohmic_Y_matches_special_function_oracle():
    spec = OhmicExp(amplitude=0.3, cutoff=5.0)
    for w in (0.3, 0.7, 1.0, 1.9, 4.2, 11.0):
        expect = ohmic_Y_closed_form(0.3, 5.0, w)
        assert abs(Y_at(spec, w) - expect) < 1e-8 * max(1.0, abs(expect))


def test_golden_consistent_with_oracle():
    assert abs(ohmic_Y_closed_form(0.3, 5.0, 1.0) - Y_OHMIC_GOLDEN) < 1e-10


def test_leading_term_vanishes_at_omega0():
    # At omega = omega0 Y reduces to -I/|V|^2 for any spectrum.
    spec = OhmicExp(amplitude=0.3, cutoff=5.0)
    i = ohmic_dispersion_closed_form(0.3, 5.0, 1.0)
    vsq = 0.09 * math.exp(-0.2)
    assert abs(Y_at(spec, 1.0) - (-i / vsq)) < 1e-9


def test_flat_band_Y_closed_form():
    # Admissible band: 0.1 * ln(2/0.1) = 0.3 < omega0.  At omega=omega0
    # the leading term drops and Y = ln((b^2-1)/(1-a^2)) exactly.
    spec = FlatBand(level=math.sqrt(0.1), lower=0.1, upper=2.0)
    y = Y_at(spec, 1.0)
    assert abs(y - math.log(3.0 / 0.99)) < 1e-9
    for w in (0.3, 0.85, 1.4):
        expect = flat_Y_closed_form(0.1, 2.0, w, vsq=0.1)
        assert abs(Y_at(spec, w) - expect) < 1e-8


def test_flat_band_alpha_sq_closed_form():
    spec = FlatBand(level=math.sqrt(0.1), lower=0.1, upper=2.0)
    y = math.log(3.0 / 0.99)
    expect = 4.0 / (0.1 * (y * y + math.pi**2))
    assert abs(alpha_sq_at(spec, 1.0) - expect) < 1e-8


def test_ohmic_alpha_sq_golden():
    spec = OhmicExp(amplitude=0.3, cutoff=5.0)
    a = alpha_sq_at(spec, 1.0)
    assert abs(a - ALPHA_SQ_OHMIC_GOLDEN) < 1e-9
    vsq = 0.09 * math.exp(-0.2)
    assert abs(a - 4.0 / (vsq * (Y_OHMIC_GOLDEN**2 + math.pi**2))) < 1e-12


def test_alpha_sq_vanishes_at_fixed_omega_as_coupling_shrinks():
    vals = [
        alpha_sq_at(OhmicExp(amplitude=amp, cutoff=5.0), 1.7)
        for amp in (0.2, 0.1, 0.05, 0.025)
    ]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    # |alpha|^2 ~ |V|^2 off resonance: quartering the amplitude-squared
    # quarters the weight.
    assert vals[-1] < 0.3 * vals[-2]


def test_beta_ratio_values():
    spec = OhmicExp(amplitude=0.3, cutoff=5.0)
    beta = dressed(spec, [1.0, 3.0, 1e-12])[2]
    assert beta[0] == 0.0
    assert beta[1] == 0.5
    assert abs(beta[2] + 1.0) < 1e-11


def test_zero_coupling_has_no_grid_solution():
    with pytest.raises(ConvergenceError):
        solve(OhmicExp(amplitude=0.0, cutoff=5.0), U)


def test_solution_invariants(ohmic_ref):
    spec, sol = ohmic_ref
    w = sol.omegas
    assert np.all(np.diff(w) > 0) and w[0] > 0
    assert np.all(sol.pi >= 0)
    assert sol.norm_defect <= 1e-6
    # pi is alpha_sq * 4 w0 w / (w0+w)^2 by construction, bit for bit
    kin = 4.0 * U.omega0 * w / (U.omega0 + w) ** 2
    assert np.array_equal(sol.pi, sol.alpha_sq * kin)
    assert np.allclose(sol.beta_ratio, (w - 1.0) / (w + 1.0), rtol=0, atol=1e-15)


def test_norm_and_sum_rule(ohmic_ref):
    _, sol = ohmic_ref
    assert abs(moment(sol, lambda w: np.ones_like(w)) - 1.0) <= 1e-6
    assert abs(frequency_moment(sol, 2) - U.omega0**2) <= 1e-6 * U.omega0**2


def test_mean_inequalities(ohmic_ref):
    _, sol = ohmic_ref
    m1 = frequency_moment(sol, 1)
    minv = frequency_moment(sol, -1)
    assert m1 < U.omega0
    assert minv > 1.0 / U.omega0
    assert m1 * minv >= 1.0


def test_moment_rejects_singular_integrand(ohmic_ref):
    _, sol = ohmic_ref
    with pytest.raises(UsageError):
        moment(sol, lambda w: np.where(w > 0.5, np.inf, 1.0))


@settings(max_examples=6, deadline=None)
@given(
    ksq=st.floats(0.02, 0.7),
    cutoff=st.floats(2.0, 8.0),
)
def test_inequalities_across_ohmic_family(ksq, cutoff):
    spec = OhmicExp(amplitude=math.sqrt(ksq / cutoff), cutoff=cutoff)
    sol = solve(spec, U, norm_tol=1e-5, sum_tol=1e-5)
    m1 = frequency_moment(sol, 1)
    minv = frequency_moment(sol, -1)
    assert m1 < U.omega0
    assert minv > 1.0 / U.omega0
    assert m1 * minv >= 1.0
    assert abs(frequency_moment(sol, 2) - 1.0) < 1e-4


@settings(max_examples=4, deadline=None)
@given(
    level=st.floats(0.1, 0.3),
    a=st.floats(0.08, 0.3),
    width=st.floats(1.2, 2.5),
)
def test_inequalities_across_flat_family(level, a, width):
    spec = FlatBand(level=level, lower=a, upper=a + width)
    sol = solve(spec, U, norm_tol=1e-5, sum_tol=1e-5)
    assert frequency_moment(sol, 1) < U.omega0
    assert frequency_moment(sol, 1) * frequency_moment(sol, -1) >= 1.0


def test_alternate_unit_system():
    units = UnitSystem(omega0=2.0)
    sol = solve(OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0), units,
                norm_tol=1e-5, sum_tol=1e-5)
    assert abs(frequency_moment(sol, 2) - 4.0) < 4e-4
    assert frequency_moment(sol, 1) < 2.0


def test_dressing_reproduces_solution_columns(ohmic_ref):
    # same N(omega) and the same assembly, node by node: bit for bit
    spec, sol = ohmic_ref
    idx = [0, sol.omegas.size // 3, sol.omegas.size - 1]
    Y, alpha_sq, beta, pi = dressed(spec, sol.omegas[idx])
    assert np.array_equal(Y, sol.Y[idx])
    assert np.array_equal(alpha_sq, sol.alpha_sq[idx])
    assert np.array_equal(beta, sol.beta_ratio[idx])
    assert np.array_equal(pi, sol.pi[idx])


def test_flat_band_singular_coefficient():
    # coefficient of delta(omega - omega') in gamma at omega = omega0:
    # Y |V| omega0 alpha / (omega + omega0)
    spec = FlatBand(level=math.sqrt(0.1), lower=0.1, upper=2.0)
    y = math.log(3.0 / 0.99)
    alpha = math.sqrt(4.0 / (0.1 * (y * y + math.pi**2)))
    expect = y * math.sqrt(0.1) * 1.0 * alpha / 2.0
    Y, alpha_sq, _, _ = dressed(spec, [1.0])
    coeff = Y[0] * math.sqrt(0.1) * 1.0 * math.sqrt(alpha_sq[0]) / (1.0 + 1.0)
    assert abs(coeff - expect) < 1e-8


def test_grid_has_no_near_duplicate_nodes():
    # a peak whose width is clamped to the room left before lo
    # (near_critical) or after hi puts a cluster node within an ulp of
    # that bound unless build_grid drops it
    for spec, side in ((config_spec("near_critical"), "lo"),
                       (FlatBand(level=0.1, lower=0.5, upper=1.02), "hi")):
        lo, hi, _ = _grid_bounds(spec)
        room = {"lo": lambda pk: pk - lo, "hi": lambda pk: hi - pk}[side]
        peaks = fano._find_peaks(spec, U, lo, hi)
        assert any(w == 0.25 * room(pk) for pk, w in peaks)
        w = build_grid(spec, U)
        assert np.all(np.diff(w) >= 1e-12 * w[1:])


@pytest.fixture(scope="module")
def even_solutions():
    sols = [solve(config_spec(name), U) for name in ("weak_line", "near_critical")]
    assert all(sol.omegas.size % 2 == 0 for sol in sols)
    return sols


def test_weights_reproduce_simpson_moments(ohmic_ref, even_solutions):
    # odd node count (ohmic_ref) and even ones, where scipy corrects the
    # last interval
    _, odd = ohmic_ref
    assert odd.omegas.size % 2 == 1
    for sol in (odd, *even_solutions):
        w = sol.omegas
        for k in (-1, 0, 1, 2, 4):
            ref = simpson(sol.pi * w**k, x=w)
            assert abs(sol.weights @ w**k - ref) <= 1e-13 * abs(ref)
            assert frequency_moment(sol, k) == sol.weights @ w**k


def test_grid_building_deterministic():
    spec = OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0)
    g1 = build_grid(spec, U)
    g2 = build_grid(spec, U)
    assert np.array_equal(g1, g2)


def test_compute_pi_refuses_zero_coupling():
    # refused by the grid it builds, before any other check
    with pytest.raises(ConvergenceError, match="identically zero") as exc:
        compute_pi(OhmicExp(amplitude=0.0, cutoff=5.0), U, max_rounds=0)
    assert exc.value.detail["guidance"] == "use the closed-form path for V = 0"


def test_refine_for_times(ohmic_ref):
    _, sol = ohmic_ref
    t_max = 25.0
    refined = refine_for_times(sol, t_max)
    # a resolved grid comes back as it is, for t_max or any shorter time
    assert refine_for_times(refined, t_max) is refined
    assert refine_for_times(refined, 0.5 * t_max) is refined
    assert refined.omegas.size > sol.omegas.size
    assert refined.norm_defect <= 2e-6


def test_refined_solution_certifies_its_own_grid(ohmic_ref):
    # both defects are moments of the solution's own weights, on the
    # refined grid as on the one compute_pi certified
    _, sol = ohmic_ref
    refined = refine_for_times(sol, 25.0)
    assert refined.omegas.size > sol.omegas.size
    for s in (sol, refined):
        assert s.norm_defect == abs(frequency_moment(s, 0) - 1.0)
        assert s.sum_defect == abs(frequency_moment(s, 2) - U.omega0**2) / U.omega0**2
        assert "sum_defect" not in s.meta
    assert refined.sum_defect <= 2e-6


def test_time_refinement_refused_before_building(flat_mid):
    # configs/flat_band.json's density resolved to t_max = 1e6 would take
    # 16 million new nodes (half a GB): the refusal counts, never builds them
    _, sol = flat_mid
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError) as exc:
            refine_for_times(sol, 1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.detail == {"t_max": 1e6, "new_nodes": 16122121,
                                "guidance": "shorten the time span"}
    assert peak < 10e6


def test_node_budget_stop_is_reported_as_such():
    # the budget runs out after one refinement round, with both defects
    # already within tolerance: the jump test is what fails, and more
    # nodes, not a larger omega_max, is the remedy
    with pytest.raises(ConvergenceError) as exc:
        solve(OhmicExp(amplitude=math.sqrt(0.1), cutoff=5.0), U, max_nodes=800)
    detail = exc.value.detail
    assert set(detail) == {"norm_defect", "sum_defect", "nodes", "rounds", "guidance"}
    assert detail["rounds"] == 1 and detail["nodes"] == 800
    assert detail["norm_defect"] <= 1e-6 and detail["sum_defect"] <= 1e-6
    assert "grid.max_nodes = 800" in detail["guidance"]
    assert "jump test" in detail["guidance"]
    assert detail["guidance"].endswith("raise grid.max_nodes")
    assert "omega_max" not in detail["guidance"]
    # a stop on the round budget keeps its own count and guidance
    with pytest.raises(ConvergenceError) as exc:
        solve(OhmicExp(amplitude=math.sqrt(0.1), cutoff=5.0), U, max_rounds=1)
    assert exc.value.detail["rounds"] == 1
    assert "omega_max" in exc.value.detail["guidance"]


def test_node_budget_stop_without_jumps_names_the_bound_state():
    # the budget runs out with no interval failing the jump test and
    # the norm defect stalled: more nodes cannot help, so the guidance
    # is the bounded support's, after the budget it spent
    spec = FlatBand(0.3366640024438383, 0.35876554587960435, 2.7718563786207255)
    with pytest.raises(ConvergenceError) as exc:
        solve(spec, U)
    detail = exc.value.detail
    assert set(detail) == {"norm_defect", "sum_defect", "nodes", "rounds", "guidance"}
    assert detail["nodes"] == 30000 and detail["rounds"] < 24
    assert detail["norm_defect"] > 1e-5
    assert "grid.max_nodes = 30000 ran out" in detail["guidance"]
    assert "0 intervals still failing the jump test" in detail["guidance"]
    assert "bound state" in detail["guidance"]
    assert "raise grid.max_nodes" not in detail["guidance"]


def test_round_budget_stop_reports_the_evaluated_grid():
    # the last round refines nothing: the detail describes the grid pi
    # was evaluated on, not one with midpoints it never saw
    spec = OhmicExp(amplitude=math.sqrt(0.1), cutoff=5.0)
    grid = build_grid(spec, U)
    with pytest.raises(ConvergenceError) as exc:
        compute_pi(spec, U, max_rounds=1)
    detail = exc.value.detail
    assert set(detail) == {"norm_defect", "sum_defect", "nodes", "rounds", "guidance"}
    assert detail["rounds"] == 1 and detail["nodes"] == grid.size
    measured = fano._solution(spec, U, grid)
    assert detail["norm_defect"] == measured.norm_defect
    assert detail["sum_defect"] == measured.sum_defect


def test_csv_round_trip(tmp_path, flat_mid):
    _, sol = flat_mid
    path = tmp_path / "sol.csv"
    sol.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "omega,Y,alpha_sq,beta_ratio,pi"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], sol.omegas)
    assert np.array_equal(data[:, 4], sol.pi)


# ---------------------------------------------------------------------------
# closed-form dispersion integrals against independent references

def _dispersion_parts(spec, omega):
    """I(omega) by scalar QUADPACK calls: the 1/(omega-w') integral minus
    the regular 1/(omega+w') one.  Inside the support the first is a
    principal value; outside it is an ordinary integral."""
    lo = spec.support_lower
    hi = spec.support_upper if math.isfinite(spec.support_upper) else math.inf
    vsq = spec.v_sq
    if lo < omega < hi:
        pv = cauchy_pv(vsq, omega, lo, hi).value
    else:
        pv = integrate(lambda x: vsq(x) / (omega - x), lo, hi).value
    reg = integrate(lambda x: vsq(x) / (omega + x), lo, hi).value
    return pv - reg


SMOOTH_SPECS = st.one_of(
    st.builds(lambda ksq, cutoff: OhmicExp(amplitude=math.sqrt(ksq / cutoff), cutoff=cutoff),
              st.floats(0.01, 0.95), st.floats(0.5, 8.0)),
    st.builds(lambda level, a, width: FlatBand(level=level, lower=a, upper=a + width),
              st.floats(0.05, 0.4), st.floats(0.05, 2.0), st.floats(0.1, 3.0)),
    st.builds(GaussianPeak, st.floats(0.05, 0.5), st.floats(1.0, 3.0), st.floats(0.01, 0.1)),
)


@given(spec=SMOOTH_SPECS, where=st.sampled_from(["grid", "below", "above"]),
       frac=st.floats(0.0, 1.0))
def test_dispersion_matches_quadpack(spec, where, frac):
    # inside the grid range (principal value) and outside the support
    # (ordinary integral); "above" is a far tail for the unbounded ohmic
    lo, hi, _ = _grid_bounds(spec)
    if where == "below" and spec.support_lower > 0:
        w = spec.support_lower * (0.01 + 0.98 * frac)
    elif where == "above":
        w = spec.omega_max * (1.01 + 2.0 * frac)
    else:
        w = lo + frac * (hi - lo)
    ref = _dispersion_parts(spec, w)
    assert abs(float(spec.dispersion(w)) - ref) <= 1e-9 * max(1.0, abs(ref))


def test_dispersion_is_elementwise():
    spec = OhmicExp(amplitude=0.3, cutoff=5.0)
    ws = np.array([0.0, 0.4, 1.0, 260.0])
    got = spec.dispersion(ws)
    assert got.shape == ws.shape
    assert all(got[i] == spec.dispersion(w) for i, w in enumerate(ws))
    assert got[0] == -2.0 * 0.3**2 * 5.0        # -2 k^2 L


def test_ohmic_dispersion_far_tail():
    # e^{x} E1(x) overflows past x ~ 709; the asymptotic branch takes over
    spec = OhmicExp(amplitude=0.3, cutoff=2.0)
    for x in (49.9, 50.0, 50.1, 300.0, 709.0, 710.0, 1e3):
        w = x * spec.cutoff
        got = float(spec.dispersion(w))
        assert math.isfinite(got)
        ref = _dispersion_parts(spec, w)
        assert abs(got - ref) <= 1e-9 * abs(ref)


def scaled_tabulated(omegas, shape, integral):
    """Piecewise-linear V through (omegas, shape) scaled so that
    int |V|^2/omega = integral."""
    unit = Tabulated(tuple(omegas), tuple(shape)).analytic_positivity_integral()
    return Tabulated(tuple(omegas), tuple(v * math.sqrt(integral / unit) for v in shape))


# six-node rise and fall with kinks at the nodes, and a twelve-node sin^2
TAB_KINKED = scaled_tabulated([4.0 * k / 5 for k in range(6)],
                              [0.0, 1.0, 0.83, 0.67, 0.5, 0.33], 0.1)
TAB_SIN2 = scaled_tabulated([3.0 * k / 11 for k in range(12)],
                            [math.sin(math.pi * k / 11) ** 2 for k in range(12)], 0.1)
TAB_OFFSET = Tabulated((0.5, 1.0, 2.0), (0.3, 0.2, 0.1))    # V jumps at both edges


def segmentwise_dispersion(spec, w):
    """I(w) by QUADPACK one segment at a time, so no kink lies inside an
    integral; the pole inside a segment goes to the Cauchy weight."""
    total = 0.0
    for a, b in zip(spec.omegas[:-1], spec.omegas[1:]):
        if a < w < b:
            total -= quad(spec.v_sq, a, b, weight="cauchy", wvar=w,
                          epsabs=1e-14, epsrel=1e-13)[0]
        else:
            total += quad(lambda x: spec.v_sq(x) / (w - x), a, b,
                          epsabs=1e-14, epsrel=1e-13)[0]
        total -= quad(lambda x: spec.v_sq(x) / (w + x), a, b,
                      epsabs=1e-14, epsrel=1e-13)[0]
    return total


@pytest.mark.parametrize("spec", [TAB_KINKED, TAB_SIN2, TAB_OFFSET])
def test_tabulated_dispersion_matches_segmentwise_reference(spec):
    nodes = np.asarray(spec.omegas)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    off_mid = nodes[:-1] + 0.13 * np.diff(nodes)
    outside = [0.5 * nodes[0], 1.5 * nodes[-1], 7.0 * nodes[-1]]
    for w in [*mids, *off_mid, *outside]:
        ref = segmentwise_dispersion(spec, w)
        assert abs(float(spec.dispersion(w)) - ref) <= 1e-9 * max(1.0, abs(ref))


@pytest.mark.parametrize("spec", [TAB_KINKED, TAB_SIN2, TAB_OFFSET])
def test_tabulated_dispersion_continuous_at_nodes(spec):
    # per segment the log terms diverge at both ends; grouped by node
    # their coefficient vanishes at an interior node
    for xj in spec.omegas[1:-1]:
        at = float(spec.dispersion(xj))
        assert math.isfinite(at)
        beside = spec.dispersion(np.array([xj - 1e-9, xj + 1e-9]))
        assert np.all(np.abs(beside - at) < 1e-6)


def test_lamb_shift_is_quarter_dispersion():
    for spec in (OhmicExp(amplitude=0.3, cutoff=5.0), FlatBand(0.2, 0.1, 2.0),
                 GaussianPeak(0.2, 1.0, 0.05), TAB_KINKED):
        for w in (0.0, 0.7, 1.0, 3.3):
            assert weakcoupling.lamb_shift(spec, U, w) == 0.25 * float(spec.dispersion(w))


def test_lamb_shift_diverges_on_a_band_edge():
    for spec in (FlatBand(0.2, 1.0, 2.0), TAB_OFFSET):
        with pytest.raises(ConvergenceError):
            weakcoupling.lamb_shift(spec, U, spec.support_lower)


@pytest.mark.parametrize("spec", [TAB_KINKED, TAB_SIN2], ids=["kinked", "sin2"])
def test_kinked_tabulated_spectra_solve(spec):
    sol = solve(spec, U)
    assert sol.norm_defect <= 1e-6
    assert abs(frequency_moment(sol, 2) - 1.0) <= 1e-6


def test_bound_state_guidance():
    # a band above omega0 leaves the dressed oscillator mode as a point
    # mass outside the support; a larger omega_max cannot reach it
    with pytest.raises(ConvergenceError) as exc:
        solve(FlatBand(0.3, 2.0, 3.0), U)
    detail = exc.value.detail
    assert set(detail) == {"norm_defect", "sum_defect", "nodes", "rounds", "guidance"}
    assert detail["norm_defect"] > 0.5
    assert "outside the coupling support" in detail["guidance"]
    assert "bound state" in detail["guidance"]
    assert "raise it" not in detail["guidance"]


# ---------------------------------------------------------------------------
# fano.brentq: a port of scipy's, equal bit for bit

def _same_float(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


_BRENT_SHAPES = (
    lambda x, r, s: s * (x - r) + (x - r) ** 3,
    lambda x, r, s: math.atan(s * (x - r)) + 1e-3 * math.sin(40.0 * x),
    lambda x, r, s: math.expm1(s * (x - r)),
    lambda x, r, s: math.tanh(s * (x - r)) ** 3,
    # a pole-like jump at the bracket edges: interpolation and bisection
    # alternate
    lambda x, r, s: math.tan(x - r) if abs(x - r) < 1.5 else math.copysign(1e3, x - r),
)


@settings(max_examples=1000)
@given(root=st.floats(-3.0, 3.0), left=st.floats(1e-9, 2.0), right=st.floats(1e-9, 2.0),
       shape=st.integers(0, len(_BRENT_SHAPES) - 1), scale=st.floats(0.1, 10.0),
       tols=st.sampled_from([(1e-14, 1e-14), (1e-12, 1e-14)]), swap=st.booleans())
def test_brentq_port_matches_scipy(root, left, right, shape, scale, tols, swap):
    # the (xtol, rtol) pairs of fano._find_peaks and dynamics.classify_damping
    def f(x):
        return _BRENT_SHAPES[shape](x, root, scale)

    a, b = root - left, root + right
    if swap:
        a, b = b, a
    xtol, rtol = tols
    try:
        ref = optimize.brentq(f, a, b, xtol=xtol, rtol=rtol)
    except (ValueError, RuntimeError) as exc:
        with pytest.raises(type(exc)):
            fano.brentq(f, a, b, xtol=xtol, rtol=rtol)
        return
    assert _same_float(fano.brentq(f, a, b, xtol=xtol, rtol=rtol), ref)


def test_brentq_port_error_paths():
    with pytest.raises(ValueError, match="different signs"):
        fano.brentq(lambda x: x * x + 1.0, -1.0, 1.0, xtol=1e-12, rtol=1e-14)
    with pytest.raises(ValueError, match="NaN"):
        fano.brentq(lambda x: math.nan if x > 0 else -1.0, -1.0, 1.0,
                    xtol=1e-12, rtol=1e-14)

    def step(x):   # equal |f| on both sides: every step bisects
        return math.copysign(1.0, x - 1e-200)

    # about 2000 halvings would reach the tolerance; 100 are allowed
    with pytest.raises(RuntimeError):
        optimize.brentq(step, -1e300, 1e300, xtol=1e-300, rtol=1e-14)
    with pytest.raises(RuntimeError, match="100 iterations"):
        fano.brentq(step, -1e300, 1e300, xtol=1e-300, rtol=1e-14)
