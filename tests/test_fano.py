"""Diagonalisation core: goldens, closed forms, invariants, export.

The solve evaluates the dispersion integral in closed form
(``spec.dispersion``).  Its references here are independent: the scalar
QUADPACK route ``_dispersion_parts`` below for the smooth families, a
segment-wise Cauchy-weight quadrature for tabulated V (whose kinks
defeat the QUADPACK route), and the Ei/E1 and logarithm formulas
written out below for the goldens.
"""

import dataclasses
import json
import math
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize
from scipy.integrate import quad
from scipy.special import exp1, expi, sici

from dosc import dynamics, fano, weakcoupling
from dosc.errors import ConvergenceError, PositivityError, UsageError
from dosc.fano import (
    build_grid,
    compute_pi,
    frequency_moment,
    moment,
    refine_for_times,
    solve,
)
from dosc.quadrature import cauchy_pv, integrate
from dosc.spectra import (
    FlatBand,
    GaussianPeak,
    OhmicExp,
    Tabulated,
    UnitSystem,
    require_admissible,
)

U = UnitSystem()
# what every refusal of compute_pi reports
REFUSAL_KEYS = {"norm_defect", "sum_defect", "identity_defect", "rule_difference", "nodes",
                "rounds", "guidance", "bound_states"}
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def config_spec(name):
    doc = json.loads((CONFIGS / f"{name}.json").read_text())["spectrum"]
    return OhmicExp(amplitude=doc["amplitude"], cutoff=doc["cutoff"])


def rule_bounds(spec):
    """The ends of build_grid's breakpoints inside the support: its
    lower end (or 0) and its upper end (or omega_max)."""
    return max(spec.support_lower, 0.0), min(spec.omega_max, spec.support_upper)

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
    assert abs(sol.norm_defect) <= 1e-6
    # pi is alpha_sq * 4 w0 w / (w0+w)^2 by construction, bit for bit
    _, alpha_sq, beta, pi = dressed(spec, w)
    kin = 4.0 * U.omega0 * w / (U.omega0 + w) ** 2
    assert np.array_equal(sol.pi, pi)
    assert np.array_equal(pi, alpha_sq * kin)
    assert np.allclose(beta, (w - 1.0) / (w + 1.0), rtol=0, atol=1e-15)


@pytest.mark.parametrize("name", ["ohmic_reference", "near_critical", "flat_band", "weak_line"])
def test_bundled_configs_certified_to_rounding(name):
    # Simpson bisection stopped as soon as both defects were below 1e-6
    from dosc.cli import load_config

    cfg = load_config(str(CONFIGS / f"{name}.json"), [])
    sol = solve(cfg.spectrum, cfg.units)
    assert max(abs(sol.norm_defect), abs(sol.sum_defect), sol.meta["rule_difference"]) <= 1e-12


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


def test_moment_skips_a_non_finite_integrand_at_zero_weight():
    # an uncoupled bath mode is a normal mode of weight exactly 0: an
    # integrand infinite there sums over the other modes, one infinite
    # at a weighted mode is refused
    from dosc import oracle

    decomp = oracle.normal_modes(oracle.FiniteBathModel(1.0, [0.5, 1.5], [0.3, 0.0]))
    w, wt = decomp.nodes, decomp.weights
    idle = wt == 0
    assert idle.sum() == 1 and w[idle][0] == 1.5
    assert moment(decomp, lambda x: np.where(x == 1.5, np.inf, x)) == float(
        wt[~idle] @ w[~idle])
    with pytest.raises(UsageError, match="not finite"):
        moment(decomp, lambda x: np.where(x == w[0], np.inf, x))


def test_bin_masses_sum_to_the_mass_inside_the_edges(ohmic_ref, flat_mid):
    # edges past a bounded support hold all of pi's mass, and edges that
    # end on a breakpoint the mass of the solution's panels below it
    _, flat = flat_mid
    edges = np.linspace(0.0, 2.5, 161)
    masses = fano.bin_masses(flat.split(edges), edges)
    assert abs(masses.sum() - (1.0 + flat.norm_defect)) <= 1e-13
    assert np.all(masses[edges[1:] <= flat.breaks[0]] == 0.0)
    _, sol = ohmic_ref
    k = np.searchsorted(sol.breaks, 20.0)
    edges = np.linspace(0.0, sol.breaks[k], 161)
    masses = fano.bin_masses(sol.split(edges), edges)
    assert masses.size == 160 and masses.min() > 0.0
    assert abs(masses.sum() - math.fsum(sol.weights[:k * fano.PANEL_POINTS])) <= 1e-13


def test_split_at_no_points_is_the_solution(ohmic_ref, flat_mid):
    # the same rule, and pi assembled afresh on it to the last bit
    for _, sol in (ohmic_ref, flat_mid):
        same = sol.split(np.array([]))
        for name in ("breaks", "nodes", "gauss", "weights", "pi"):
            assert np.array_equal(getattr(same, name), getattr(sol, name)), name
        assert same.meta == sol.meta and same.norm_defect == sol.norm_defect


def test_split_point_within_distinct_of_a_breakpoint_adds_no_panel(ohmic_ref):
    # the point stands in for the breakpoint, or the breakpoint for it
    _, sol = ohmic_ref
    b = sol.breaks[40]
    above, below = b * (1.0 + 0.5 * fano.DISTINCT), b * (1.0 - 0.5 * fano.DISTINCT)
    assert np.array_equal(sol.split([above]).breaks, sol.breaks)
    assert sol.split([below]).breaks.size == sol.breaks.size
    mid = 0.5 * (b + sol.breaks[41])
    split = sol.split([mid, above])
    assert np.array_equal(split.breaks, np.insert(sol.breaks, 41, mid))
    assert split.meta == {**sol.meta, "nodes": sol.nodes.size + fano.PANEL_POINTS}


def test_bin_inside_one_panel_matches_the_check_rule(ohmic_ref):
    # a bin inside one panel of the solution is integrated on its own,
    # as exactly as the CHECK_POINTS rule integrates it afresh
    spec, sol = ohmic_ref
    p = int(np.argmax(np.diff(sol.breaks) * (sol.breaks[1:] < 10.0)))
    a, b = sol.breaks[p:p + 2]
    edges = np.array([0.0, a + 0.3 * (b - a), a + 0.55 * (b - a), 2.0 * b])
    nodes, gauss = fano.panel_rule(edges[1:3], fano.CHECK_POINTS)
    check = math.fsum(gauss * fano._assemble(spec, U, nodes)[3])
    masses = fano.bin_masses(sol.split(edges), edges)
    assert check > 1e-6
    assert abs(masses[1] - check) <= 1e-14 * check


@settings(max_examples=6, deadline=None)
@given(
    ksq=st.floats(0.02, 0.7),
    cutoff=st.floats(2.0, 8.0),
)
def test_inequalities_across_ohmic_family(ksq, cutoff):
    spec = OhmicExp(amplitude=math.sqrt(ksq / cutoff), cutoff=cutoff)
    sol = solve(spec, U)
    m1 = frequency_moment(sol, 1)
    minv = frequency_moment(sol, -1)
    assert m1 < U.omega0
    assert minv > 1.0 / U.omega0
    assert m1 * minv >= 1.0
    assert abs(sol.sum_defect) <= fano.SUM_TOL


@settings(max_examples=4, deadline=None)
@given(
    level=st.floats(0.1, 0.3),
    a=st.floats(0.08, 0.3),
    width=st.floats(1.2, 2.5),
)
def test_inequalities_across_flat_family(level, a, width):
    spec = FlatBand(level=level, lower=a, upper=a + width)
    sol = solve(spec, U)
    assert frequency_moment(sol, 1) < U.omega0
    assert frequency_moment(sol, 1) * frequency_moment(sol, -1) >= 1.0
    assert abs(sol.sum_defect) <= fano.SUM_TOL


def test_alternate_unit_system():
    units = UnitSystem(omega0=2.0)
    sol = solve(OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0), units)
    assert sol.sum_defect == frequency_moment(sol, 2) / 4.0 - 1.0
    assert abs(sol.sum_defect) <= fano.SUM_TOL
    assert frequency_moment(sol, 1) < 2.0


def test_dressing_reproduces_solution_columns(ohmic_ref, tmp_path, monkeypatch):
    # pi.csv's columns, read back, are the same assembly on the same
    # nodes: bit for bit, and pi is alpha_sq * 4 w0 w / (w0+w)^2.  They
    # are the ones the solve assembled: writing evaluates no N
    spec, sol = ohmic_ref
    with monkeypatch.context() as m:
        m.setattr(fano, "_n_values", None)
        sol.to_csv(tmp_path / "pi.csv")
    w, *columns = np.loadtxt(tmp_path / "pi.csv", delimiter=",", skiprows=1).T
    assert np.array_equal(w, sol.omegas)
    for got, want in zip(columns, dressed(spec, sol.omegas)):
        assert np.array_equal(got, want, equal_nan=True)
    _, alpha_sq, _, pi = columns
    assert np.array_equal(pi, sol.pi)
    assert np.array_equal(pi, alpha_sq * (4.0 * U.omega0 * w / (U.omega0 + w) ** 2))


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
    # the edge ladders reach 1e-16 of the span, below the spacing of
    # floats at a sharp edge away from 0: without the distinct rule
    # their panels' Gauss nodes collide.  Both ends stay breakpoints
    for spec in (config_spec("near_critical"), FlatBand(level=0.1, lower=0.5, upper=1.02),
                 TAB_OFFSET):
        breaks = build_grid(spec, U)
        lo, top = rule_bounds(spec)
        assert breaks[0] == lo and top in breaks
        assert np.all(np.diff(breaks) > fano.DISTINCT * breaks[1:])
        for n in (fano.PANEL_POINTS, fano.CHECK_POINTS):
            nodes = fano.panel_rule(breaks, n)[0]
            assert np.all(np.diff(nodes) > 0) and nodes[0] > 0


def golub_welsch(n):
    """The n-point Gauss-Legendre rule on [-1, 1] from the
    eigen-decomposition of its Jacobi matrix (Golub & Welsch, Math. Comp.
    23 (1969) 221), symmetrised: the generator of fano's literal tables."""
    k = np.arange(1.0, n)
    off = k / np.sqrt(4.0 * k * k - 1.0)
    x, v = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
    return 0.5 * (x - x[::-1]), v[0] ** 2 + v[0, ::-1] ** 2


@pytest.mark.parametrize("n", [fano.PANEL_POINTS, fano.CHECK_POINTS])
def test_gauss_legendre_tables_are_golub_welsch(n):
    # the literal positive halves, and the rules built from them, are
    # the generator's numbers to the last bit
    x, w = golub_welsch(n)
    half_x, half_w = fano._GAUSS_LEGENDRE[n]
    assert np.array(half_x).tobytes() == x[n // 2:].tobytes()
    assert np.array(half_w).tobytes() == w[n // 2:].tobytes()
    got_x, got_w = fano._gauss_legendre(n)
    assert got_x.tobytes() == x.tobytes() and got_w.tobytes() == w.tobytes()


def test_weights_are_gauss_weights_times_pi(ohmic_ref, flat_mid):
    # each panel's 16 nodes and weights are the Gauss-Legendre rule's
    # (numpy's leggauss, the reference) mapped onto it; pi is evaluated
    # once, at those nodes
    x, g = np.polynomial.legendre.leggauss(fano.PANEL_POINTS)
    for _, sol in (ohmic_ref, flat_mid):
        a, b = sol.breaks[:-1, None], sol.breaks[1:, None]
        nodes = (0.5 * (a + b) + 0.5 * (b - a) * x).ravel()
        gauss = (0.5 * (b - a) * g).ravel()
        assert np.all(np.abs(sol.nodes - nodes) <= 4e-16 * np.repeat(b, fano.PANEL_POINTS))
        # Golub-Welsch weights come from eigenvectors, good to about 1e-14
        assert np.allclose(sol.weights, gauss * sol.pi, rtol=3e-14, atol=0)
        assert np.array_equal(sol.pi, dressed(sol.spec, sol.nodes)[3])
        for k in (-1, 0, 1, 2, 4):
            assert frequency_moment(sol, k) == sol.weights @ sol.nodes**k


def test_grid_building_deterministic():
    spec = OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0)
    g1 = build_grid(spec, U)
    g2 = build_grid(spec, U)
    assert np.array_equal(g1, g2)


def test_compute_pi_refuses_zero_coupling():
    # refused before any other check, as the bare mode: one bound state
    # at omega0 of weight 1, on no panel
    with pytest.raises(ConvergenceError, match="identically zero") as exc:
        compute_pi(OhmicExp(amplitude=0.0, cutoff=5.0), UnitSystem(omega0=2.0))
    assert exc.value.detail == {"nodes": 0, "rounds": 0, "bound_states": [[2.0, 1.0]],
                                "guidance": "use the closed-form path for V = 0"}


def test_refine_for_times(ohmic_ref):
    _, sol = ohmic_ref
    t_max = 25.0
    refined = refine_for_times(sol, t_max)
    # a resolved grid comes back as it is, for t_max or any shorter time
    assert refine_for_times(refined, t_max) is refined
    assert refine_for_times(refined, 0.5 * t_max) is refined
    assert refined.omegas.size > sol.omegas.size
    assert abs(refined.norm_defect) <= 2e-6


def test_refinement_assembles_one_solution(ohmic_ref, monkeypatch):
    # one split, one SpectralSolution: its Gauss weights and defects
    # are computed once, with the provenance it carries
    _, sol = ohmic_ref
    built = []
    post_init = fano.SpectralSolution.__post_init__

    def counted(self):
        built.append(self)
        post_init(self)

    monkeypatch.setattr(fano.SpectralSolution, "__post_init__", counted)
    refined = refine_for_times(sol, 25.0)
    assert built == [refined]
    assert refined.meta == {**sol.meta, "refined_for_t_max": 25.0, "nodes": refined.nodes.size}


def test_refined_solution_certifies_its_own_grid(ohmic_ref):
    # both signed defects are moments of the solution's own weights, on
    # the refined grid as on the one compute_pi certified
    _, sol = ohmic_ref
    refined = refine_for_times(sol, 25.0)
    assert refined.omegas.size > sol.omegas.size
    for s in (sol, refined):
        assert s.norm_defect == frequency_moment(s, 0) - 1.0
        assert s.sum_defect == frequency_moment(s, 2) / U.omega0**2 - 1.0
        assert "sum_defect" not in s.meta
    assert abs(refined.sum_defect) <= 2e-6


def test_time_refinement_refused_before_building(flat_mid):
    # configs/flat_band.json's density resolved to t_max = 1e6 would take
    # 1.9 million new nodes: the refusal counts, never builds them
    _, sol = flat_mid
    tracemalloc.start()
    try:
        with pytest.raises(ConvergenceError) as exc:
            refine_for_times(sol, 1e6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exc.value.detail == {"t_max": 1e6, "new_nodes": 1899408,
                                "guidance": "shorten the time span"}
    assert peak < 10e6


@pytest.mark.parametrize("fixture,alias_mass_tol", [("flat_mid", 1e-6), ("ohmic_ref", 0.0)])
def test_time_refinement_refusal_at_the_largest_time(fixture, alias_mass_tol, request,
                                                     monkeypatch):
    # h / h_max is near 1e306 on the flat band's panels, and overflows
    # on the ohmic tail's once no panel is exempt: either way the
    # count is a finite integer and no warning is raised
    _, sol = request.getfixturevalue(fixture)
    monkeypatch.setattr(fano, "ALIAS_MASS_TOL", alias_mass_tol)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConvergenceError, match="budget exceeded") as exc:
            refine_for_times(sol, 1e308)
    assert exc.value.detail["new_nodes"] > fano.MAX_NEW_NODES
    json.dumps(exc.value.detail, allow_nan=False)


def test_sub_edge_bound_state_named_at_once():
    # the panels resolve pi, and the norm defect is the mass of a bound
    # state just below the band's lower edge: refused at once, naming it
    spec = FlatBand(0.3366640024438383, 0.35876554587960435, 2.7718563786207255)
    with pytest.raises(ConvergenceError, match="resolved pi, but its defects miss") as exc:
        solve(spec, U)
    detail = exc.value.detail
    assert set(detail) == REFUSAL_KEYS
    assert detail["rounds"] == 0 and detail["nodes"] == 16 * (build_grid(spec, U).size - 1)
    assert detail["rule_difference"] <= 1e-14
    (root, weight), = detail["bound_states"]
    assert abs(root - 0.35876333) <= 1e-7 and abs(weight - 2.804e-5) <= 1e-8
    assert abs(detail["norm_defect"] - weight) <= 1e-10
    assert "at omega = 0.35876333 (weight 2.80416e-05)" in detail["guidance"]


@pytest.mark.filterwarnings("error")
def test_peak_between_adjacent_floats_refused_as_a_bound_state():
    # a resonance at 0.9988 where |V|^2 is 8e-15, in effect a point mass:
    # no panel is narrow enough to hold its line, so the 16- and 24-node
    # rules disagree there, with every node distinct and finite defects
    spec = GaussianPeak(amplitude=0.10006535714542651, center=2.376682573729228,
                        width=0.18459909496931115, omega_max=3.853475333483717)
    with pytest.raises(ConvergenceError, match="the panel rule cannot resolve pi") as exc:
        compute_pi(spec, U)
    detail = exc.value.detail
    assert set(detail) == REFUSAL_KEYS
    assert math.isfinite(detail["norm_defect"]) and math.isfinite(detail["sum_defect"])
    assert detail["rule_difference"] > fano.NORM_TOL
    assert detail["nodes"] == 16 * (build_grid(spec, U).size - 1)
    assert "16- and 24-node sums differ" in detail["guidance"]
    assert "at omega = 0.998798" in detail["guidance"]
    assert "bound state" in detail["guidance"]


def test_resolved_grid_short_of_mass_refused_at_once():
    # a band above omega0 leaves 99% of pi's mass in a bound state
    # outside the support: the two rules agree, so pi is resolved, and
    # the refusal reports the defects of the rule it evaluated
    spec = FlatBand(0.3, 2.0, 3.0)
    with pytest.raises(ConvergenceError) as exc:
        compute_pi(spec, U)
    assert "resolved pi, but its defects miss tolerance" in str(exc.value)
    detail = exc.value.detail
    nodes, gauss = fano.panel_rule(build_grid(spec, U))
    weights = gauss * fano._assemble(spec, U, nodes)[3]
    assert detail["rounds"] == 0 and detail["nodes"] == nodes.size
    assert detail["norm_defect"] == abs(float(weights @ nodes**0) - 1.0) > 0.5
    assert detail["sum_defect"] == abs(float(weights @ nodes**2) / U.omega0**2 - 1.0)
    assert detail["rule_difference"] <= 1e-14
    assert "bound state" in detail["guidance"]


def test_csv_round_trip(tmp_path, flat_mid):
    # a sharp-edged band: the edge ladders reach below the spacing of
    # floats at 0.1 and 2.0, and the rows stay strictly increasing
    _, sol = flat_mid
    path = tmp_path / "sol.csv"
    sol.to_csv(path)
    header = path.read_text().splitlines()[0]
    assert header == "omega,Y,alpha_sq,beta_ratio,pi"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 0], sol.omegas)
    assert np.all(np.diff(data[:, 0]) > 0)
    assert np.array_equal(data[:, 4], sol.pi)


# ---------------------------------------------------------------------------
# models that Simpson bisection refused or got wrong

def ohmic_at_margin(cutoff, margin):
    """The exponential family whose stability integral is omega0 - margin."""
    return OhmicExp(amplitude=math.sqrt((U.omega0 - margin) / cutoff), cutoff=cutoff)


def inverse_moment_on_the_imaginary_axis(spec):
    """<<1/omega>> of the exponential family by a route that shares no
    code with the panel rule: (2/pi) int_0^inf R(xi) dxi, where
    R(xi) = <<1/(omega^2 + xi^2)>> = 1/(omega0^2 + xi^2 - Delta(xi)) and
    Delta(xi) = omega0 int V^2(w) w/(w^2 + xi^2) dw (Grabert, Schramm &
    Ingold, Phys. Rep. 168, 115 (1988)).  Written without cancellation,
    omega0^2 - Delta(xi) = omega0 m + omega0 A^2 xi f(xi/L) for
    V^2 = A^2 w e^{-w/L} and margin m, with A&S 5.2.12's
    f(z) = int_0^inf e^{-zu}/(1 + u^2) du = Ci(z) sin z - si(z) cos z.
    R falls from 1/(omega0 m) on the scale of m, so QUADPACK takes
    [0, m] and then [m 4^k, m 4^(k+1)]; past m 4^30, R = 1/xi^2."""
    w0, a2, cutoff = U.omega0, spec.amplitude**2, spec.cutoff
    m = w0 - a2 * cutoff

    def R(xi):
        si, ci = sici(xi / cutoff)
        f = ci * math.sin(xi / cutoff) - (si - 0.5 * math.pi) * math.cos(xi / cutoff)
        return 1.0 / (w0 * m + xi * xi + w0 * a2 * xi * f)

    edges = m * 4.0 ** np.arange(31)
    total = 1.0 / edges[-1]
    for a, b in zip([0.0, *edges[:-1]], edges):
        total += quad(R, a, b, epsabs=0.0, epsrel=2e-14, limit=200)[0]
    return 2.0 * total / math.pi


@pytest.mark.parametrize("spec", [config_spec("near_critical"), ohmic_at_margin(0.5, 1e-4)],
                         ids=["near_critical", "cutoff_0.5_margin_1e-4"])
def test_low_end_matches_the_imaginary_axis(spec):
    # Simpson bisection read near_critical 1.03e-4 low and the other
    # model 3.2e-3 low (2.9822869); both pile up mass near omega = 0,
    # which only the rule's graded low end resolves
    got = frequency_moment(solve(spec, U), -1)
    assert abs(got / inverse_moment_on_the_imaginary_axis(spec) - 1.0) <= 1e-12


@pytest.mark.parametrize("cutoff,margin", [(0.5, 1e-4), (5.0, 1e-4), (5.0, 1e-6)])
def test_ohmic_models_near_the_bound_pass(cutoff, margin):
    # Simpson bisection refused cutoff 5 after 30,000 nodes, and passed
    # cutoff 0.5 with the identity <<1/omega^2>> = 1/(omega0 margin)
    # 19% off; it holds here to 1e-10
    spec = ohmic_at_margin(cutoff, margin)
    sol = solve(spec, U)
    identity = frequency_moment(sol, -2) * U.omega0 * require_admissible(spec, U) - 1.0
    assert abs(identity) <= 1e-10
    assert sol.meta["rule_difference"] <= 1e-10
    if cutoff == 0.5:
        assert frequency_moment(sol, -1) == pytest.approx(2.9918224, abs=5e-8)


def test_offset_table_keeps_its_sub_edge_state_as_an_atom():
    # V jumps at both ends of the table, and a state just below its
    # lower edge holds 7.4e-7 of the mass, below the norm's gate (Simpson
    # bisection refused it after 30,000 nodes at norm defect 1.04e-6).
    # The panels alone miss the low-end identity by the state's 2.8e-6
    # share of <<1/omega^2>>, so the solve searched for it and keeps it
    # as the last atom of its measure, where every defect closes
    sol = solve(TAB_OFFSET, U)
    (root, weight), = sol.bound_states
    assert f"{root:.8g}" == "0.49999997" and 7.38e-7 < weight < 7.39e-7
    assert sol.nodes[-1] == root and sol.weights[-1] == weight
    assert max(abs(sol.norm_defect), abs(sol.sum_defect), abs(sol.identity_defect)) <= 1e-11
    panels = dataclasses.replace(sol, bound_states=[])
    assert abs(panels.norm_defect + weight) <= 1e-10
    assert abs(panels.identity_defect + weight * U.omega0 * sol.margin / root**2) <= 1e-11
    assert -2.8e-6 < panels.identity_defect < -2.7e-6


def test_an_atom_counts_in_the_measure_not_in_the_panels(flat_mid, tmp_path):
    # a synthetic atom at pi's peak: every moment, bin and kernel of the
    # measure counts it, the kernels exactly at t = 1000 on both routes,
    # while the panel part and its readers (the rule difference, the
    # time split, the weak fit's window and residual, pi.csv) do not
    spec, sol = flat_mid
    w, p = float(sol.omegas[np.argmax(sol.pi)]), 5e-7   # light enough for |k_cos| <= 1
    atom = dataclasses.replace(sol, bound_states=[[w, p]])
    assert np.array_equal(atom.nodes, np.append(sol.nodes, w))
    assert np.array_equal(atom.weights, np.append(sol.weights, p))
    for k in (-2, -1, 0, 1, 2):
        assert abs(frequency_moment(atom, k) - frequency_moment(sol, k) - p * w**k) <= 1e-15
    edges = np.linspace(0.0, 2.5, 11)
    at = np.searchsorted(edges, w, side="right") - 1
    for with_atom, without in ((atom, sol), (atom.split(edges), sol.split(edges))):
        extra = fano.bin_masses(with_atom, edges) - fano.bin_masses(without, edges)
        assert abs(extra[at] - p) <= 1e-15 and not np.any(np.delete(extra, at))
    for ts in (np.array([0.0, 500.0, 1000.0]), np.linspace(0.0, 1000.0, 101)):
        got, ref = dynamics.kernels(atom, ts), dynamics.kernels(sol, ts)
        assert np.array_equal(got.source.omegas, ref.source.omegas)
        cos, sin = p * np.cos(w * ts), p * np.sin(w * ts)
        assert np.max(np.abs(got.k_cos - ref.k_cos - cos)) <= 1e-15
        assert np.max(np.abs(got.k_sin_over - ref.k_sin_over - sin / w)) <= 1e-15
        assert np.max(np.abs(got.k_sin_times - ref.k_sin_times - w * sin)) <= 1e-15
    assert fano._rule_difference(spec, U, atom.breaks, atom.pi)[0] == sol.meta["rule_difference"]
    fit, ref = weakcoupling.lorentzian_fit(atom), weakcoupling.lorentzian_fit(sol)
    assert fit.window_lo < w < fit.window_hi
    assert fit.to_json() == ref.to_json()
    assert np.array_equal(fit.overlay_pi, ref.overlay_pi)
    atom.to_csv(tmp_path / "atom.csv")
    sol.to_csv(tmp_path / "sol.csv")
    assert (tmp_path / "atom.csv").read_bytes() == (tmp_path / "sol.csv").read_bytes()


@pytest.mark.parametrize("cutoff", [0.5, 5.0])
@pytest.mark.parametrize("margin", [1e-4, 1e-6, 1e-8, 1e-10])
def test_low_end_identity_near_the_bound(cutoff, margin):
    # the margin's rounding grows as eps/margin, and so does the gate
    # below 2.2e-7; the defects stay at most 8.7e-10 (cutoff 0.5,
    # margin 1e-10) with no state to count
    sol = solve(ohmic_at_margin(cutoff, margin), U)
    assert sol.bound_states == []
    assert abs(sol.identity_defect) <= min(1e-9, fano.identity_tolerance(sol))


def _drop_below_1e_6(w, pi):
    """pi without its panels below the first breakpoint past 1e-6 omega0."""
    return np.where(w < 1.4901161193847656e-06, 0.0, pi)


def _raise_below_half(w, pi):
    """pi 1 + 1e-6 times itself below omega0/2."""
    return np.where(w < 0.5, (1.0 + 1e-6) * pi, pi)


@pytest.mark.parametrize("damage", [_drop_below_1e_6, _raise_below_half],
                         ids=["drop_lowest_panels", "raise_below_half"])
def test_damaged_low_end_refused(monkeypatch, damage):
    # the norm and the omega^2 sum rule weight the high end, and both
    # pass a pi damaged at its low end, which sets var_x; the low-end
    # identity does not, and no bound state accounts for the miss
    assemble = fano._assemble

    def damaged(spec, units, nodes):
        *columns, pi = assemble(spec, units, nodes)
        return (*columns, damage(nodes, pi))

    monkeypatch.setattr(fano, "_assemble", damaged)
    with pytest.raises(ConvergenceError, match="resolved pi, but its defects miss") as exc:
        compute_pi(config_spec("ohmic_reference"), U)
    detail = exc.value.detail
    assert set(detail) == REFUSAL_KEYS and detail["bound_states"] == []
    assert detail["norm_defect"] <= fano.NORM_TOL and detail["sum_defect"] <= fano.SUM_TOL
    assert detail["identity_defect"] > 5e-8
    assert detail["guidance"].startswith(
        f"<<1/omega^2>> omega0 margin misses 1 by {detail['identity_defect']:.3g}")


@pytest.mark.parametrize("level,lower,upper", [
    (0.22092049106263656, 0.496378130960079, 1.4809261822068527),
    (0.22094896683209336, 0.4987513733863785, 1.5082269950384686),
], ids=["seed_1", "seed_99"])
def test_flat_band_defects_are_its_sub_edge_state(level, lower, upper):
    # the benchmark's dyn_flat_narrow at seeds 1 and 99: the 16- and
    # 24-node rules agree on <<1/omega^2>> to 1e-14, and the state
    # 1e-13 below the lower edge accounts for both defects, -3.1e-12
    # and -3.6e-12 of the norm, -1.2e-11 and -1.4e-11 of the identity,
    # below the gate, so the solve did not search for it
    spec = FlatBand(level, lower, upper)
    sol = solve(spec, U)
    nodes, gauss = fano.panel_rule(sol.breaks, fano.CHECK_POINTS)
    check = gauss * fano._assemble(spec, U, nodes)[3] @ nodes**-2.0
    assert abs(check / frequency_moment(sol, -2) - 1.0) <= 1e-14
    assert sol.bound_states == [] and -1.5e-11 < sol.identity_defect < -1e-11
    (root, weight), = fano._bound_states(spec, U, sol.breaks)
    assert lower - 1e-12 < root < lower
    assert abs(sol.norm_defect + weight) <= 2e-14
    assert abs(sol.identity_defect + weight * U.omega0 * sol.margin / root**2) <= 1e-13


def test_narrow_line_reached_by_its_ladder():
    # a line of half-width 2.7e-8 at 0.99844: its Lorentzian wings beyond
    # 256 half-widths hold 0.25% of the mass, so the ladder of
    # breakpoints around it runs on to both ends of the support
    spec = GaussianPeak(0.1, 1.5, 0.1)
    (pk, w), = fano._find_peaks(spec, U, fano._support_scan(*rule_bounds(spec)))
    assert abs(pk - 0.99844) <= 1e-5 and 2.6e-8 < w < 2.8e-8
    sol = solve(spec, U)
    assert abs(sol.norm_defect) <= 1e-9 and abs(sol.sum_defect) <= 1e-9
    far = sol.breaks[sol.breaks > pk + 256 * w]
    assert far.size > 20 and np.any(np.abs(far - (pk + w * 2.0**20)) <= 1e-15)


@pytest.mark.parametrize("omega_max", [0.001, 0.75])
def test_resonance_above_omega_max_found_in_the_tail(omega_max):
    # the resonance at 0.7576 lies in the tail panels, 757 and 1.01
    # times omega_max: the scan, continued over them, seeds its ladder,
    # and the panels double on past 1e4 times it, so the solve gives the
    # moments of the default omega_max (refused "cannot resolve pi" when
    # only the support below omega_max was scanned)
    spec = OhmicExp(amplitude=0.3, cutoff=5.0, omega_max=omega_max)
    (pk, _), = fano._find_peaks(spec, U, fano._support_scan(0.0, 100.0))
    assert omega_max < pk < 0.76
    sol, ref = solve(spec, U), solve(OhmicExp(amplitude=0.3, cutoff=5.0), U)
    assert abs(sol.norm_defect) <= 1e-14 and abs(sol.sum_defect) <= 1e-14
    assert build_grid(spec, U)[-1] >= 2.0 ** fano.TAIL_DOUBLINGS * pk
    for k in (-1, 1):
        assert frequency_moment(sol, k) == pytest.approx(frequency_moment(ref, k), rel=1e-14)


@pytest.mark.parametrize("omega_max", [0.76, 0.8])
def test_resonance_just_below_omega_max_keeps_its_wing(omega_max):
    # the line at 0.7576 lies below omega_max and its Lorentzian wing
    # above, in the first tail panel [omega_max, 2 omega_max]: the rungs
    # of its ladder finer than that panel stay, so the two rules and both
    # defects agree to rounding (the doubling tail panels alone left a
    # rule difference of 4.3e-7 at 0.76 and 1.2e-8 at 0.8)
    spec = OhmicExp(amplitude=0.3, cutoff=5.0, omega_max=omega_max)
    (pk, _), = fano._find_peaks(spec, U, fano._support_scan(0.0, omega_max))
    assert 0.75 < pk < omega_max
    breaks = build_grid(spec, U)
    wing = breaks[(breaks > omega_max) & (breaks < 2.0 * omega_max)]
    assert wing.size and np.all(wing - pk < omega_max)
    sol = solve(spec, U)
    assert sol.meta["rule_difference"] <= 1e-14
    assert abs(sol.norm_defect) <= 1e-14 and abs(sol.sum_defect) <= 1e-14


def test_refusals_come_before_the_grid(monkeypatch):
    # zero coupling first, then an over-bound model of each family,
    # without building the breakpoints
    def no_grid(spec, units):
        raise AssertionError("build_grid called")

    monkeypatch.setattr(fano, "build_grid", no_grid)
    with pytest.raises(ConvergenceError, match="identically zero"):
        compute_pi(Tabulated((1.0, 2.0), (0.0, 0.0)), U)
    for spec in (OhmicExp(amplitude=math.sqrt(1.2 / 5.0), cutoff=5.0),
                 FlatBand(level=math.sqrt(1.2 / math.log(20.0)), lower=0.1, upper=2.0),
                 GaussianPeak(amplitude=3.0, center=1.5, width=0.1),
                 Tabulated((0.5, 1.0, 2.0), (1.0, 1.0, 1.0))):
        with pytest.raises(PositivityError):
            compute_pi(spec, U)


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
    lo, hi = rule_bounds(spec)
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


@pytest.mark.parametrize("spec", [FlatBand(0.3, 0.1, 2.0), TAB_OFFSET, FlatBand(0.3, 0.08, 2.58)],
                         ids=["flat_strong", "table_offset", "wide_band"])
def test_sub_edge_state_closes_every_gate(spec):
    # each keeps one state just below its lower edge (2.5e-8, 7.4e-7 and
    # 3.8e-8 of the mass): with it the norm, the sum rule and the
    # low-end identity hold to rounding, and k_cos(0), the measure's
    # <<1>>, reads 1 (without it 2.5e-8, 7.4e-7 and 3.8e-8 short)
    sol = solve(spec, U)
    (root, _), = sol.bound_states
    assert spec.support_lower - 1e-7 < root < spec.support_lower
    assert max(abs(sol.norm_defect), abs(sol.sum_defect), abs(sol.identity_defect)) <= 1e-11
    k_cos0 = dynamics.kernels(sol, [0.0]).k_cos[0]
    assert abs(k_cos0 - 1.0 - sol.norm_defect) <= 1e-15 and abs(k_cos0 - 1.0) <= 1e-11


@pytest.mark.parametrize("spec", [TAB_KINKED, TAB_SIN2], ids=["kinked", "sin2"])
def test_kinked_tabulated_spectra_solve(spec):
    sol = solve(spec, U)
    assert abs(sol.norm_defect) <= 1e-6
    assert abs(frequency_moment(sol, 2) - 1.0) <= 1e-6
    # no state worth naming, also where N = -inf on the sin^2 table's
    # last node (V^2 = 1e-62 there): the search starts one float above
    assert all(weight <= fano.NORM_TOL for _, weight in fano._bound_states(spec, U, sol.nodes))


def test_bound_state_guidance():
    # omega0 below a band or a peak, or above a band, leaves the dressed
    # oscillator mode as a point mass outside the support, with the
    # root of N and the weight 4 Omega_b / (omega0 |N'|) that a finite
    # bath gives it; a larger omega_max cannot reach it
    for spec, root, weight in ((FlatBand(0.3, 2.0, 3.0), 0.97788987, 0.99089362),
                               (FlatBand(0.1, 0.1, 0.5), 1.00069272, 0.99839167),
                               (GaussianPeak(0.3, 2.0, 0.1), 0.99243012, 0.99489096)):
        with pytest.raises(ConvergenceError) as exc:
            solve(spec, U)
        detail = exc.value.detail
        assert set(detail) == REFUSAL_KEYS
        (got_root, got_weight), = detail["bound_states"]
        assert abs(got_root - root) <= 1e-7 and abs(got_weight - weight) <= 1e-6
        assert abs(detail["norm_defect"] - got_weight) <= 1e-6
        assert detail["guidance"] == (
            f"about {detail['norm_defect']:.3g} of the spectral mass lies where "
            f"|V|^2 = 0, at omega = {got_root:.8g} (weight {got_weight:.6g}): a point "
            "mass (bound state) of the dressed oscillator, which the grid cannot "
            "hold; raising omega_max does not help")


def test_bound_state_guidance_names_the_gap():
    # omega0 in a gap of a tabulated V: the dressed mode is a point mass
    # inside the support, in the run of nodes with V^2 = 0 across which
    # N changes sign
    spec = Tabulated(omegas=[0.2, 0.4, 0.6, 1.6, 2.3, 3.0], values=[0, 0.25, 0, 0, 0.25, 0])
    with pytest.raises(ConvergenceError) as exc:
        solve(spec, U)
    detail = exc.value.detail
    (root, weight), = detail["bound_states"]
    assert abs(root - 0.99405029) <= 1e-7 and abs(weight - 0.99096747) <= 1e-6
    assert "outside the coupling support" not in detail["guidance"]
    assert f"at omega = {root:.8g} (weight {weight:.6g})" in detail["guidance"]


@pytest.mark.parametrize("spec", [Tabulated((0.2, 0.4, 1.5, 2.0), (0, 0, 1.39, 0)),
                                  Tabulated((0.1, 0.5, 0.9, 3.0), (0, 0.72, 0, 0))],
                         ids=["first_run", "last_run"])
def test_bound_state_in_an_end_run_of_a_table_named(spec):
    # omega0's dressed mode lies in the run of nodes with V^2 = 0 at one
    # end of the table, with no coupled node on that side (the last run
    # lies in panels the solve drops, pi being 0 there): named with the
    # root and weight of a uniform bath's heaviest mode
    from dosc import oracle

    decomp = oracle.normal_modes(oracle.discretize(spec, U, 4000))
    k = np.argmax(decomp.weights)
    with pytest.raises(ConvergenceError, match="resolved pi, but its defects miss") as exc:
        solve(spec, U)
    detail = exc.value.detail
    (root, weight), = detail["bound_states"]
    assert spec.omegas[0] < root < spec.omegas[-1]
    assert abs(root - decomp.Omegas[k]) <= 1e-6 and abs(weight - decomp.weights[k]) <= 1e-6
    assert abs(detail["norm_defect"] - weight) <= 1e-6
    assert f"at omega = {root:.8g} (weight {weight:.6g})" in detail["guidance"]


@pytest.mark.parametrize("error", [ValueError, RuntimeError])
def test_bound_state_search_failure_keeps_the_refusal(monkeypatch, error):
    # a search that fails, as bracketed_newton may, names no state, and
    # the guidance says so
    def fail(*args):
        raise error("search failed")

    monkeypatch.setattr(fano, "_bound_states", fail)
    with pytest.raises(ConvergenceError) as exc:
        solve(FlatBand(0.3, 2.0, 3.0), U)
    detail = exc.value.detail
    assert set(detail) == REFUSAL_KEYS
    assert detail["bound_states"] == []
    assert detail["guidance"] == (
        f"about {detail['norm_defect']:.3g} of the spectral mass lies where |V|^2 = 0, "
        "though the bound-state search found none heavier than 1e-06: a point mass "
        "(bound state) of the dressed oscillator, which the grid cannot hold; raising "
        "omega_max does not help")


# ---------------------------------------------------------------------------
# fano.bracketed_newton, the root finder of _find_peaks and classify_damping

# (f, f') of shapes with one root r in any bracket around it, slope s
_NEWTON_SHAPES = (
    lambda x, r, s: (s * (x - r) + (x - r) ** 3, s + 3.0 * (x - r) ** 2),
    lambda x, r, s: (np.arctan(s * (x - r)) + 1e-3 * np.sin(40.0 * x),
                     s / (1.0 + (s * (x - r)) ** 2) + 0.04 * np.cos(40.0 * x)),
    lambda x, r, s: (np.expm1(s * (x - r)), s * np.exp(s * (x - r))),
    # a triple root: Newton converges only linearly
    lambda x, r, s: (np.tanh(s * (x - r)) ** 3,
                     3.0 * s * np.tanh(s * (x - r)) ** 2 / np.cosh(s * (x - r)) ** 2),
    # a pole-like jump at the bracket edges, where f' = 0
    lambda x, r, s: (np.where(np.abs(x - r) < 1.5, np.tan(x - r), np.copysign(1e3, x - r)),
                     np.where(np.abs(x - r) < 1.5, 1.0 / np.cos(x - r) ** 2, 0.0)),
)


@settings(max_examples=500)
@given(root=st.floats(-3.0, 3.0), left=st.floats(1e-9, 2.0), right=st.floats(1e-9, 2.0),
       shape=st.integers(0, len(_NEWTON_SHAPES) - 1), scale=st.floats(0.1, 10.0),
       tols=st.sampled_from([(1e-14, 1e-14), (1e-12, 1e-14)]), falling=st.booleans())
def test_bracketed_newton_matches_brent(root, left, right, shape, scale, tols, falling):
    # the (xtol, rtol) pairs of fano._find_peaks and dynamics.classify_damping;
    # a falling f puts the end where f <= 0 above the other
    def f(x):
        val, slope = _NEWTON_SHAPES[shape](x, root, scale)
        return (-val, -slope) if falling else (val, slope)

    a, b = root - left, root + right
    fa, fb = float(f(np.float64(a))[0]), float(f(np.float64(b))[0])
    # the sine may shift the root out of a narrow bracket
    assume(np.sign(fa) * np.sign(fb) <= 0)
    lo, hi = (a, b) if fa < fb else (b, a)     # f(lo) <= 0 <= f(hi), as a scan signs them
    xtol, rtol = tols
    if shape == 3:
        # at the triple root either method may stop up to its tolerance
        # away, on either side, and Brent's 100 iterations may run out
        ref = root
    else:
        ref = optimize.brentq(lambda x: float(f(np.float64(x))[0]), a, b,
                              xtol=xtol, rtol=rtol)
    got = fano.bracketed_newton(f, lo, hi, xtol=xtol, rtol=rtol)
    assert got.shape == (1,)
    # the tolerance, plus the rounding of the last step at the triple root
    assert abs(got[0] - ref) <= xtol + rtol * abs(ref) + 2.0 * np.spacing(abs(ref))


def test_bracketed_newton_takes_every_bracket_at_once():
    # each root as if alone, also with an exact zero at either end
    roots = np.array([-2.0, 0.3, 1.0, 5.0])

    def f(x):
        d = x[:, None] - roots
        slope = sum(np.prod(np.delete(d, j, axis=1), axis=1) for j in range(roots.size))
        return np.prod(d, axis=1), slope

    a, b = np.array([-2.5, 0.3, 0.75, 7.0]), np.array([-1.5, 0.5, 1.0, 4.0])
    rising = f(a)[0] < f(b)[0]
    lo, hi = np.where(rising, a, b), np.where(rising, b, a)
    assert not rising.all() and rising.any()
    got = fano.bracketed_newton(f, lo, hi, xtol=1e-14, rtol=1e-14)
    for i in range(roots.size):
        assert got[i] == fano.bracketed_newton(f, lo[i], hi[i], xtol=1e-14, rtol=1e-14)[0]
    assert np.all(np.abs(got - roots) <= 1e-14 * (1.0 + np.abs(roots)))
    assert fano.bracketed_newton(f, [], [], xtol=1e-14, rtol=1e-14).size == 0


def test_bracketed_newton_never_evaluates_an_end():
    # the caller's scan has already signed each end: every point f is
    # asked for lies strictly inside its bracket
    asked = []

    def f(x):
        asked.append(np.array(x))
        return np.sin(x), np.cos(x)

    lo, hi = np.array([-1.0, 4.0]), np.array([1.0, 2.5])     # sin(lo) < 0 < sin(hi)
    got = fano.bracketed_newton(f, lo, hi, xtol=1e-14, rtol=1e-14)
    assert np.all(np.abs(got - [0.0, math.pi]) <= 1e-14 * (1.0 + np.abs(got)))
    left, right = np.minimum(lo, hi), np.maximum(lo, hi)
    for x in asked:
        assert x.shape == lo.shape and np.all((left < x) & (x < right))


def test_bracketed_newton_refusals():
    def nan_inside(x):    # at the midpoint, the first step
        return np.where(np.abs(x) < 0.1, np.nan, x - 0.5), np.ones_like(x)

    with pytest.raises(ValueError, match="NaN"):
        fano.bracketed_newton(nan_inside, -1.0, 1.0, xtol=1e-12, rtol=1e-14)

    def step(x):   # f' = 0: every step bisects
        return np.copysign(1.0, x - 1e-200), np.zeros_like(x)

    # about 2000 halvings would reach the tolerance; 100 steps are allowed
    with pytest.raises(RuntimeError, match="100 steps"):
        fano.bracketed_newton(step, -1e300, 1e300, xtol=1e-300, rtol=1e-14)


@pytest.mark.parametrize("slope", [0.0, np.inf, -np.inf])
def test_bracketed_newton_without_a_finite_slope(slope):
    # f' = 0 or +-inf, as at a tabulated spectrum's kink, only bisects,
    # with no RuntimeWarning
    def f(x):
        return x - 0.3, np.full_like(x, slope)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = fano.bracketed_newton(f, 0.0, 1.0, xtol=1e-12, rtol=1e-14)
    assert abs(got[0] - 0.3) <= 1e-12


def test_peak_width_from_exact_slope():
    # the width pi |V|^2 / |N'| at each resonance, N' = 4 omega/omega0 - I'
    # with I' from the Ei/E1 closed form: exact to rounding, where a
    # central difference of N misses by 3e-11 to 5e-11
    for name in ("weak_line", "ohmic_reference"):
        spec = config_spec(name)
        lo, hi = rule_bounds(spec)
        (pk, width), = fano._find_peaks(spec, U, fano._support_scan(lo, hi))
        x = pk / spec.cutoff
        s = math.exp(-x) * expi(x) + math.exp(x) * exp1(x)
        ds = math.exp(x) * exp1(x) - math.exp(-x) * expi(x)
        nprime = 4.0 * pk / U.omega0 - spec.amplitude**2 * (s + x * ds)
        assert abs(width - math.pi * spec.v_sq(pk) / abs(nprime)) <= 1e-13 * width


def test_peak_search_gives_up_on_a_nan_inside_a_bracket(monkeypatch):
    # the scan's values are finite, every later N is NaN: the root step
    # refuses and no resonance cluster is seeded
    spec = config_spec("ohmic_reference")
    lo, hi = rule_bounds(spec)
    assert len(fano._find_peaks(spec, U, fano._support_scan(lo, hi))) == 1
    n_values, calls = fano._n_values, []

    def nan_after_scan(spec, units, w):
        calls.append(w)
        return n_values(spec, units, w) if len(calls) == 1 else np.full(np.shape(w), np.nan)

    monkeypatch.setattr(fano, "_n_values", nan_after_scan)
    assert fano._find_peaks(spec, U, fano._support_scan(lo, hi)) == []
    assert len(calls) == 2

