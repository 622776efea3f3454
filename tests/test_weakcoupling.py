"""Lamb-type shift values and the Lorentzian approach of the density."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad
from scipy.optimize import least_squares

from dosc import fano, groundstate, weakcoupling
from dosc.cli import load_config
from dosc.errors import ConvergenceError, UsageError
from dosc.spectra import FlatBand, GaussianPeak, OhmicExp, Tabulated, UnitSystem

# quadrature refinement golden, ohmic amplitude 0.3 cutoff 5.0 at omega0
OHMIC_F1 = -0.20653766815614519841


def weak_line_spec(hwhm: float) -> OhmicExp:
    """Ohmic coupling whose predicted line half-width is ``hwhm``."""
    amp_sq = 4.0 * hwhm * math.exp(0.2) / math.pi
    return OhmicExp(amplitude=math.sqrt(amp_sq), cutoff=5.0)


def approx_alpha_sq(spec, units, omega):
    """Weak-damping |alpha|^2: exact except the resonant denominator, where
    (omega - omega0 - F)^2 + (pi |V|^2/4)^2 stands in."""
    vsq = spec.v_sq(float(omega))
    shift = weakcoupling.lamb_shift(spec, units, omega)
    return (vsq / 4.0) / ((omega - units.omega0 - shift) ** 2 + (math.pi * vsq / 4.0) ** 2)


def dense_residual(sol, rep, parts=2048) -> float:
    """|pi - lorentzian| over the report's fit window by the CHECK_POINTS
    rule on each window panel cut into ``parts`` equal parts, so that the
    kinks where pi crosses the line lie in panels too narrow to matter."""
    lo, hi, b = rep.window_lo, rep.window_hi, sol.breaks
    ends = np.concatenate([[lo], b[(b > lo) & (b < hi)], [hi]])
    cuts = ends[:-1, None] + np.diff(ends)[:, None] * (np.arange(parts) / parts)
    nodes, gauss = fano.panel_rule(np.append(cuts.ravel(), hi), fano.CHECK_POINTS)
    return math.fsum(gauss * np.abs(
        sol.pi_at(nodes) - weakcoupling._lorentz(nodes, rep.center_fit, rep.hwhm_fit)))


def config_solution(name):
    cfg = load_config(str(Path(__file__).resolve().parent.parent / "configs"
                          / f"{name}.json"), [])
    return fano.solve(cfg.spectrum, cfg.units)


@pytest.fixture(scope="module")
def weak_line(units):
    spec = weak_line_spec(1e-3)
    return spec, fano.solve(spec, units)


def flat_band_shift(level: float, lo: float, hi: float, omega: float) -> float:
    # PV log plus regular log collapse to a single ratio of quadratics
    return (level * level / 4.0) * math.log(
        (omega * omega - lo * lo) / (hi * hi - omega * omega))


class TestLambShift:
    def test_ohmic_golden(self, units):
        spec = OhmicExp(amplitude=0.3, cutoff=5.0)
        val = weakcoupling.lamb_shift(spec, units, 1.0)
        assert val == pytest.approx(OHMIC_F1, rel=1e-9)

    def test_scales_with_amplitude_squared(self, units):
        base = weakcoupling.lamb_shift(OhmicExp(amplitude=0.3, cutoff=5.0), units, 1.0)
        half = weakcoupling.lamb_shift(OhmicExp(amplitude=0.15, cutoff=5.0), units, 1.0)
        assert half == pytest.approx(0.25 * base, rel=1e-10)

    def test_flat_band_closed_form(self, units):
        spec = FlatBand(level=0.2, lower=0.1, upper=2.0)
        val = weakcoupling.lamb_shift(spec, units, 1.0)
        assert val == pytest.approx(flat_band_shift(0.2, 0.1, 2.0, 1.0), rel=1e-10)

    def test_flat_band_vanishing_lower_edge_limit(self, units):
        # as the band's lower edge closes onto zero the shift at band
        # center tends to -(v^2/4) ln 3; the gap closes quadratically
        target = -(0.04 / 4.0) * math.log(3.0)
        for a in (0.1, 0.01):
            val = weakcoupling.lamb_shift(FlatBand(0.2, a, 2.0), units, 1.0)
            assert abs(val - target) < 2.0 * (0.04 / 4.0) * a * a

    def test_below_band_no_pole_branch(self, units):
        spec = FlatBand(level=0.2, lower=1.5, upper=2.5)
        val = weakcoupling.lamb_shift(spec, units, 1.0)
        closed = (0.04 / 4.0) * (math.log((1.5 - 1.0) / (2.5 - 1.0))
                                 - math.log((2.5 + 1.0) / (1.5 + 1.0)))
        assert val == pytest.approx(closed, rel=1e-10)

    def test_zero_coupling(self, units):
        spec = Tabulated((1.0, 2.0), (0.0, 0.0))
        assert weakcoupling.lamb_shift(spec, units, 1.0) == 0.0

    def test_rejects_bad_omega(self, units):
        spec = FlatBand(level=0.2, lower=0.1, upper=2.0)
        with pytest.raises(UsageError):
            weakcoupling.lamb_shift(spec, units, -1.0)
        with pytest.raises(UsageError):
            weakcoupling.lamb_shift(spec, units, math.nan)

    @given(
        level=st.floats(0.05, 0.3),
        lo=st.floats(0.05, 0.5),
        hi=st.floats(1.5, 3.0),
        frac=st.floats(0.1, 0.9),
    )
    def test_flat_band_family_matches_logs(self, units, level, lo, hi, frac):
        omega = lo + 0.1 + frac * (hi - 0.1 - (lo + 0.1))
        val = weakcoupling.lamb_shift(FlatBand(level, lo, hi), units, omega)
        assert val == pytest.approx(flat_band_shift(level, lo, hi, omega), rel=1e-6)


class TestApproxAlphaSq:
    def test_peak_value(self, units):
        spec = weak_line_spec(1e-3)
        w_pk = 1.0 + weakcoupling.lamb_shift(spec, units, 1.0)
        peak = approx_alpha_sq(spec, units, w_pk)
        assert peak == pytest.approx(
            4.0 / (math.pi ** 2 * spec.v_sq(w_pk)), rel=1e-4)

    def test_far_detuning_asymptote(self, units):
        spec = weak_line_spec(1e-3)
        w = 12.0
        val = approx_alpha_sq(spec, units, w)
        assert val == pytest.approx(
            spec.v_sq(w) / (4.0 * (w - 1.0) ** 2), rel=1e-3)

    def test_matches_exact_across_line_core(self, units):
        # side-by-side scan across the predicted full width at half
        # maximum; agreement within 2% is the module's validity claim
        spec = weak_line_spec(1e-3)
        center = 1.0 + weakcoupling.lamb_shift(spec, units, 1.0)
        ws = np.linspace(center - 1e-3, center + 1e-3, 21)
        exact = fano._assemble(spec, units, ws)[1]
        for w, ex in zip(ws, exact):
            approx = approx_alpha_sq(spec, units, float(w))
            assert abs(ex / approx - 1.0) < 0.02


class _StubSolution:
    def __init__(self, omegas, pi, spec, units):
        self.omegas = np.asarray(omegas, dtype=float)
        self.pi = np.asarray(pi, dtype=float)
        self.spec = spec
        self.units = units


class TestLorentzianFit:
    def test_weak_line_report(self, units, weak_line):
        spec, sol = weak_line
        rep = weakcoupling.lorentzian_fit(sol)
        assert rep.hwhm_pred == pytest.approx(1e-3, rel=1e-12)
        assert rep.fwhm_pred == 2.0 * rep.hwhm_pred
        assert rep.hwhm_fit == pytest.approx(rep.hwhm_pred, rel=0.05)
        assert abs(rep.center_fit - (1.0 + rep.F0)) < rep.hwhm_pred
        assert rep.residual_l1 < 0.01
        # admixture stays linearisation-small across the resonance band
        assert rep.max_beta_ratio_peak == pytest.approx(
            rep.hwhm_pred / 2.0, rel=0.05)
        assert rep.max_beta_ratio_peak <= 2e-3
        assert rep.window_lo < rep.center_fit - 5 * rep.hwhm_fit
        assert rep.window_hi > rep.center_fit + 5 * rep.hwhm_fit

    def test_json_round_trip(self, units, weak_line):
        _, sol = weak_line
        rep = weakcoupling.lorentzian_fit(sol)
        doc = json.loads(rep.to_json())
        assert set(doc) == {
            "F0", "hwhm_pred", "fwhm_pred", "center_fit", "hwhm_fit",
            "residual_l1", "max_beta_ratio_peak", "window_lo", "window_hi",
        }
        assert doc == {k: getattr(rep, k) for k in doc}

    def test_overlay_csv(self, units, weak_line, tmp_path):
        _, sol = weak_line
        rep = weakcoupling.lorentzian_fit(sol)
        path = tmp_path / "overlay.csv"
        rep.overlay_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "omega,pi_exact,pi_lorentz"
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape == (rep.overlay_omegas.size, 3)
        np.testing.assert_array_equal(data[:, 0], rep.overlay_omegas)
        np.testing.assert_array_equal(data[:, 1], rep.overlay_pi)
        np.testing.assert_array_equal(data[:, 2], rep.overlay_lorentz)

    @pytest.mark.parametrize("fixture", ["weak_line", "ohmic_ref"])
    def test_residual_integrates_the_window(self, units, fixture, request):
        # QUADPACK on |pi - lorentzian| over [window_lo, window_hi], panel
        # by panel.  The nodes inside the window alone miss the parts of
        # its two end panels between them and the window's ends: 1.2% low
        # on weak_line and 0.9% on ohmic_reference.  What is left is
        # QUADPACK's own error at the kinks where pi crosses the
        # Lorentzian, 3.2e-7 on weak_line, where the dense reference
        # agrees with the residual to 3e-12
        _, sol = request.getfixturevalue(fixture)
        rep = weakcoupling.lorentzian_fit(sol)
        lo, hi = rep.window_lo, rep.window_hi

        def f(w):
            w = np.array([w])
            return abs(fano._assemble(sol.spec, units, w)[3][0]
                       - weakcoupling._lorentz(w, rep.center_fit, rep.hwhm_fit)[0])

        b = sol.breaks
        ends = np.concatenate([[lo], b[(b > lo) & (b < hi)], [hi]])
        ref = math.fsum(quad(f, a, c, epsabs=0.0, epsrel=1e-12, limit=200)[0]
                        for a, c in zip(ends[:-1], ends[1:]))
        assert rep.residual_l1 == pytest.approx(ref, rel=1e-6)

    @pytest.mark.parametrize("name", ["weak_line", "ohmic_reference", "flat_band",
                                      "near_critical"])
    def test_residual_matches_the_dense_reference(self, name):
        # the window split at pi's crossings of the line as well as at its
        # ends: split at its ends alone, the rule missed the kinks of
        # |pi - lorentzian| by 2.2e-4 relative on weak_line, 2.5e-4 on
        # ohmic_reference, -3.8e-5 on flat_band and 1.1e-5 on near_critical
        sol = config_solution(name)
        rep = weakcoupling.lorentzian_fit(sol)
        assert abs(rep.residual_l1 / dense_residual(sol, rep) - 1.0) <= 1e-10

    def test_two_crossings_between_adjacent_nodes_found(self):
        # on flat_band pi crosses the line at 0.98786 and 0.98957, both
        # between the Gauss nodes at 0.98699 and 0.99009: the scan of
        # each window panel brackets both
        sol = config_solution("flat_band")
        rep = weakcoupling.lorentzian_fit(sol)
        c, g = rep.center_fit, rep.hwhm_fit
        cuts = weakcoupling._crossings(sol, rep.window_lo, rep.window_hi, c, g)
        assert cuts.size == 2
        assert np.searchsorted(sol.nodes, cuts[0]) == np.searchsorted(sol.nodes, cuts[1])
        assert 0.98786 < cuts[0] < 0.98787 and 0.98956 < cuts[1] < 0.98958
        gap = sol.pi_at(cuts) - weakcoupling._lorentz(cuts, c, g)
        assert np.all(np.abs(gap) <= 1e-12 * sol.pi.max())

    def test_strong_coupling_residual_reported(self, units, ohmic_strong):
        _, sol = ohmic_strong
        rep = weakcoupling.lorentzian_fit(sol)
        assert rep.residual_l1 > 0.05
        assert 0.5 < rep.hwhm_fit / rep.hwhm_pred < 2.0

    def test_peakless_density_rejected(self, units):
        spec = FlatBand(level=0.2, lower=0.1, upper=2.0)
        w = np.linspace(0.1, 2.0, 400)
        monotone = np.exp(-w)
        with pytest.raises(ConvergenceError, match="interior peak"):
            weakcoupling.lorentzian_fit(_StubSolution(w, monotone, spec, units))

    def test_unisolated_peak_rejected(self, units):
        spec = FlatBand(level=0.2, lower=0.1, upper=2.0)
        w = np.linspace(0.1, 2.0, 400)
        bump = 1.0 + 0.2 * np.exp(-((w - 1.0) ** 2) / 1e-4)
        with pytest.raises(ConvergenceError, match="half maximum"):
            weakcoupling.lorentzian_fit(_StubSolution(w, bump, spec, units))

    def test_coarse_fit_window_rejected(self, units):
        # a resolved line on nine nodes: all of them lie in the window
        spec = FlatBand(level=0.2, lower=0.1, upper=2.0)
        w = np.linspace(0.6, 1.4, 9)
        sol = _StubSolution(w, 1.0 / (1.0 + ((w - 1.0) / 0.05) ** 2), spec, units)
        with pytest.raises(ConvergenceError, match="fewer than 10") as exc:
            weakcoupling.lorentzian_fit(sol)
        assert exc.value.detail["nodes"] == 9

    def test_width_ratio_improves_as_coupling_vanishes(self, units, weak_line):
        ratios = []
        for hwhm in (4e-3, 2e-3):
            spec = weak_line_spec(hwhm)
            rep = weakcoupling.lorentzian_fit(fano.solve(spec, units))
            ratios.append(rep.hwhm_fit / rep.hwhm_pred)
        rep = weakcoupling.lorentzian_fit(weak_line[1])
        ratios.append(rep.hwhm_fit / rep.hwhm_pred)
        deviations = [abs(r - 1.0) for r in ratios]
        assert deviations[0] > deviations[1] > deviations[2]
        assert deviations[2] < 0.005


class TestFitAgainstLeastSquares:
    """weakcoupling._fit against scipy's least_squares on the same
    objective, start and bounds: the weak_line config and ohmic and
    Gaussian weak models like the benchmark's."""

    SPECS = {
        "weak_line": OhmicExp(amplitude=0.03943524174818923, cutoff=5.0),
        "ohmic_weak": OhmicExp(amplitude=math.sqrt(0.00825 / 1.5), cutoff=1.5),
        "gauss_weak": GaussianPeak(amplitude=0.144, center=1.0, width=0.1),
    }

    @pytest.mark.parametrize("jitter_seed", [None, 7, 11])
    @pytest.mark.parametrize("name", sorted(SPECS))
    def test_cost_and_parameters(self, units, monkeypatch, name, jitter_seed):
        # with a seed, the fit starts from a point moved by up to a
        # tenth of the width in centre and width: a well-conditioned
        # fit must land on the same minimum
        calls = []
        fit = weakcoupling._fit

        def spy(wm, pm, rt, start, lower, upper):
            if jitter_seed is not None:
                rng = np.random.default_rng(jitter_seed)
                c, g = start
                c = min(max(c + 0.1 * g * rng.uniform(-1.0, 1.0), lower[0]),
                        upper[0])
                start = (c, g * (1.0 + 0.1 * rng.uniform(-1.0, 1.0)))
            calls.append((wm, pm, rt, start, lower, upper))
            return fit(wm, pm, rt, start, lower, upper)

        monkeypatch.setattr(weakcoupling, "_fit", spy)
        sol = fano.solve(self.SPECS[name], units)
        rep = weakcoupling.lorentzian_fit(sol)
        (wm, pm, rt, start, lower, upper), = calls
        # the reference objective weighs each node of the fit window by
        # its Gauss weight in the solution's panel rule; the residual is
        # the window's integral, as exact as the dense reference
        lo, hi = rep.window_lo, rep.window_hi
        window = (sol.omegas >= lo) & (sol.omegas <= hi)
        assert np.array_equal(wm, sol.omegas[window])
        gauss = fano.panel_rule(sol.breaks)[1][window]
        assert np.array_equal(rt, np.sqrt(gauss))
        assert abs(rep.residual_l1 / dense_residual(sol, rep) - 1.0) <= 1e-10

        def resid(p):
            return (weakcoupling._lorentz(wm, *p) - pm) * np.sqrt(gauss)

        ref = least_squares(resid, x0=list(start), bounds=(lower, upper))
        cost = 0.5 * float(resid([rep.center_fit, rep.hwhm_fit]) @
                           resid([rep.center_fit, rep.hwhm_fit]))
        assert cost <= ref.cost * (1.0 + 1e-12)
        c_ref, g_ref = ref.x
        assert abs(rep.center_fit - c_ref) <= 1e-6 * g_ref
        assert abs(rep.hwhm_fit / g_ref - 1.0) <= 1e-6

    def test_step_clipped_to_bounds(self):
        # a Lorentzian centred beyond the box: the centre stops on its
        # upper bound and the width stays inside its own
        w = np.linspace(0.9, 1.1, 401)
        rt = np.sqrt(np.gradient(w))
        p = weakcoupling._lorentz(w, 1.2, 0.01)
        c, g = weakcoupling._fit(w, p, rt, (1.0, 0.01), (0.9, 1e-15), (1.1, 0.2))
        assert c == 1.1
        assert 1e-15 <= g <= 0.2


class TestWeakGroundState:
    def test_converges_to_undamped_values(self, units, weak_line):
        _, sol = weak_line
        summary = groundstate.ground_state_moments(sol, units)
        assert summary.n_bar_c < 2e-3
        assert summary.omega_c == pytest.approx(1.0, abs=5e-3)
        # chi(xi = 1) = exp(-<<omega>>/(2 omega0)) = exp(-quad_p_unc^2)
        chi = math.exp(-summary.quad_p_unc ** 2)
        assert chi == pytest.approx(math.exp(-0.5), rel=0.01)

    def test_sum_rule_holds_on_exact_density(self, units, weak_line):
        # the fitted Lorentzian has no second moment; the exact density
        # must still satisfy <<omega^2>> = omega0^2
        _, sol = weak_line
        assert fano.frequency_moment(sol, 2) == pytest.approx(1.0, abs=1e-6)
