"""Lamb-type shift values and the Lorentzian approach of the density."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.optimize import least_squares

from dosc import fano, groundstate, weakcoupling
from dosc.errors import ConvergenceError, UsageError
from dosc.spectra import FlatBand, GaussianPeak, OhmicExp, Tabulated, UnitSystem

# quadrature refinement golden, ohmic amplitude 0.3 cutoff 5.0 at omega0
OHMIC_F1 = -0.20653766815614519841


def weak_line_spec(hwhm: float) -> OhmicExp:
    """Ohmic coupling whose predicted line half-width is ``hwhm``."""
    amp_sq = 4.0 * hwhm * math.exp(0.2) / math.pi
    return OhmicExp(amplitude=math.sqrt(amp_sq), cutoff=5.0)


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
        peak = weakcoupling.approx_alpha_sq(spec, units, w_pk)
        assert peak == pytest.approx(
            4.0 / (math.pi ** 2 * spec.v_sq(w_pk)), rel=1e-4)

    def test_far_detuning_asymptote(self, units):
        spec = weak_line_spec(1e-3)
        w = 12.0
        val = weakcoupling.approx_alpha_sq(spec, units, w)
        assert val == pytest.approx(
            spec.v_sq(w) / (4.0 * (w - 1.0) ** 2), rel=1e-3)

    def test_matches_exact_across_line_core(self, units):
        # side-by-side scan across the predicted full width at half
        # maximum; agreement within 2% is the module's validity claim
        spec = weak_line_spec(1e-3)
        center = 1.0 + weakcoupling.lamb_shift(spec, units, 1.0)
        ws = np.linspace(center - 1e-3, center + 1e-3, 21)
        exact = fano.dressing(spec, units, ws)[1]
        for w, ex in zip(ws, exact):
            approx = weakcoupling.approx_alpha_sq(spec, units, float(w))
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
        assert rep.window[0] < rep.center_fit - 5 * rep.hwhm_fit
        assert rep.window[1] > rep.center_fit + 5 * rep.hwhm_fit

    def test_json_round_trip(self, units, weak_line):
        _, sol = weak_line
        rep = weakcoupling.lorentzian_fit(sol)
        doc = json.loads(rep.to_json())
        assert set(doc) == {
            "F0", "hwhm_pred", "fwhm_pred", "center_fit", "hwhm_fit",
            "residual_l1", "max_beta_ratio_peak", "window_lo", "window_hi",
        }
        assert doc["center_fit"] == rep.center_fit
        assert doc["hwhm_fit"] == rep.hwhm_fit

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
        calls = []
        fit = weakcoupling._fit

        def spy(*args):
            calls.append(args)
            return fit(*args)

        monkeypatch.setattr(weakcoupling, "_fit", spy)
        rng = None if jitter_seed is None else np.random.default_rng(jitter_seed)
        rep = weakcoupling.lorentzian_fit(fano.solve(self.SPECS[name], units),
                                          jitter_rng=rng)
        (wm, pm, rt, start, lower, upper), = calls

        def resid(p):
            return (weakcoupling._lorentz(wm, *p) - pm) * rt

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
