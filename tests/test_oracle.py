"""Finite-bath oracle: exact sum rules, the two-mode reference, and
agreement between the dense and reduced evolution paths."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dosc import fano, groundstate, oracle
from dosc.errors import PositivityError, UsageError
from dosc.spectra import FlatBand, GaussianPeak, OhmicExp, Tabulated, UnitSystem

# two-mode reference: K = [[1, 1/2], [1/2, 1]], eigenvalues 1 -+ 1/2
TM_OMEGA_LO = math.sqrt(0.5)
TM_OMEGA_HI = math.sqrt(1.5)
TM_VAR_X = 0.25 * (1.0 / TM_OMEGA_LO + 1.0 / TM_OMEGA_HI)
TM_VAR_P = 0.25 * (TM_OMEGA_LO + TM_OMEGA_HI)


@pytest.fixture(scope="module")
def two_mode():
    model = oracle.FiniteBathModel(omega0=1.0, bath_freqs=[1.0], couplings=[0.5])
    return model, oracle.normal_modes(model)


class TestTwoMode:
    def test_matrix(self, two_mode):
        model, _ = two_mode
        assert np.allclose(model.K, [[1.0, 0.5], [0.5, 1.0]], atol=0.0)
        assert model.discrete_margin == pytest.approx(0.75, abs=1e-15)

    def test_modes(self, two_mode):
        _, decomp = two_mode
        assert np.allclose(decomp.Omegas**2, [0.5, 1.5], atol=1e-12)
        assert np.allclose(decomp.weights, [0.5, 0.5], atol=1e-12)

    def test_ground_covariance(self, two_mode, units):
        _, decomp = two_mode
        gc = oracle.ground_covariance(decomp, units)
        assert gc.var_x == pytest.approx(TM_VAR_X, rel=1e-12)
        assert gc.var_p == pytest.approx(TM_VAR_P, rel=1e-12)
        full = gc.full_covariance()
        assert full[0, 0] == pytest.approx(TM_VAR_X, rel=1e-12)
        assert full[2, 2] == pytest.approx(TM_VAR_P, rel=1e-12)

    def test_ground_covariance_scaled_units(self, two_mode):
        _, decomp = two_mode
        u = UnitSystem(omega0=1.0, mass=2.5, hbar=0.7)
        gc = oracle.ground_covariance(decomp, u)
        assert gc.var_x == pytest.approx(0.7 / 2.5 * TM_VAR_X, rel=1e-12)
        assert gc.var_p == pytest.approx(0.7 * 2.5 * TM_VAR_P, rel=1e-12)

    def test_recurrence(self, two_mode):
        _, decomp = two_mode
        expected = 2.0 * math.pi / (TM_OMEGA_HI - TM_OMEGA_LO)
        assert oracle.recurrence_estimate(decomp) == pytest.approx(expected, rel=1e-12)

    def test_moment_surface(self, two_mode, units):
        # the decomposition feeds the ground-state module unchanged
        _, decomp = two_mode
        summary = groundstate.ground_state_moments(decomp, units)
        assert summary.var_x == pytest.approx(TM_VAR_X, rel=1e-12)
        assert summary.omega_c == pytest.approx(0.9306048591020996, rel=1e-10)
        assert summary.n_bar_c == pytest.approx(0.018977424651021146, rel=1e-9)
        report = groundstate.interpretation_identities(decomp, units)
        assert report.ok

    def test_symplectic_occupation_identity(self, two_mode, units):
        _, decomp = two_mode
        gc = oracle.ground_covariance(decomp, units)
        summary = groundstate.ground_state_moments(decomp, units)
        cov = np.array([[gc.var_x, 0.0], [0.0, gc.var_p]])
        nu = oracle.symplectic_eigenvalues(cov)[0]
        assert 2.0 * nu / units.hbar == pytest.approx(2.0 * summary.n_bar_c + 1.0, abs=1e-9)


class TestConstruction:
    def test_sum_rules_machine_exact(self, units):
        spec = OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0)
        decomp = oracle.normal_modes(oracle.discretize(spec, units, 101))
        assert abs(fano.frequency_moment(decomp, 0) - 1.0) < 1e-13
        assert abs(fano.frequency_moment(decomp, 2) - units.omega0**2) < 1e-13

    def test_riemann_sum_matches_integral(self, units):
        # N = 4000 uniform: the discrete positivity sum reproduces the
        # analytic int |V|^2/omega to well under 0.1%
        spec = OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0)
        model = oracle.discretize(spec, units, 4000)
        discrete = units.omega0 - model.discrete_margin
        assert discrete == pytest.approx(spec.analytic_positivity_integral(), rel=1e-3)

    def test_gauss_like_scheme(self, units):
        spec = OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0)
        model = oracle.discretize(spec, units, 200, scheme="gauss_like")
        discrete = units.omega0 - model.discrete_margin
        assert discrete == pytest.approx(spec.analytic_positivity_integral(), rel=1e-4)
        decomp = oracle.normal_modes(model)
        assert abs(fano.frequency_moment(decomp, 0) - 1.0) < 1e-13

    def test_coarse_grid_overshoot_rejected(self, units):
        # narrow peak: admissible in the continuum, but a 2-point grid
        # lands a node on the peak and overshoots omega0
        spec = GaussianPeak(amplitude=math.sqrt(11.37), center=0.3, width=0.01)
        with pytest.raises(PositivityError) as exc:
            oracle.discretize(spec, units, 2)
        assert exc.value.detail["margin"] < 0
        assert "increase N" in str(exc.value)
        model = oracle.discretize(spec, units, 1000)
        assert 0.0 < model.discrete_margin < 0.1

    def test_zero_coupling_diagonal(self, units):
        spec = Tabulated(omegas=[0.5, 1.0, 2.0], values=[0.0, 0.0, 0.0])
        model = oracle.discretize(spec, units, 4)
        off = model.K - np.diag(np.diag(model.K))
        assert np.abs(off).max() == 0.0
        decomp = oracle.normal_modes(model)
        # all weight sits on the bare oscillator mode
        idx = int(np.argmax(decomp.weights))
        assert decomp.Omegas[idx] == pytest.approx(units.omega0, rel=1e-14)
        assert decomp.weights[idx] == pytest.approx(1.0, abs=1e-14)

    def test_validation(self, units):
        with pytest.raises(UsageError):
            oracle.FiniteBathModel(omega0=1.0, bath_freqs=[1.0, -2.0], couplings=[0.1, 0.1])
        with pytest.raises(UsageError):
            oracle.FiniteBathModel(omega0=1.0, bath_freqs=[1.0], couplings=[0.1, 0.2])
        with pytest.raises(UsageError):
            oracle.discretize(OhmicExp(amplitude=0.1, cutoff=5.0), units, 0)
        with pytest.raises(UsageError):
            oracle.discretize(OhmicExp(amplitude=0.1, cutoff=5.0), units, 10, scheme="simpson")

    @given(level=st.floats(0.05, 0.3), lower=st.floats(0.08, 0.5),
           width=st.floats(0.5, 2.5), n=st.integers(3, 40))
    def test_sum_rules_property(self, level, lower, width, n):
        units = UnitSystem()
        spec = FlatBand(level=level, lower=lower, upper=lower + width)
        decomp = oracle.normal_modes(oracle.discretize(spec, units, n))
        assert abs(fano.frequency_moment(decomp, 0) - 1.0) < 1e-12
        assert abs(fano.frequency_moment(decomp, 2) - 1.0) < 1e-12
        assert np.all(decomp.Omegas > 0)


@pytest.fixture(scope="module")
def small_bath(units):
    spec = FlatBand(level=0.2, lower=0.1, upper=2.0)
    model = oracle.discretize(spec, units, 6)
    return model, oracle.normal_modes(model)


class TestEvolution:
    def test_ground_state_stationary(self, small_bath, units):
        model, decomp = small_bath
        gs = oracle.global_ground_state(decomp, units)
        for state in oracle.evolve(model, gs, [0.7, 3.1, 11.0], decomp=decomp):
            assert np.abs(state.covariance - gs.covariance).max() < 1e-12
            assert np.abs(state.means).max() == 0.0

    def test_displaced_mean_matches_weight_sum(self, small_bath, units):
        model, decomp = small_bath
        x0, p0 = 1.3, -0.4
        times = [0.0, 0.5, 1.7, 4.2]
        initial = oracle.product_ground_state(model, units, x0=x0, p0=p0)
        dense = oracle.evolve(model, initial, times, decomp=decomp)
        for t, state in zip(times, dense):
            k_cos = float(np.sum(decomp.weights * np.cos(decomp.Omegas * t)))
            k_sin = float(np.sum(decomp.weights * np.sin(decomp.Omegas * t) / decomp.Omegas))
            means, _ = state.reduced_oscillator(units)
            assert means[0] == pytest.approx(x0 * k_cos + p0 * k_sin, abs=1e-12)

    def test_reduced_path_matches_dense(self, small_bath, units):
        model, decomp = small_bath
        times = [0.0, 0.5, 1.7, 4.2]
        initial = oracle.product_ground_state(model, units, x0=1.3, p0=-0.4)
        dense = oracle.evolve(model, initial, times, decomp=decomp)
        red = oracle.evolve_reduced(model, units, 1.3, -0.4, times, decomp=decomp)
        for i, state in enumerate(dense):
            means, cov = state.reduced_oscillator(units)
            assert red.mean_x[i] == pytest.approx(means[0], abs=1e-12)
            assert red.mean_p[i] == pytest.approx(means[1], abs=1e-12)
            assert red.var_x[i] == pytest.approx(cov[0, 0], rel=1e-12)
            assert red.var_p[i] == pytest.approx(cov[1, 1], rel=1e-12)
            assert red.cov_xp[i] == pytest.approx(cov[0, 1], abs=1e-12)

    def test_reduced_path_nontrivial_units(self):
        u = UnitSystem(omega0=1.0, mass=2.5, hbar=0.7)
        spec = FlatBand(level=0.2, lower=0.1, upper=2.0)
        model = oracle.discretize(spec, u, 6)
        decomp = oracle.normal_modes(model)
        initial = oracle.product_ground_state(model, u, x0=0.9, p0=0.3)
        dense = oracle.evolve(model, initial, [1.1], decomp=decomp)
        red = oracle.evolve_reduced(model, u, 0.9, 0.3, [1.1], decomp=decomp)
        means, cov = dense[0].reduced_oscillator(u)
        assert red.mean_x[0] == pytest.approx(means[0], rel=1e-12)
        assert red.mean_p[0] == pytest.approx(means[1], rel=1e-12)
        assert red.var_x[0] == pytest.approx(cov[0, 0], rel=1e-12)
        assert red.var_p[0] == pytest.approx(cov[1, 1], rel=1e-12)

    def test_symplectic_floor_preserved(self, small_bath, units):
        model, decomp = small_bath
        initial = oracle.product_ground_state(model, units, x0=2.0)
        nus = oracle.symplectic_eigenvalues(initial.covariance)
        assert np.all(nus >= units.hbar / 2.0 - 1e-9)
        for state in oracle.evolve(model, initial, [0.9, 2.3], decomp=decomp):
            nus = oracle.symplectic_eigenvalues(state.covariance)
            assert np.all(nus >= units.hbar / 2.0 - 1e-9)

    def test_state_validation(self, small_bath, units):
        model, _ = small_bath
        with pytest.raises(UsageError):
            oracle.GaussianEvolutionState(means=np.zeros(3), covariance=np.zeros((3, 3)))
        with pytest.raises(UsageError):
            oracle.GaussianEvolutionState(means=np.zeros(4), covariance=np.zeros((4, 2)))
        lop = np.eye(4)
        lop[0, 1] = 0.5
        with pytest.raises(UsageError):
            oracle.GaussianEvolutionState(means=np.zeros(4), covariance=lop)
        tiny = oracle.GaussianEvolutionState(means=np.zeros(4), covariance=np.eye(4))
        with pytest.raises(UsageError):
            oracle.evolve(model, tiny, [0.1])


class TestAgainstContinuum:
    def test_doubling_convergence_order(self, flat_mid, units):
        spec, sol = flat_mid
        minv = fano.frequency_moment(sol, -1)
        m1 = fano.frequency_moment(sol, 1)
        errs = {}
        for n in (100, 200, 400):
            decomp = oracle.normal_modes(oracle.discretize(spec, units, n))
            errs[n] = (
                abs(fano.frequency_moment(decomp, -1) - minv) / minv,
                abs(fano.frequency_moment(decomp, 1) - m1) / m1,
            )
        for n in (100, 200):
            assert math.log2(errs[n][0] / errs[2 * n][0]) >= 1.0
            assert math.log2(errs[n][1] / errs[2 * n][1]) >= 1.0

    def test_comparison_report(self, flat_mid, units, tmp_path):
        _, sol = flat_mid
        rep = oracle.compare_with_continuum(sol, units, 800, bins=80)
        assert rep.rel_var_x < 1e-6
        assert rep.rel_var_p < 1e-6
        assert rep.histogram_l1 < 0.05
        assert rep.discrete_margin > 0
        assert rep.recurrence > 0
        d = rep.to_json_dict()
        assert set(d) == {"N", "scheme", "bins", "rel_var_x", "rel_var_p",
                          "rel_mean_freq", "rel_mean_inv_freq", "histogram_l1",
                          "recurrence", "discrete_margin"}
        out = tmp_path / "hist.csv"
        rep.histogram_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "bin_lo,bin_hi,density_discrete,density_continuum"
        assert len(lines) == 81

    def test_histogram_mass(self, flat_mid, units):
        spec, _ = flat_mid
        decomp = oracle.normal_modes(oracle.discretize(spec, units, 300))
        edges, density = oracle.discrete_pi_histogram(decomp, 40)
        assert float(np.sum(density * np.diff(edges))) == pytest.approx(1.0, abs=1e-12)
