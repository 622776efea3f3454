"""Finite-bath oracle: exact sum rules, the two-mode reference, the
secular-equation modes against a dense eigensolver, and agreement
between the dense and reduced evolution paths."""

import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.linalg import eigh

from dense_evolution import (GaussianEvolutionState, evolve, full_covariance,
                            global_ground_state, product_ground_state,
                            symplectic_eigenvalues)
from dosc import dynamics, fano, groundstate, oracle
from dosc.errors import InternalConsistencyError, PositivityError, UsageError
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
        gs = groundstate.ground_state_moments(decomp, units)
        assert gs.var_x == pytest.approx(TM_VAR_X, rel=1e-12)
        assert gs.var_p == pytest.approx(TM_VAR_P, rel=1e-12)
        full = full_covariance(decomp, units)
        assert full[0, 0] == pytest.approx(TM_VAR_X, rel=1e-12)
        assert full[2, 2] == pytest.approx(TM_VAR_P, rel=1e-12)

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
        # the sum rule is the matrix identity K[0,0] = omega0^2
        assert report.sum_rule_defect <= 1e-12

    def test_symplectic_occupation_identity(self, two_mode, units):
        _, decomp = two_mode
        summary = groundstate.ground_state_moments(decomp, units)
        cov = np.array([[summary.var_x, 0.0], [0.0, summary.var_p]])
        nu = symplectic_eigenvalues(cov)[0]
        assert 2.0 * nu / units.hbar == pytest.approx(2.0 * summary.n_bar_c + 1.0, abs=1e-9)


class TestConstruction:
    def test_sum_rules_machine_exact(self, units):
        spec = OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0)
        decomp = oracle.normal_modes(oracle.discretize(spec, units, 101))
        assert abs(fano.frequency_moment(decomp, 0) - 1.0) < 1e-13
        assert abs(fano.frequency_moment(decomp, 2) - units.omega0**2) < 1e-13

    def test_inverse_moment_near_critical(self, units):
        # sum_k pi_k/Omega_k^2 = (K^-1)_00 = 1/(omega0 margin), the inverse
        # Schur complement.  Near the stability edge the lowest mode is
        # soft (margin 1e-3 here); a dense eigensolver, accurate only to
        # eps ||K|| in each eigenvalue, misses this by 4e-9
        spec = OhmicExp(amplitude=0.4469899327725402, cutoff=5.0)
        model = oracle.discretize(spec, units, 800)
        decomp = oracle.normal_modes(model)
        want = 1.0 / (units.omega0 * model.discrete_margin)
        assert fano.frequency_moment(decomp, -2) == pytest.approx(want, rel=1e-12)

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


def _gaussian_tail_model():
    # an untruncated Gaussian coupling profile on (0, 4]: far from the
    # peak the couplings run through denormals to exact zeros
    n = 800
    w = (np.arange(n) + 0.5) * 4.0 / n
    v = 0.3 * np.exp(-((w - 1.0) / 0.04) ** 2) * math.sqrt(4.0 / n)
    return oracle.FiniteBathModel(1.0, w, v)


_UNITS = UnitSystem()

REFERENCE_MODELS = {
    "two_mode": lambda: oracle.FiniteBathModel(1.0, [1.0], [0.5]),
    "uncoupled": lambda: oracle.discretize(
        Tabulated(omegas=[0.5, 1.0, 2.0], values=[0.0, 0.0, 0.0]), _UNITS, 40),
    "flat_band_gap": lambda: oracle.discretize(
        FlatBand(level=0.15, lower=0.3, upper=2.0), _UNITS, 500),
    "gaussian_tails": _gaussian_tail_model,
    "gauss_like_2000": lambda: oracle.discretize(
        OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0), _UNITS, 2000,
        scheme="gauss_like"),
    # unsorted; runs of 2 and 3 equal poles; one zero coupling inside a
    # run and one far below the deflation tolerance
    "manual_unsorted_repeated": lambda: oracle.FiniteBathModel(
        1.0,
        [2.0, 0.5, 1.0, 0.5, 3.0, 1.0, 1.0, 0.7, 2.0, 0.5, 1.3],
        [0.1, 0.2, -0.15, 0.05, 0.3, 0.1, 0.0, 0.12, -0.2, -0.08, 1e-200]),
}


UNEVEN_MODELS = {
    "gauss_like_2000": REFERENCE_MODELS["gauss_like_2000"],
    "flat_band_gap_1200": lambda: oracle.discretize(
        FlatBand(level=0.15, lower=0.3, upper=2.0), _UNITS, 1200),
    # margin 1e-3 with the full tail; cut at 30, ||K|| = 900
    "near_critical_1200": lambda: oracle.discretize(
        OhmicExp(amplitude=0.4469899327725402, cutoff=5.0, omega_max=30.0), _UNITS, 1200),
}


class TestAgainstDenseEigh:
    """The secular-equation modes against scipy's dense eigh of K, the
    solver they replace.  Products, not columns, are compared, so the
    sign of each eigenvector (and the basis of a degenerate eigenspace)
    does not matter."""

    @pytest.mark.parametrize("name", list(REFERENCE_MODELS))
    def test_modes_match_dense_eigh(self, name):
        model = REFERENCE_MODELS[name]()
        decomp = oracle.normal_modes(model)
        K = model.K
        lam, vec = eigh(K)
        k_norm = lam[-1]   # ||K||_2, K positive definite
        assert np.max(np.abs(decomp.Omegas**2 - lam)) <= 1e-13 * k_norm
        assert np.max(np.abs(decomp.weights - vec[0] ** 2)) <= 1e-10
        v = decomp.eigenvectors
        assert np.max(np.abs(v.T @ v - np.eye(v.shape[0]))) <= 1e-12 * k_norm
        assert np.max(np.abs(K @ v - v * decomp.Omegas**2)) <= 1e-12 * k_norm
        assert np.array_equal(v[0], decomp.overlaps)

    def test_cases_exercise_deflation(self):
        assert np.sum(REFERENCE_MODELS["flat_band_gap"]().couplings == 0.0) > 0
        tails = REFERENCE_MODELS["gaussian_tails"]().couplings
        assert np.sum(tails == 0.0) > 0 and np.sum((tails > 0) & (tails < 1e-300)) > 0
        freqs = REFERENCE_MODELS["manual_unsorted_repeated"]().bath_freqs
        assert np.unique(freqs).size < freqs.size and np.any(np.diff(freqs) < 0)


class TestRefusal:
    def test_non_positive_margin_refused_before_any_solve(self, monkeypatch):
        def no_solve(*args):
            raise AssertionError("secular equation solved for a refused model")

        monkeypatch.setattr(oracle, "_dlasd4", no_solve)
        for coupling in (1.0, 1.01):   # margin exactly 0, then negative
            model = oracle.FiniteBathModel(1.0, [1.0], [coupling])
            with pytest.raises(PositivityError) as exc:
                oracle.normal_modes(model)
            assert exc.value.detail["discrete_margin"] == model.discrete_margin <= 0

    def test_solver_failure_names_the_root(self, monkeypatch):
        solver = oracle._dlasd4

        def failing(eq):
            root = solver(eq)

            def call(k):
                delta, sigma, work, info = root(k)
                return delta, float("nan"), work, 2 if k == 1 else info
            return call

        monkeypatch.setattr(oracle, "_dlasd4", failing)
        with pytest.raises(InternalConsistencyError, match="root 1 of 3"):
            oracle.normal_modes(oracle.FiniteBathModel(1.0, [0.5, 2.0], [0.1, 0.2]))


class TestDlasd4:
    """dlasd4 called through ctypes in numpy's OpenBLAS, against scipy's
    wrapper of the same LAPACK routine."""

    def test_ctypes_sweep_bit_identical_to_scipy(self):
        from scipy.linalg import lapack

        if oracle._bundled_dlasd4() is None:
            pytest.skip("numpy's OpenBLAS does not export scipy_dlasd4_64_")
        rng = np.random.default_rng(2000)
        d = np.concatenate([[0.0], np.sort(rng.uniform(0.01, 10.0, 2000))])
        u = rng.normal(size=d.size)
        eq = types.SimpleNamespace(d=d, u=u / np.linalg.norm(u), rho=0.37)
        root = oracle._dlasd4(eq)
        for k in range(d.size):
            delta, sigma, work, info = root(k)
            ref = lapack.dlasd4(k, eq.d, eq.u, eq.rho)
            assert info == ref[3] == 0
            assert sigma == ref[1]
            assert np.array_equal(delta, ref[0]) and np.array_equal(work, ref[2])
        with pytest.raises(InternalConsistencyError, match="one length"):
            oracle._dlasd4(types.SimpleNamespace(d=d, u=u[:-1], rho=0.37))

    def test_scipy_fallback_gives_equal_modes(self, monkeypatch):
        model = oracle.discretize(OhmicExp(amplitude=0.3, cutoff=5.0, omega_max=40.0),
                                  UnitSystem(), 300)
        fast = oracle.normal_modes(model)
        monkeypatch.setattr(oracle, "_bundled_dlasd4", lambda: None)
        slow = oracle.normal_modes(model)
        for name in ("Omegas", "overlaps", "weights", "_rank", "_origin", "_offset"):
            assert np.array_equal(getattr(fast, name), getattr(slow, name)), name


def test_weights_path_memory(ohmic_ref, units):
    """compare needs only the weights: O(N) memory, where a dense K alone
    is 8 (N+1)^2 bytes, 288 MB at N = 6000."""
    _, sol = ohmic_ref
    tracemalloc.start()
    try:
        rep = oracle.compare_with_continuum(sol, units, 6000, bath_omega_max=40.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert rep.rel_var_x < 0.005
    assert peak < 64 * 2**20


def test_evolution_path_memory(units, monkeypatch):
    """evolve_reduced holds the cosines and sines of a few boxes of
    nearby roots and the Chebyshev proxies of the others: no second
    dlasd4 sweep, no eigenvector matrix, which alone is 8 (N+1)^2 bytes,
    128 MB at N = 4000, and no N x 2T matrix of cosines and sines (26 MB
    here).  Sized as scripts/relaxation_demo.py runs by default:
    N = 4000 and 399 distinct times."""
    spec = OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0, omega_max=30.0)
    model = oracle.discretize(spec, units, 4000)
    decomp = oracle.normal_modes(model)
    times = np.linspace(0.0, 1000.0, 399)

    def no_solve(*args):
        raise AssertionError("evolve_reduced solved the secular equation")

    monkeypatch.setattr(oracle, "_dlasd4", no_solve)
    tracemalloc.start()
    try:
        traj = oracle.evolve_reduced(model, units, 1.0, 0.0, times, decomp=decomp)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert "eigenvectors" not in decomp.__dict__
    assert peak < 16 * 2**20
    assert abs(traj.var_x[0] - 0.5) <= 1e-12


def test_recurrence_skips_degenerate_modes():
    # repeated bath frequencies leave exactly degenerate normal modes,
    # which beat at no frequency
    decomp = oracle.normal_modes(REFERENCE_MODELS["manual_unsorted_repeated"]())
    spacings = np.diff(np.sort(decomp.Omegas))
    assert np.any(spacings == 0.0)
    seen = np.sort(decomp.Omegas[decomp.weights > 0.0])
    want = 2.0 * math.pi / np.diff(seen).min()
    assert oracle.recurrence_estimate(decomp) == want
    # a near-degenerate run deflates to one coupled pole and leaves its
    # other members at their own frequencies, 1 ulp apart and of weight
    # 0: the estimate is that of the exactly repeated run
    eps = np.finfo(float).eps
    near = oracle.normal_modes(oracle.FiniteBathModel(
        1.3, [1.0, 1.0 + eps, 1.0 + 2.0 * eps, 2.0], [0.2, 0.1, 0.15, 0.3]))
    assert np.diff(np.unique(near.Omegas)).min() < 2.0 * eps
    exact = oracle.normal_modes(oracle.FiniteBathModel(
        1.3, [1.0, 1.0, 1.0, 2.0], [0.2, 0.1, 0.15, 0.3]))
    assert oracle.recurrence_estimate(near) == pytest.approx(
        oracle.recurrence_estimate(exact), rel=1e-12)
    assert oracle.recurrence_estimate(near) < 100.0
    # one distinct frequency: nothing dephases
    single = oracle.normal_modes(oracle.FiniteBathModel(1.0, [1.0], [0.0]))
    assert oracle.recurrence_estimate(single) == math.inf


@pytest.fixture(scope="module")
def small_bath(units):
    spec = FlatBand(level=0.2, lower=0.1, upper=2.0)
    model = oracle.discretize(spec, units, 6)
    return model, oracle.normal_modes(model)


class TestEvolution:
    def test_ground_state_stationary(self, small_bath, units):
        model, decomp = small_bath
        gs = global_ground_state(decomp, units)
        for state in evolve(model, gs, [0.7, 3.1, 11.0], decomp=decomp):
            assert np.abs(state.covariance - gs.covariance).max() < 1e-12
            assert np.abs(state.means).max() == 0.0

    def test_displaced_mean_matches_weight_sum(self, small_bath, units):
        model, decomp = small_bath
        x0, p0 = 1.3, -0.4
        times = [0.0, 0.5, 1.7, 4.2]
        initial = product_ground_state(model, units, x0=x0, p0=p0)
        dense = evolve(model, initial, times, decomp=decomp)
        for t, state in zip(times, dense):
            k_cos = float(np.sum(decomp.weights * np.cos(decomp.Omegas * t)))
            k_sin = float(np.sum(decomp.weights * np.sin(decomp.Omegas * t) / decomp.Omegas))
            means, _ = state.reduced_oscillator(units)
            assert means[0] == pytest.approx(x0 * k_cos + p0 * k_sin, abs=1e-12)

    def test_reduced_path_matches_dense(self, small_bath, units):
        model, decomp = small_bath
        times = [0.0, 0.5, 1.7, 4.2]
        initial = product_ground_state(model, units, x0=1.3, p0=-0.4)
        dense = evolve(model, initial, times, decomp=decomp)
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
        initial = product_ground_state(model, u, x0=0.9, p0=0.3)
        dense = evolve(model, initial, [1.1], decomp=decomp)
        red = oracle.evolve_reduced(model, u, 0.9, 0.3, [1.1], decomp=decomp)
        means, cov = dense[0].reduced_oscillator(u)
        assert red.mean_x[0] == pytest.approx(means[0], rel=1e-12)
        assert red.mean_p[0] == pytest.approx(means[1], rel=1e-12)
        assert red.var_x[0] == pytest.approx(cov[0, 0], rel=1e-12)
        assert red.var_p[0] == pytest.approx(cov[1, 1], rel=1e-12)

    def test_blocked_path_matches_per_time_loop(self, units):
        # 301 times and 301 roots: full blocks and a partial one of each
        spec = OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0)
        model = oracle.discretize(spec, units, 300)
        decomp = oracle.normal_modes(model)
        times = np.linspace(0.0, 80.0, 301)
        x0, p0 = 1.0, 0.0
        red = oracle.evolve_reduced(model, units, x0, p0, times, decomp=decomp)
        ref = _per_time_reduced(model, decomp, units, x0, p0, times)
        for key, want in ref.items():
            assert np.max(np.abs(getattr(red, key) - want)) <= 1e-12, key
        # the identities the benchmark checks gate on
        assert abs(red.var_x[0] - 0.5) <= 1e-12
        kern = dynamics.kernels(decomp, times)
        assert np.max(np.abs(red.mean_x - x0 * kern.k_cos)) <= 1e-12

    def test_partial_blocks_with_deflation_match_references(self, units):
        # more times than one block holds, so the last time block is
        # partial; two loose modes and a near-degenerate run of three
        # poles, 1 ulp apart, are deflated, the run out of the last row
        # block, which stops a pole short of its box; far boxes are
        # proxied
        eps = np.finfo(float).eps
        n = 1200
        freqs = np.linspace(0.01, 3.0, n)
        freqs[1180:1183] = freqs[1180] + eps * np.arange(3)
        couplings = 0.3 * np.sqrt(freqs * 3.0 / n) * (1.0 + 0.2 * np.sin(7.0 * freqs))
        couplings[[7, 200]] = 0.0
        model = oracle.FiniteBathModel(1.0, freqs, couplings)
        decomp = oracle.normal_modes(model)
        eq = decomp._secular
        assert eq.loose.size == 2 and [m.size for m, _ in eq.runs] == [3]
        blocks, edges, lo, hi = oracle._boxes(decomp)
        assert blocks[-1] == eq.tau.size == edges[-1] - 1 and np.any(hi - lo < edges.size - 1)
        run = np.isin(eq.coupled, eq.runs[0][0])
        assert np.all(eq.pole_of[run] >= blocks[-2])
        times = np.linspace(0.0, 60.0, oracle._TIMES + 89)
        x0, p0 = 1.3, -0.4
        red = oracle.evolve_reduced(model, units, x0, p0, times, decomp=decomp)
        for ref in (_per_time_reduced(model, decomp, units, x0, p0, times),
                    _eigh_reduced(model, units, x0, p0, times)):
            for key, want in ref.items():
                assert np.max(np.abs(getattr(red, key) - want)) <= 1e-12, key

    @pytest.mark.parametrize("name", ["two_mode", "uncoupled", "flat_band_gap",
                                      "gaussian_tails", "manual_unsorted_repeated",
                                      "ohmic_300"])
    def test_reduced_path_matches_dense_eigh(self, name):
        # a reference that shares nothing with the secular equation: the
        # propagator rows from scipy's eigh of K.  eigh's eigenvalues carry
        # an absolute error of about eps ||K||, which the phases pick up
        # in proportion to t, so the ohmic bath is cut at 30 (||K|| = 900)
        # and the times stop at 30
        if name == "ohmic_300":
            u = UnitSystem(omega0=1.0, mass=2.5, hbar=0.7)
            spec = OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0, omega_max=30.0)
            model = oracle.discretize(spec, u, 300)
        else:
            u = UnitSystem()
            model = REFERENCE_MODELS[name]()
        times = np.linspace(0.0, 30.0, 61)
        x0, p0 = 1.3, -0.4
        red = oracle.evolve_reduced(model, u, x0, p0, times)
        ref = _eigh_reduced(model, u, x0, p0, times)
        for key, want in ref.items():
            assert np.max(np.abs(getattr(red, key) - want)) <= 1e-12, key

    @pytest.mark.parametrize("name", list(UNEVEN_MODELS))
    def test_uneven_root_spacing_matches_references(self, name):
        # boxes of unequal width: Gauss-Legendre roots crowd at both ends,
        # the flat band leaves no root in its gap below 0.3, and the
        # near-critical bath softens its lowest mode.  eigh's eigenvalue
        # error of about eps ||K|| reaches the phases in proportion to t
        # and, through the soft mode, to 1/Omega: eigh itself is off by
        # 3.3e-12 on gauss_like_2000 and by 1e-10 on the near-critical
        # bath, so those two are checked against the eigenvector products
        model = UNEVEN_MODELS[name]()
        decomp = oracle.normal_modes(model)
        _, edges, lo, hi = oracle._boxes(decomp)
        assert np.any(hi - lo < edges.size - 1)   # some boxes are proxied
        times = np.linspace(0.0, 30.0, 61)
        x0, p0 = 1.3, -0.4
        red = oracle.evolve_reduced(model, _UNITS, x0, p0, times, decomp=decomp)
        if name == "flat_band_gap_1200":
            ref = _eigh_reduced(model, _UNITS, x0, p0, times)
        else:
            ref = _per_time_reduced(model, decomp, _UNITS, x0, p0, times)
        for key, want in ref.items():
            assert np.max(np.abs(getattr(red, key) - want)) <= 1e-12, key

    def test_input_validation(self, small_bath, units):
        model, decomp = small_bath
        one = oracle.evolve_reduced(model, units, 1.0, 0.0, 3.0, decomp=decomp)
        assert one.times.shape == one.var_x.shape == (1,)
        # times need not ascend
        two = oracle.evolve_reduced(model, units, 1.0, 0.0, [5.0, 3.0], decomp=decomp)
        assert two.var_x[1] == pytest.approx(one.var_x[0], rel=1e-14)
        for times in (np.ones((2, 2)), [0.0, np.nan], [1.0, np.inf]):
            with pytest.raises(UsageError, match="times"):
                oracle.evolve_reduced(model, units, 1.0, 0.0, times, decomp=decomp)
        for x0, p0 in ((np.nan, 0.0), (0.0, np.inf), (True, 0.0), (1.0, "0")):
            with pytest.raises(UsageError, match="x0|p0"):
                oracle.evolve_reduced(model, units, x0, p0, [1.0], decomp=decomp)

    def test_symplectic_floor_preserved(self, small_bath, units):
        model, decomp = small_bath
        initial = product_ground_state(model, units, x0=2.0)
        nus = symplectic_eigenvalues(initial.covariance)
        assert np.all(nus >= units.hbar / 2.0 - 1e-9)
        for state in evolve(model, initial, [0.9, 2.3], decomp=decomp):
            nus = symplectic_eigenvalues(state.covariance)
            assert np.all(nus >= units.hbar / 2.0 - 1e-9)

    def test_state_validation(self, small_bath, units):
        model, _ = small_bath
        with pytest.raises(UsageError):
            GaussianEvolutionState(means=np.zeros(3), covariance=np.zeros((3, 3)))
        with pytest.raises(UsageError):
            GaussianEvolutionState(means=np.zeros(4), covariance=np.zeros((4, 2)))
        lop = np.eye(4)
        lop[0, 1] = 0.5
        with pytest.raises(UsageError):
            GaussianEvolutionState(means=np.zeros(4), covariance=lop)
        tiny = GaussianEvolutionState(means=np.zeros(4), covariance=np.eye(4))
        with pytest.raises(UsageError):
            evolve(model, tiny, [0.1])


class TestBoxes:
    """The near/far split of evolve_reduced: which boxes of roots each
    row block sums exactly, and the Chebyshev proxies of the others."""

    @staticmethod
    def _partition(model):
        decomp = oracle.normal_modes(model)
        eq = decomp._secular
        blocks, edges, lo, hi = oracle._boxes(decomp)
        om = decomp.Omegas[decomp._rank[:eq.d.size]]
        return decomp, blocks, edges, lo, hi, om

    def test_uniform_bath(self):
        model = oracle.discretize(OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0,
                                           omega_max=30.0), _UNITS, 4000)
        _, blocks, edges, lo, hi, _ = self._partition(model)
        assert np.all(hi - lo <= 4)
        assert np.all(edges[hi] - edges[lo] < 0.2 * edges[-1])
        assert np.all(np.diff(lo) >= 0) and np.all(np.diff(hi) >= 0)
        assert blocks[0] == 0 and blocks[-1] == edges[-1] - 1

    @pytest.mark.parametrize("n", [1, 40, 48 * oracle._CHEB])
    def test_small_bath_has_one_near_box(self, n):
        # up to 48 _CHEB roots, boxes would hold at most 4 _CHEB: every
        # root is summed exactly, in row blocks of 4 _CHEB poles
        spec = OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0, omega_max=30.0)
        model = oracle.discretize(spec, _UNITS, n - 1) if n > 1 else REFERENCE_MODELS["uncoupled"]()
        decomp, blocks, edges, lo, hi, _ = self._partition(model)
        assert edges.tolist() == [0, decomp._secular.d.size]
        assert np.all(lo == 0) and np.all(hi == 1)
        assert np.all(np.diff(blocks) <= 4 * oracle._CHEB)

    @pytest.mark.parametrize("name", ["uniform_2000", "gauss_like_2000"])
    def test_proxies_match_inverse_gaps(self, name):
        # every far pair: the box lies a box width or more from the row
        # block's poles, and the proxy 1/(omega_j^2 - x^2) @ Q at the
        # box's Chebyshev points x matches the exact inverse gap to
        # 1e-15 of the row's largest, and to 1e-14 of its own size
        if name == "uniform_2000":
            model = oracle.discretize(OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0,
                                               omega_max=30.0), _UNITS, 2000)
        else:
            model = REFERENCE_MODELS[name]()
        decomp, blocks, edges, lo, hi, om = self._partition(model)
        poles = decomp._secular.d[1:]
        pairs = 0
        for J in range(lo.size):
            rows = slice(blocks[J], blocks[J + 1])
            scale = np.abs(decomp._inverse_gaps(rows, slice(None))).max(axis=1, keepdims=True)
            for i in [*range(lo[J]), *range(hi[J], edges.size - 1)]:
                box = slice(edges[i], edges[i + 1])
                width = om[box.stop - 1] - om[box.start]
                assert min(abs(poles[rows.start] - om[box.stop - 1]),
                           abs(om[box.start] - poles[rows.stop - 1])) >= width
                x, q = oracle._chebyshev(om[box])
                w = poles[rows, None]
                proxy = (1.0 / ((w - x) * (w + x))) @ q
                exact = decomp._inverse_gaps(rows, box)
                assert np.all(np.abs(proxy - exact) <= 1e-15 * scale)
                assert np.all(np.abs(proxy - exact) <= 1e-14 * np.abs(exact))
                pairs += exact.size
        assert pairs > 0.7 * poles.size * om.size


def _per_time_reduced(model, decomp, units, x0, p0, times):
    """Reference for evolve_reduced: three matrix-vector products with
    the eigenvectors per time point (unit mass and hbar)."""
    assert units.mass == 1.0 and units.hbar == 1.0
    o, a, om = decomp.eigenvectors, decomp.overlaps, decomp.Omegas
    var_x0 = 1.0 / (2.0 * model.bare_freqs)
    var_p0 = model.bare_freqs / 2.0
    out = {key: np.empty(len(times))
           for key in ("mean_x", "mean_p", "var_x", "var_p", "cov_xp")}
    for i, t in enumerate(times):
        c = o @ (a * np.cos(om * t))
        s = o @ (a * np.sin(om * t) / om)
        d = o @ (a * om * np.sin(om * t))
        out["mean_x"][i] = c[0] * x0 + s[0] * p0
        out["mean_p"][i] = -d[0] * x0 + c[0] * p0
        out["var_x"][i] = np.sum(c * c * var_x0 + s * s * var_p0)
        out["var_p"][i] = np.sum(d * d * var_x0 + c * c * var_p0)
        out["cov_xp"][i] = np.sum(-c * d * var_x0 + c * s * var_p0)
    return out


def _eigh_reduced(model, units, x0, p0, times):
    """Reference for evolve_reduced from scipy's dense eigh of K: three
    matrix-vector products per time point, physical units."""
    lam, vec = eigh(model.K)
    om, a = np.sqrt(lam), vec[0]
    var_x0 = units.hbar / (2.0 * model.bare_freqs)
    var_p0 = units.hbar * model.bare_freqs / 2.0
    rm = math.sqrt(units.mass)
    out = {key: np.empty(len(times))
           for key in ("mean_x", "mean_p", "var_x", "var_p", "cov_xp")}
    for i, t in enumerate(times):
        c = vec @ (a * np.cos(om * t))
        s = vec @ (a * np.sin(om * t) / om)
        d = vec @ (a * om * np.sin(om * t))
        out["mean_x"][i] = (c[0] * x0 * rm + s[0] * p0 / rm) / rm
        out["mean_p"][i] = (-d[0] * x0 * rm + c[0] * p0 / rm) * rm
        out["var_x"][i] = np.sum(c * c * var_x0 + s * s * var_p0) / units.mass
        out["var_p"][i] = np.sum(d * d * var_x0 + c * c * var_p0) * units.mass
        out["cov_xp"][i] = np.sum(-c * d * var_x0 + c * s * var_p0)
    return out


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
        _, sol = flat_mid
        rep = oracle.compare_with_continuum(sol, units, 300, bins=40)
        mass = float(np.sum(rep.hist_density * np.diff(rep.hist_edges)))
        assert mass == pytest.approx(1.0, abs=1e-12)

    def test_comparison_report_scaled_units(self):
        # hbar/2m and hbar m/2 cancel in the relative variance errors,
        # which are those of <<1/omega>> and <<omega>> to the last bit
        units = UnitSystem(mass=2.5, hbar=0.7)
        spec = FlatBand(0.2, 0.1, 2.0)
        rep = oracle.compare_with_continuum(fano.solve(spec, units), units, 800)
        assert rep.rel_var_x == rep.rel_mean_inv_freq
        assert rep.rel_var_p == rep.rel_mean_freq
        # the physical variances against the dense covariance, mass restored
        decomp = oracle.normal_modes(oracle.discretize(spec, units, 800))
        gs = groundstate.ground_state_moments(decomp, units)
        full = full_covariance(decomp, units)
        n = decomp.Omegas.size
        assert gs.var_x == pytest.approx(full[0, 0] / units.mass, rel=1e-12)
        assert gs.var_p == pytest.approx(full[n, n] * units.mass, rel=1e-12)
