"""Finite-bath oracle: exact sum rules, the two-mode reference, the
secular-equation modes against a dense eigensolver, and agreement
between the dense and reduced evolution paths."""

import functools
import math
import tracemalloc

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


def _cluster_gap_geometric_model():
    # 300 poles within 1e-4, a gap from 1 to 3 that holds omega0, then
    # 400 poles in geometric progression, shuffled: the box of roots that
    # spans the gap is as wide as the gap, so boxes of poles next to it
    # in index lie far closer to it than its width
    freqs = np.concatenate([1.0 + 1e-4 * np.linspace(0.0, 1.0, 300),
                            3.0 * 1.004 ** np.arange(400)])
    couplings = np.concatenate([0.02 * np.sqrt(np.linspace(1.0, 2.0, 300)), np.full(400, 0.06)])
    order = np.random.default_rng(700).permutation(freqs.size)
    return oracle.FiniteBathModel(2.0, freqs[order], couplings[order])


_UNITS = UnitSystem()

def _once(builders):
    # each model is built once per session: gauss_like_2000 alone spends
    # about 0.7 s in leggauss
    return {name: functools.cache(build) for name, build in builders.items()}


REFERENCE_MODELS = _once({
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
    "cluster_gap_geometric": _cluster_gap_geometric_model,
})


UNEVEN_MODELS = {
    "gauss_like_2000": REFERENCE_MODELS["gauss_like_2000"],
    **_once({
        "flat_band_gap_1200": lambda: oracle.discretize(
            FlatBand(level=0.15, lower=0.3, upper=2.0), _UNITS, 1200),
        # margin 1e-3 with the full tail; cut at 30, ||K|| = 900
        "near_critical_1200": lambda: oracle.discretize(
            OhmicExp(amplitude=0.4469899327725402, cutoff=5.0, omega_max=30.0), _UNITS, 1200),
    }),
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

        monkeypatch.setattr(oracle, "_solve_secular", no_solve)
        for coupling in (1.0, 1.01):   # margin exactly 0, then negative
            model = oracle.FiniteBathModel(1.0, [1.0], [coupling])
            with pytest.raises(PositivityError) as exc:
                oracle.normal_modes(model)
            assert exc.value.detail["discrete_margin"] == model.discrete_margin <= 0

    def test_solver_failure_names_the_root(self, monkeypatch):
        # with the iteration cap forced down, the first root still short
        # of convergence is named; roots 0 and 2 converge in two steps
        model = oracle.FiniteBathModel(1.0, [0.5, 2.0], [0.1, 0.2])
        monkeypatch.setattr(oracle, "_MAX_ITER", 2)
        with pytest.raises(InternalConsistencyError, match="root 1 of 3 within 2 iterations"):
            oracle.normal_modes(model)
        monkeypatch.setattr(oracle, "_MAX_ITER", 0)
        with pytest.raises(InternalConsistencyError, match="root 0 of 3 within 0 iterations"):
            oracle.normal_modes(model)


def _tight_cluster_model():
    # 200 poles within 1e-6 of 1, then 300 geometric ones up to 100: a
    # leaf's far poles lie within 1e-8 of its roots, where sigma itself
    # carries 2e-16, so only offsets from a pole resolve their far field
    freqs = np.concatenate([1.0 + 1e-6 * np.linspace(0.0, 1.0, 200), np.geomspace(1.1, 100.0, 300)])
    couplings = 0.3 * np.sqrt(freqs / freqs.size) * (1.0 + 0.5 * np.sin(np.arange(freqs.size)))
    return oracle.FiniteBathModel(2.0, freqs, couplings)


def _four_clusters_model():
    # four clusters of 400 poles, each 2e-11 wide: the box that spans
    # the gap below a cluster holds poles a few ulps from the boxes above
    # them, whose gaps only their own positions resolve
    rng = np.random.default_rng(7)
    freqs = np.concatenate([c + 2e-11 * rng.random(400) for c in (0.6, 1.8, 4.0, 7.6)])
    couplings = np.sqrt(0.5 * freqs / freqs.size) * rng.random(freqs.size)
    return oracle.FiniteBathModel(1.0, freqs, couplings)


def _log_uniform_model(n=600):
    # n poles spread log-uniformly over 12 decades: near 0 a box's
    # poles merge with their mirrors at -d_j into a pole of high order
    freqs = np.sort(10.0 ** np.random.default_rng(12).uniform(-6.0, 6.0, n))
    return oracle.FiniteBathModel(1.0, freqs, np.sqrt(0.5 * freqs / freqs.size))


# the benchmark's compare models at seed 4242
_BENCH_OHMIC = OhmicExp(amplitude=0.24351934155451996, cutoff=5.09929232139037, omega_max=40.0)
_BENCH_FLAT = FlatBand(level=0.2162745958383959, lower=0.09909752343003705, upper=2.0289937674546366)


def _long_double_roots(eq, origin, offset):
    """Reference offsets and weights of the secular equation ``eq`` in
    np.longdouble: Newton steps on f from the given offsets, each root
    measured from the given pole, gaps in the Gu-Eisenstat form."""
    L = np.longdouble
    d, u = eq.d.astype(L), eq.u.astype(L)
    wt, tau2 = L(eq.rho) * u * u, eq.tau.astype(L) ** 2
    eta, weight = offset.astype(L), np.empty(d.size, dtype=L)
    for lo in range(0, d.size, 128):
        r = slice(lo, lo + 128)
        do = d[origin[r], None]
        for _ in range(2):
            gap = ((d - do) - eta[r, None]) * ((d + do) + eta[r, None])
            t = wt / gap
            eta[r] -= (1 + t.sum(axis=1)) / (2 * (do[:, 0] + eta[r]) * (t / gap).sum(axis=1))
        gap = ((d[1:] - do) - eta[r, None]) * ((d[1:] + do) + eta[r, None])
        weight[r] = 1 / (1 + (tau2 / gap**2).sum(axis=1))
    return eta, weight


def _dlasd4_roots(eq):
    """Origins, offsets and weights from scipy's LAPACK dlasd4, root by
    root: the pole nearer the root is its origin."""
    from scipy.linalg import lapack

    n = eq.d.size
    origin, offset, weight = np.empty(n, dtype=int), np.empty(n), np.empty(n)
    for k in range(n):
        delta, _, work, info = lapack.dlasd4(k, eq.d, eq.u, eq.rho)
        assert info == 0
        origin[k] = k if k + 1 == n or abs(delta[k]) <= abs(delta[k + 1]) else k + 1
        offset[k] = -delta[origin[k]]
        ratio = eq.tau / (delta[1:] * work[1:])
        weight[k] = 1.0 / (1.0 + ratio @ ratio)
    return origin, offset, weight


class TestSecularSolver:
    """The vectorised secular solver against a long-double reference
    and against LAPACK's dlasd4 on the same double inputs."""

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is double here")
    @pytest.mark.parametrize("model", [
        lambda: oracle.discretize(_BENCH_OHMIC, _UNITS, 2000),
        lambda: oracle.discretize(_BENCH_OHMIC, _UNITS, 4000),
        lambda: oracle.discretize(_BENCH_FLAT, _UNITS, 2000),
        _tight_cluster_model,
    ], ids=["ohmic_2000", "ohmic_4000", "flat_2000", "tight_cluster"])
    def test_no_less_accurate_than_dlasd4(self, model):
        decomp = oracle.normal_modes(model())
        eq = decomp._secular
        weights = decomp.weights[decomp._rank[:eq.d.size]]
        origin, offset, weight = _dlasd4_roots(eq)
        assert np.array_equal(origin, decomp._origin)
        ref_offset, ref_weight = _long_double_roots(eq, origin, offset)
        ulp = np.spacing(np.abs(ref_offset).astype(float))

        def errors(offs, wts):
            return (float(np.max(np.abs(offs - ref_offset) / ulp)),
                    float(np.max(np.abs(wts - ref_weight) / ref_weight)))

        new, lapack = errors(decomp._offset, weights), errors(offset, weight)
        assert new[0] <= lapack[0] and new[1] <= lapack[1], (new, lapack)
        assert new[1] <= 1e-13

    def test_layout_needs_sigma_separation(self):
        # in cluster_gap_geometric some leaf sums poles exactly beyond
        # its neighbours in index: a separation counted in boxes alone
        # would interpolate poles lying inside the gap's box width
        eq = oracle._secular_equation(REFERENCE_MODELS["cluster_gap_geometric"]())
        d = np.append(eq.d, 2.0 * eq.d[-1])
        edges, near, *_ = oracle._far_field(d, np.append(eq.rho * eq.u**2, 0.0))
        leaf = np.diff(edges).max()
        assert edges.size > 9 and np.max(near[:, 1] - near[:, 0]) > 4 * leaf

    def test_chebyshev_at_its_own_points(self):
        # a point that falls exactly on a Chebyshev point takes that
        # point's value: a child box far narrower than its parent can put
        # one of its points there, as can a root's offset
        c = oracle._points(0.0, 8.0)
        x = np.array([c[3], 0.37, c[-1]])
        q = oracle._lagrange(x, c)
        assert np.array_equal(q[0], np.eye(oracle._CHEB)[3])
        assert np.array_equal(q[2], np.eye(oracle._CHEB)[-1])
        assert q[1] @ (c**5) == pytest.approx(0.37**5, rel=1e-13)

    def test_roots_wider_than_a_chunk(self, monkeypatch):
        # a chunk of the sums holds at least one root, however wide its
        # row: here root 0 and the top root sum all 701 poles, and every
        # sweep, translation and interpolation runs in small chunks
        model = oracle.discretize(_BENCH_OHMIC, _UNITS, 700)
        whole = oracle.normal_modes(model)
        monkeypatch.setattr(oracle, "_BLOCK", 200)
        split = oracle.normal_modes(model)
        assert np.array_equal(split._origin, whole._origin)
        assert np.max(np.abs(split._offset - whole._offset) / np.abs(whole._offset)) <= 1e-14
        assert np.max(np.abs(split.weights - whole.weights) / whole.weights) <= 1e-14

    def test_one_leaf_below_the_tree(self):
        # up to _ONE_LEAF poles the tree has one leaf and every sum is
        # exact; one more pole splits it into leaves of at most _LEAF
        for N in (oracle._ONE_LEAF - 1, oracle._ONE_LEAF):
            eq = oracle._secular_equation(oracle.discretize(_BENCH_OHMIC, _UNITS, N))
            assert eq.d.size == N + 1
            edges, near, _, _, far = oracle._far_field(np.append(eq.d, 99.0),
                                                       np.append(eq.rho * eq.u**2, 0.0))
            if N < oracle._ONE_LEAF:
                assert edges.tolist() == [0, N + 1] and near.tolist() == [[0, N + 1]]
                assert not far.any()
            else:
                assert edges.size > 2 and np.diff(edges).max() <= oracle._LEAF
                assert far.any() and np.all(near[:, 1] - near[:, 0] < N + 1)

    @pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                        reason="np.longdouble is double here")
    @pytest.mark.parametrize("model", [
        lambda: oracle.discretize(_BENCH_OHMIC, _UNITS, 4000),
        lambda: oracle.discretize(_BENCH_FLAT, _UNITS, 2000),
        _tight_cluster_model,
        REFERENCE_MODELS["cluster_gap_geometric"],
        _log_uniform_model,
        _four_clusters_model,
    ], ids=["ohmic_4000", "flat_2000", "tight_cluster", "cluster_gap_geometric", "log_uniform",
            "four_clusters"])
    def test_far_field_matches_direct_sums(self, model):
        # at every leaf's Chebyshev points, psi, psi', phi and phi' from
        # the tree against long-double sums over the leaf's far poles,
        # those below its near range but pole 0 and those above it, to
        # 1e-14 of the sum of the terms' magnitudes
        eq = oracle._secular_equation(model())
        d = np.append(eq.d, 2.0 * eq.d[-1] + 1.0)
        wt = np.append(eq.rho * eq.u**2, 0.0)
        _, near, anchors, points, far = oracle._far_field(d, wt)
        assert anchors.size >= 64
        L = np.longdouble
        poles, weights = d[:-1].astype(L)[:, None], wt[:-1].astype(L)[:, None]
        for i, (lo, hi) in enumerate(near):
            a, c = L(anchors[i]), points[:, i].astype(L)
            gap = ((poles - a) - c) * ((poles + a) + c)
            terms = weights / gap
            below, above = slice(1, lo), slice(hi, None)
            for v, (rows, t) in enumerate([(below, terms), (below, terms / gap),
                                           (above, terms), (above, terms / gap)]):
                err = np.abs(far[v, :, i] - t[rows].sum(axis=0))
                assert np.all(err <= 1e-14 * np.abs(t[rows]).sum(axis=0)), (i, v)


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


def test_secular_solver_memory(units):
    """normal_modes alone at N = 4000 holds O(N) arrays and blocks of at
    most _BLOCK entries of its sums: a 2 MB peak."""
    model = oracle.discretize(_BENCH_OHMIC, units, 4000)
    tracemalloc.start()
    try:
        oracle.normal_modes(model)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_evolution_path_memory(units, monkeypatch):
    """evolve_reduced holds the cosines and sines of every root for one
    block of times, about 4 MB, and the boxes' multipoles: no second
    secular solve, no eigenvector matrix, which alone is 8 (N+1)^2 bytes,
    128 MB at N = 4000, and no N x 2T matrix of cosines and sines for all
    the times (26 MB here).  Sized as scripts/relaxation_demo.py runs by
    default: N = 4000 and 399 distinct times."""
    spec = OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0, omega_max=30.0)
    model = oracle.discretize(spec, units, 4000)
    decomp = oracle.normal_modes(model)
    times = np.linspace(0.0, 1000.0, 399)

    def no_solve(*args):
        raise AssertionError("evolve_reduced solved the secular equation")

    monkeypatch.setattr(oracle, "_solve_secular", no_solve)
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
        # block, which stops a pole short of its box; some pairs of row
        # blocks and boxes are far
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
        times = np.linspace(0.0, 60.0, oracle._time_block(decomp._secular.d.size) + 89)
        x0, p0 = 1.3, -0.4
        red = oracle.evolve_reduced(model, units, x0, p0, times, decomp=decomp)
        for ref in (_per_time_reduced(model, decomp, units, x0, p0, times),
                    _eigh_reduced(model, units, x0, p0, times)):
            for key, want in ref.items():
                assert np.max(np.abs(getattr(red, key) - want)) <= 1e-12, key

    def test_each_cosine_and_sine_taken_once(self, monkeypatch):
        # every kept root's cosine and sine at every time, evaluated once
        # for the near products and the far boxes' multipoles alike, over
        # two blocks of times
        model = UNEVEN_MODELS["flat_band_gap_1200"]()
        decomp = oracle.normal_modes(model)
        _, edges, lo, hi = oracle._boxes(decomp)
        assert np.any(hi - lo < edges.size - 1)
        times = np.linspace(0.0, 30.0, oracle._time_block(decomp._secular.d.size) + 7)
        counts = {"sin": 0, "cos": 0}
        for name, f in [("sin", np.sin), ("cos", np.cos)]:
            def spy(x, *args, f=f, name=name, **kwargs):
                counts[name] += np.size(x)
                return f(x, *args, **kwargs)
            monkeypatch.setattr(np, name, spy)
        oracle.evolve_reduced(model, _UNITS, 1.3, -0.4, times, decomp=decomp)
        want = decomp._secular.d.size * times.size
        assert counts == {"sin": want, "cos": want}

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

    @pytest.mark.parametrize("width", [1e-6, 1e-9])
    def test_clustered_bath_with_proxies_matches_per_time_loop(self, width):
        # 700 poles within `width` of 1, then 700 geometric poles up to
        # 100: 25 boxes of roots, some of them far from some row blocks
        # and summed through Chebyshev points on both sides, whose
        # points and Lagrange polynomials come from the secular solver's
        # _points and _lagrange
        freqs = np.concatenate([1.0 + width * np.linspace(0.0, 1.0, 700),
                                np.geomspace(1.1, 100.0, 700)])
        couplings = 0.3 * np.sqrt(freqs / freqs.size) * (1.0 + 0.5 * np.sin(np.arange(freqs.size)))
        model = oracle.FiniteBathModel(2.0, freqs, couplings)
        decomp = oracle.normal_modes(model)
        _, edges, lo, hi = oracle._boxes(decomp)
        assert edges.size == 26 and np.any(hi - lo < edges.size - 1)
        times = np.linspace(0.0, 30.0, 61)
        red = oracle.evolve_reduced(model, _UNITS, 1.3, -0.4, times, decomp=decomp)
        ref = _per_time_reduced(model, decomp, _UNITS, 1.3, -0.4, times)
        for key, want in ref.items():
            assert np.max(np.abs(getattr(red, key) - want)) <= 1e-12, key

    @pytest.mark.parametrize("n", [600, 2400])
    def test_log_uniform_bath_matches_per_time_loop(self, n):
        # ||K|| is about 1e12: the oscillator's velocity row is the mode
        # sum, since row 0 of K s put mean_p 2e-6 (600) and 4e-6 (1200)
        # off.  Boxes of roots that span a factor above 2 are never both
        # widths from a row block: at 2400 poles a few are
        model = _log_uniform_model(n)
        decomp = oracle.normal_modes(model)
        _, edges, lo, hi = oracle._boxes(decomp)
        assert np.any(hi - lo < edges.size - 1) == (n == 2400)
        times = np.linspace(0.0, 30.0, 61)
        red = oracle.evolve_reduced(model, _UNITS, 1.3, -0.4, times, decomp=decomp)
        ref = _per_time_reduced(model, decomp, _UNITS, 1.3, -0.4, times)
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
    row block sums exactly, and the Chebyshev points on both sides that
    carry the others."""

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
        assert np.all(edges[hi] - edges[lo] < 0.1 * edges[-1])
        assert np.all(np.diff(lo) >= 0) and np.all(np.diff(hi) >= 0)
        assert blocks[0] == 0 and blocks[-1] == edges[-1] - 1

    @pytest.mark.parametrize("n", [1, 40, 45])
    def test_small_bath_has_one_near_box(self, n):
        # up to 45 roots there are one or two boxes, never both widths
        # from a row block: each block's one near hull holds every root,
        # summed exactly
        spec = OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0, omega_max=30.0)
        model = oracle.discretize(spec, _UNITS, n - 1) if n > 1 else REFERENCE_MODELS["uncoupled"]()
        decomp, blocks, edges, lo, hi, _ = self._partition(model)
        assert edges.size <= 3 and blocks[-1] == decomp._secular.tau.size
        assert np.all(lo == 0) and np.all(hi == edges.size - 1)

    @pytest.mark.parametrize("name", ["uniform_2000", "uniform_4000", *UNEVEN_MODELS])
    def test_proxies_match_inverse_gaps(self, name):
        # every far pair: the box and the row block's poles lie at least
        # both widths apart, and the inverse gap 1/(y^2 - x^2) between the
        # block's Chebyshev points y and the box's x, interpolated to the
        # poles and the roots, matches the exact inverse gap to 1e-15 of
        # the row's largest, and to 1e-14 of its own size
        if name.startswith("uniform"):
            model = oracle.discretize(OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0,
                                               omega_max=30.0), _UNITS, int(name[8:]))
        else:
            model = UNEVEN_MODELS[name]()
        decomp, blocks, edges, lo, hi, om = self._partition(model)
        poles = decomp._secular.d[1:]
        pairs = 0
        for J in range(lo.size):
            rows = slice(blocks[J], blocks[J + 1])
            y = oracle._points(poles[rows.start], poles[rows.stop - 1])
            to_poles = oracle._lagrange(poles[rows], y)
            scale = np.abs(decomp._inverse_gaps(rows, slice(None))).max(axis=1, keepdims=True)
            for i in [*range(lo[J]), *range(hi[J], edges.size - 1)]:
                box = slice(edges[i], edges[i + 1])
                width = max(om[box.stop - 1] - om[box.start], poles[rows.stop - 1] - poles[rows.start])
                assert max(poles[rows.start] - om[box.stop - 1],
                           om[box.start] - poles[rows.stop - 1]) >= width
                x = oracle._points(om[box.start], om[box.stop - 1])
                proxy = to_poles @ (1.0 / ((y[:, None] - x) * (y[:, None] + x))) \
                    @ oracle._lagrange(om[box], x).T
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

    def test_histogram_bins_sum_their_own_weights(self, ohmic_ref, units):
        # the top bins hold about 1e-14 of the mass next to bins of order
        # 1: each matches the exact sum of the weights it holds
        spec, sol = ohmic_ref
        rep = oracle.compare_with_continuum(sol, units, 800)
        mass = rep.hist_density * np.diff(rep.hist_edges)
        decomp = oracle.normal_modes(oracle.discretize(spec, units, 800))
        at = np.searchsorted(rep.hist_edges, decomp.Omegas, side="right") - 1
        assert mass.max() > 0.5 and 1e-15 < mass[-1] < 1e-13
        for b in np.flatnonzero(mass < 1e-13):
            exact = math.fsum(decomp.weights[at == b])
            held = rep.hist_density[b] * (rep.hist_edges[b + 1] - rep.hist_edges[b])
            assert abs(held - exact) <= 1e-15 * exact

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
