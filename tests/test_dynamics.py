"""Kernel dynamics: closed forms, consistency relations, damping
classification, and relaxation reporting."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import simpson
from scipy.optimize import brentq

from dosc import dynamics, fano, oracle
from dosc.errors import AliasingError, UsageError
from dosc.spectra import OhmicExp, UnitSystem

A = math.sqrt(1.5)
B = math.sqrt(0.5)


@pytest.fixture(scope="module")
def two_mode_decomp():
    model = oracle.FiniteBathModel(omega0=1.0, bath_freqs=[1.0], couplings=[0.5])
    return oracle.normal_modes(model)


@pytest.fixture(scope="module")
def near_margin50(units):
    # kappa^2 Lambda / omega0 = 0.999, refined for a 50/omega0 horizon
    spec = OhmicExp(amplitude=math.sqrt(0.999 / 5.0), cutoff=5.0)
    return fano.refine_for_times(fano.solve(spec, units), 50.0)


def full_window_scan(kern, scan_window, resolution=1e-3):
    """classify_damping's first stationary time from one k_sin_times
    evaluation over the whole scan window, then the same bracket and
    brentq step; None when the kernel never reaches below the floor."""
    source = kern.source
    step = dynamics._SCAN_STEP_FACTOR / kern.omega0
    ts = np.linspace(step, scan_window, int(math.ceil(scan_window / step)) + 1)
    vals = dynamics._k_sin_times(source, ts)
    below = np.flatnonzero(vals < -resolution * kern.omega0**2)
    if not below.size:
        return None
    j = int(below[0])
    start = np.flatnonzero(vals[:j] >= 0.0)
    if not start.size:
        return float(ts[j])
    i = int(start[-1])
    return float(brentq(lambda t: dynamics._k_sin_times(source, np.array([t]))[0],
                        ts[i], ts[j], xtol=1e-12, rtol=1e-14))


@pytest.fixture(scope="module")
def ref8(ohmic_ref):
    # reference solution refined for an 8/omega0 horizon
    _, sol = ohmic_ref
    return fano.refine_for_times(sol, 8.0)


class TestKernels:
    def test_time_zero(self, ohmic_ref):
        _, sol = ohmic_ref
        k = dynamics.kernels(sol, [0.0])
        assert k.k_cos[0] == pytest.approx(1.0, abs=1e-6)
        assert k.k_sin_over[0] == 0.0
        assert k.k_sin_times[0] == 0.0

    def test_two_mode_closed_forms(self, two_mode_decomp):
        ts = np.array([0.0, 0.3, 1.0, 2.7, 6.4])
        k = dynamics.kernels(two_mode_decomp, ts)
        for i, t in enumerate(ts):
            assert k.k_cos[i] == pytest.approx(
                0.5 * (math.cos(A * t) + math.cos(B * t)), abs=1e-14)
            assert k.k_sin_over[i] == pytest.approx(
                0.5 * (math.sin(A * t) / A + math.sin(B * t) / B), abs=1e-14)
            assert k.k_sin_times[i] == pytest.approx(
                0.5 * (A * math.sin(A * t) + B * math.sin(B * t)), abs=1e-14)

    def test_bounds(self, ref8, ohmic_ref):
        _, sol = ohmic_ref
        minv = fano.frequency_moment(sol, -1)
        k = dynamics.kernels(ref8, np.linspace(0.0, 8.0, 1500))
        assert np.abs(k.k_cos).max() <= 1.0 + 1e-9
        assert np.abs(k.k_sin_over).max() <= minv * (1.0 + 1e-6)

    def test_matches_simpson_reference(self, ref8):
        # the blocked weights @ cos/sin(t nodes) sums against scipy's
        # Simpson rule over the same grid
        w, pi = ref8.omegas, ref8.pi
        ts = np.linspace(0.0, 8.0, 150)
        k = dynamics.kernels(ref8, ts)
        for i, t in enumerate(ts):
            ref = (simpson(pi * np.cos(t * w), x=w),
                   simpson(np.sin(t * w) * (pi / w), x=w),
                   simpson(np.sin(t * w) * (pi * w), x=w))
            got = (k.k_cos[i], k.k_sin_over[i], k.k_sin_times[i])
            assert np.allclose(got, ref, rtol=0, atol=1e-12)

    def test_derivative_consistency(self, ref8):
        ts = np.arange(0.0, 8.0, 2e-3)
        k = dynamics.kernels(ref8, ts)
        dt = np.diff(ts)
        d_sin_over = np.diff(k.k_sin_over) / dt
        mid_cos = 0.5 * (k.k_cos[1:] + k.k_cos[:-1])
        assert np.abs(d_sin_over - mid_cos).max() < 1e-5
        d_cos = np.diff(k.k_cos) / dt
        mid_sin_times = 0.5 * (k.k_sin_times[1:] + k.k_sin_times[:-1])
        assert np.abs(d_cos + mid_sin_times).max() < 1e-5

    def test_alias_bound_enforced(self, ohmic_ref):
        _, sol = ohmic_ref
        with pytest.raises(AliasingError):
            dynamics.kernels(sol, [0.0, 25.0])

    def test_validation(self, two_mode_decomp):
        with pytest.raises(UsageError):
            dynamics.kernels(two_mode_decomp, [])
        with pytest.raises(UsageError):
            dynamics.kernels(two_mode_decomp, [0.3, 0.1])
        with pytest.raises(UsageError):
            dynamics.kernels(two_mode_decomp, [-0.5, 0.1])

    @given(st.lists(st.floats(0.0, 60.0), min_size=1, max_size=12))
    def test_cos_kernel_bounded(self, two_mode_decomp, raw_times):
        k = dynamics.kernels(two_mode_decomp, sorted(raw_times))
        assert np.abs(k.k_cos).max() <= 1.0 + 1e-12

    def test_csv(self, two_mode_decomp, tmp_path):
        k = dynamics.kernels(two_mode_decomp, [0.0, 0.7, 1.9])
        out = tmp_path / "kernels.csv"
        k.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,k_cos,k_sin_over,k_sin_times"
        back = np.loadtxt(out, delimiter=",", skiprows=1)
        assert np.array_equal(back[:, 1], k.k_cos)


class TestTrajectory:
    def test_at_rest(self, two_mode_decomp, units):
        k = dynamics.kernels(two_mode_decomp, [0.0, 1.0, 2.0])
        traj = dynamics.mean_trajectory(k, 0.0, 0.0, units)
        assert np.all(traj.x == 0.0) and np.all(traj.p == 0.0)

    def test_pure_displacement(self, two_mode_decomp, units):
        k = dynamics.kernels(two_mode_decomp, [0.4, 1.3])
        traj = dynamics.mean_trajectory(k, 1.0, 0.0, units)
        assert np.array_equal(traj.x, k.k_cos)
        assert np.array_equal(traj.p, -units.mass * k.k_sin_times)

    def test_two_mode_value(self, two_mode_decomp, units):
        t = math.pi / A
        k = dynamics.kernels(two_mode_decomp, [t])
        traj = dynamics.mean_trajectory(k, 1.0, 0.0, units)
        assert traj.x[0] == pytest.approx(0.5 * (-1.0 + math.cos(B * t)), abs=1e-14)

    def test_first_order_rates(self, two_mode_decomp):
        u = UnitSystem(omega0=1.0, mass=1.7, hbar=1.0)
        dt = 1e-4
        k = dynamics.kernels(two_mode_decomp, [dt])
        x0, p0 = 0.8, -0.6
        traj = dynamics.mean_trajectory(k, x0, p0, u)
        # finite-dt corrections enter at O(dt) through the k_cos factor
        assert (traj.x[0] - x0) / dt == pytest.approx(p0 / u.mass, rel=1e-3)
        assert (traj.p[0] - p0) / dt == pytest.approx(
            -u.mass * u.omega0**2 * x0, rel=1e-3)

    def test_csv(self, two_mode_decomp, units, tmp_path):
        k = dynamics.kernels(two_mode_decomp, [0.0, 0.7])
        traj = dynamics.mean_trajectory(k, 1.0, 0.5, units)
        out = tmp_path / "traj.csv"
        traj.to_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "t,x,p"
        assert len(lines) == 3


class _DegenerateDensity:
    """A (nodes, weights) measure concentrated within 1e-7 of omega0:
    fourth-moment excess far below the short-time fit's resolution."""

    def __init__(self):
        self.nodes = np.linspace(1.0 - 8e-7, 1.0 + 8e-7, 401)
        g = np.exp(-0.5 * ((self.nodes - 1.0) / 1e-7) ** 2)
        self.weights = g / g.sum()


class TestShortTime:
    def test_reference_exponent_and_coefficient(self, ohmic_ref, units):
        _, sol = ohmic_ref
        rep = dynamics.short_time_check(sol, units)
        assert not rep.skipped
        assert rep.exponent == pytest.approx(3.0, abs=0.1)
        assert rep.coefficient_rel_error < 0.05
        m4 = fano.frequency_moment(sol, 4)
        assert rep.predicted_coefficient == pytest.approx(-(m4 - 1.0) / 6.0, rel=1e-12)

    def test_degenerate_density_skipped(self, units):
        rep = dynamics.short_time_check(_DegenerateDensity(), units)
        assert rep.skipped
        assert "resolution" in rep.note


class TestDamping:
    def test_scan_kernel_matches_evaluate(self, ref8, two_mode_decomp):
        # the damping scan computes k_sin_times alone
        ts = np.linspace(0.01, 8.0, 300)
        for source in (ref8, two_mode_decomp):
            full = dynamics._evaluate(source, ts)[2]
            assert np.allclose(dynamics._k_sin_times(source, ts), full,
                               rtol=0, atol=1e-13)

    def test_weak_coupling_near_bare_half_period(self, ohmic_weak, units):
        _, sol = ohmic_weak
        sol8 = fano.refine_for_times(sol, 8.0)
        k = dynamics.kernels(sol8, np.linspace(0.0, 8.0, 30))
        cls = dynamics.classify_damping(k, 8.0)
        assert cls.damping_class == "underdamped"
        assert abs(cls.first_stationary_time - math.pi / units.omega0) < 0.15

    def test_two_mode_underdamped(self, two_mode_decomp):
        k = dynamics.kernels(two_mode_decomp, np.linspace(0.0, 12.0, 40))
        cls = dynamics.classify_damping(k)
        assert cls.damping_class == "underdamped"
        assert cls.first_stationary_time is not None
        assert 2.0 < cls.first_stationary_time < 4.0
        # the located time is a resolved zero of k_sin_times
        v = dynamics.kernels(two_mode_decomp, [cls.first_stationary_time])
        assert abs(v.k_sin_times[0]) < 1e-10

    def test_near_margin_non_oscillatory(self, near_margin50):
        k = dynamics.kernels(near_margin50, np.linspace(0.0, 50.0, 60))
        cls = dynamics.classify_damping(k, 50.0)
        assert cls.damping_class == "non_oscillatory"
        assert cls.first_stationary_time is None
        assert cls.scan_window == 50.0


    @pytest.mark.parametrize("case", ["ref8", "two_mode", "near_margin50"])
    def test_block_scan_matches_full_window_scan(self, case, request, monkeypatch):
        source, window = {"ref8": ("ref8", 8.0), "two_mode": ("two_mode_decomp", 12.0),
                          "near_margin50": ("near_margin50", 25.0)}[case]
        source = request.getfixturevalue(source)
        k = dynamics.kernels(source, np.linspace(0.0, window, 30))
        expected = full_window_scan(k, window)
        scanned = []
        kernel = dynamics._k_sin_times

        def counting(src, ts):
            scanned.append(ts.size)
            return kernel(src, ts)

        monkeypatch.setattr(dynamics, "_k_sin_times", counting)
        cls = dynamics.classify_damping(k, window)
        # bit for bit the whole-window result
        assert cls.first_stationary_time == expected
        n_scan = int(math.ceil(window / (dynamics._SCAN_STEP_FACTOR / k.omega0))) + 1
        assert all(size <= dynamics._BLOCK for size in scanned)
        if expected is None:
            assert sum(scanned) == n_scan
        else:
            # the scan stopped after the block of the first crossing
            assert sum(s for s in scanned if s > 1) < n_scan


class TestRelaxation:
    def test_strong_reference_relaxes(self, ohmic_strong):
        spec, sol = ohmic_strong
        sol_t = fano.refine_for_times(sol, 420.0, mass_tol=1e-4)
        ts = np.concatenate([[0.0], np.geomspace(0.5, 420.0, 120)])
        k = dynamics.kernels(sol_t, ts, alias_mass_tol=1e-4)
        rep = dynamics.relaxation_check(k)
        assert rep.relaxed
        assert max(rep.max_k_cos, rep.max_k_sin_over_scaled,
                   rep.max_k_sin_times_scaled) <= rep.threshold
        assert rep.window == (42.0, 420.0)

    def test_two_mode_never_relaxes(self, two_mode_decomp):
        k = dynamics.kernels(two_mode_decomp, np.linspace(0.0, 200.0, 400))
        rep = dynamics.relaxation_check(k)
        assert not rep.relaxed
        assert rep.max_k_cos > 0.9
