"""Kernel dynamics: closed forms, consistency relations, damping
classification, and relaxation."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, strategies as st

from dosc import dynamics, fano, oracle
from dosc.errors import UsageError
from dosc.spectra import OhmicExp, UnitSystem
from short_time import short_time_check

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


def full_window_scan(kern, resolution=dynamics.DAMPING_FLOOR):
    """classify_damping's first stationary time from one direct
    k_sin_times evaluation over the whole scan window, (0, t_max] of the
    kernels' times, then the same bracket and the same root step,
    fano.bracketed_newton on direct sums of k_sin_times and its time
    derivative; None when the kernel never reaches below the floor."""
    source = kern.source
    w, wt = source.nodes, source.weights * source.nodes
    step, window = dynamics._SCAN_STEP_FACTOR / kern.source.omega0, kern.times[-1]
    ts = np.linspace(step, window, int(math.ceil(window / step)) + 1)
    vals = dynamics._direct_sums(source, ts, sin=[wt])[0]
    below = np.flatnonzero(vals < -resolution * kern.source.omega0**2)
    if not below.size:
        return None
    j = int(below[0])
    start = np.flatnonzero(vals[:j] >= 0.0)
    if not start.size:
        return float(ts[j])
    i = int(start[-1])

    def value_and_slope(t):
        return dynamics._direct_sums(source, t, cos=[wt * w], sin=[wt])[::-1]

    # signed by the scan: vals[j] < 0 <= vals[i]
    return float(fano.bracketed_newton(value_and_slope, ts[j], ts[i],
                                       xtol=1e-12, rtol=1e-14)[0])


# damping scans compared with full_window_scan: case -> (fixture, window)
SCAN_CASES = {"ref8": ("ref8", 8.0), "two_mode": ("two_mode_decomp", 12.0),
              "near_margin50": ("near_margin50", 25.0)}


def fourier_calls(monkeypatch):
    """Record the strength rows and the size T of every _fourier_sums call."""
    calls = []
    fourier = dynamics._fourier_sums

    def spy(nodes, strengths, t0, dt, T):
        calls.append((len(strengths), T))
        return fourier(nodes, strengths, t0, dt, T)

    monkeypatch.setattr(dynamics, "_fourier_sums", spy)
    return calls


@pytest.fixture(scope="module")
def ohmic_n2000(units):
    spec = OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0)
    return oracle.normal_modes(oracle.discretize(spec, units, 2000))


@pytest.fixture(scope="module")
def flat20(flat_mid):
    # configs/flat_band.json's density refined for its 20/omega0 horizon
    _, sol = flat_mid
    return fano.refine_for_times(sol, 20.0)


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

    def test_matches_panel_rule_reference(self, ref8):
        # the blocked weights @ cos/sin(t nodes) sums against numpy's
        # cosines and sines over the same panel rule, its Gauss weights
        # times pi rebuilt from the breakpoints
        w, gauss = fano.panel_rule(ref8.breaks)
        wt = gauss * fano._assemble(ref8.spec, ref8.units, w)[3]
        ts = np.linspace(0.0, 8.0, 150)
        k = dynamics.kernels(ref8, ts)
        for i, t in enumerate(ts):
            ref = (wt @ np.cos(t * w), wt @ (np.sin(t * w) / w), wt @ (np.sin(t * w) * w))
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
        # the kernels refine an unresolved grid for their largest time:
        # the grid and the values of refining first, bit for bit
        _, sol = ohmic_ref
        k = dynamics.kernels(sol, [0.0, 25.0])
        refined = fano.refine_for_times(sol, 25.0)
        assert refined.omegas.size > sol.omegas.size
        assert np.array_equal(k.source.omegas, refined.omegas)
        first = dynamics.kernels(refined, [0.0, 25.0])
        assert first.source is refined
        for name in ("k_cos", "k_sin_over", "k_sin_times"):
            assert np.array_equal(getattr(k, name), getattr(first, name))

    def test_refined_budget_travels(self, ohmic_strong, monkeypatch):
        # a grid split once for its longest time, within the mass budget,
        # is what the kernels and the damping scan sum over, for that
        # time or a shorter one: neither splits it again
        _, sol = ohmic_strong
        sol_t = fano.refine_for_times(sol, 420.0)
        assert sol_t.omegas.size > sol.omegas.size
        k = dynamics.kernels(sol_t, [0.0, 420.0])
        assert k.source is sol_t
        assert dynamics.kernels(sol_t, [0.0, 30.0]).source is sol_t
        seen = []
        evaluate = dynamics._evaluate

        def spy(source, ts, **rows):
            seen.append(source)
            return evaluate(source, ts, **rows)

        monkeypatch.setattr(dynamics, "_evaluate", spy)
        assert dynamics.classify_damping(k).damping_class == "underdamped"
        assert seen == [sol_t]

    def test_geometric_lattice_takes_direct_sums(self, flat_mid):
        # a lattice with no uniform stretch, such as geomspace(t_min,
        # t_max, n), is summed directly: the kernels are the direct sums
        # over the measure split for t_max, to the bit
        _, sol = flat_mid
        ts = np.geomspace(0.1, 20.0, 401)
        k = dynamics.kernels(sol, ts)
        assert np.array_equal(k.source.omegas, fano.refine_for_times(sol, 20.0).omegas)
        w, wt = k.source.nodes, k.source.weights
        assert np.array_equal(np.stack([k.k_cos, k.k_sin_over, k.k_sin_times]),
                              dynamics._direct_sums(k.source, ts, cos=[wt],
                                                    sin=[wt / w, wt * w]))

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

    def test_units_of_another_oscillator_refused(self, two_mode_decomp):
        k = dynamics.kernels(two_mode_decomp, [0.0, 0.7])
        with pytest.raises(UsageError, match="omega0"):
            dynamics.mean_trajectory(k, 1.0, 0.0, UnitSystem(omega0=2.0))

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
        rep = short_time_check(sol, units)
        assert not rep.skipped
        assert rep.exponent == pytest.approx(3.0, abs=0.1)
        assert rep.coefficient_rel_error < 0.05
        m4 = fano.frequency_moment(sol, 4)
        assert rep.predicted_coefficient == pytest.approx(-(m4 - 1.0) / 6.0, rel=1e-12)

    def test_degenerate_density_skipped(self, units):
        rep = short_time_check(_DegenerateDensity(), units)
        assert rep.skipped
        assert "resolution" in rep.note


class TestSincos:
    """dynamics.sincos against the slow reference it replaced: np.cos
    and np.sin, here in long double."""

    @staticmethod
    def phases():
        rng = np.random.default_rng(20)
        spread = np.exp(rng.uniform(math.log(1e-3), math.log(1e6), 100_000))
        # within 1e-9 of multiples of pi/2, where cos or sin passes 0 or 1
        k = rng.integers(1, int(1e6 / (0.5 * math.pi)), 100_000)
        near = k * (0.5 * math.pi) + rng.uniform(-1e-9, 1e-9, k.size)
        return np.concatenate([spread, near])

    def test_matches_long_double_reference(self):
        x = self.phases()
        cos, sin = np.empty_like(x), np.empty_like(x)
        dynamics.sincos(x, cos, sin)
        ref = x.astype(np.longdouble)
        assert np.max(np.abs(cos - np.cos(ref))) <= 1e-15
        assert np.max(np.abs(sin - np.sin(ref))) <= 1e-15

    def test_in_place_rows_and_zero(self):
        # x as its own cos output, more rows than one chunk holds, the
        # values of the same phases taken in one row
        x = self.phases()[:400 * 130].reshape(400, 130)
        x[0, 0] = 0.0
        assert x.size > dynamics._TRIG_CHUNK
        cos, sin = np.empty_like(x), np.empty_like(x)
        dynamics.sincos(x, cos, sin)
        assert cos[0, 0] == 1.0 and sin[0, 0] == 0.0 and not np.signbit(sin[0, 0])
        y, s = x.copy(), np.empty_like(x)
        dynamics.sincos(y, y, s)
        assert np.array_equal(y, cos) and np.array_equal(s, sin)
        flat = x.reshape(1, -1).copy()
        dynamics.sincos(flat, flat, s.reshape(1, -1))
        assert np.array_equal(flat.reshape(x.shape), cos) and np.array_equal(s, sin)


class TestFourierRoute:
    @pytest.mark.parametrize("T", [65, 501, 5001])
    @pytest.mark.parametrize("t0", [0.0, 0.01])
    @pytest.mark.parametrize("case", ["ref8", "flat20", "near_margin50",
                                      "two_mode_decomp", "ohmic_n2000"])
    def test_matches_direct_sums(self, case, t0, T, request, monkeypatch):
        source = request.getfixturevalue(case)
        t_max = {"ref8": 8.0, "flat20": 20.0, "near_margin50": 50.0}.get(case, 60.0)
        ts = np.linspace(t0, t_max, T)
        w, wt = source.nodes, source.weights
        rows = {"cos": [wt], "sin": [wt / w, wt * w]}
        calls = fourier_calls(monkeypatch)
        got = dynamics._evaluate(source, ts, **rows)
        assert calls == [(3, T)]
        # every time for T <= 501; every tenth, the last included, at 5001
        sel = slice(None, None, 1 if T <= 501 else 10)
        ref = dynamics._direct_sums(source, ts[sel], **rows)
        for kernel, want, strength in zip(got, ref, (wt, wt / w, wt * w)):
            bound = dynamics._FOURIER_REL_ERR * np.abs(strength).sum()
            assert np.max(np.abs(kernel[sel] - want)) <= bound
        if t0 == 0.0:
            # the exact +0 of sin(0) that kernels.csv writes as "0"
            for kernel in got[1:]:
                assert kernel[0] == 0.0 and not np.signbit(kernel[0])

    def test_route_choice(self, two_mode_decomp, monkeypatch):
        calls = fourier_calls(monkeypatch)
        sin = [two_mode_decomp.weights]
        dynamics._evaluate(two_mode_decomp, np.linspace(0.0, 5.0, dynamics._BLOCK), sin=sin)
        dynamics._evaluate(two_mode_decomp, np.geomspace(0.01, 5.0, 500), sin=sin)
        assert calls == []
        # one time off the lattice sends all of it to the direct sums
        ts = np.linspace(0.0, 5.0, 500)
        ts[250] += 1e-9
        got = dynamics._evaluate(two_mode_decomp, ts, sin=sin)
        assert calls == []
        assert np.array_equal(got, dynamics._direct_sums(two_mode_decomp, ts, sin=sin))
        dynamics._evaluate(two_mode_decomp, np.linspace(0.0, 5.0, dynamics._BLOCK + 1),
                           sin=sin)
        assert calls == [(1, dynamics._BLOCK + 1)]

    def test_relaxation_lattice_takes_the_direct_sums(self, ohmic_n2000, monkeypatch):
        # the relaxation path's lattice: np.unique of a geometric and a
        # linear run.  It is not uniform as a whole, so every time is
        # summed directly, the linear run included
        source = ohmic_n2000
        ts = np.unique(np.concatenate([np.geomspace(0.05, 20.0, 120),
                                       np.linspace(20.0, 500.0, 120)]))
        w, wt = source.nodes, source.weights
        rows = {"cos": [wt], "sin": [wt / w, wt * w]}
        calls = fourier_calls(monkeypatch)
        got = dynamics._evaluate(source, ts, **rows)
        assert calls == []
        assert np.array_equal(got, dynamics._direct_sums(source, ts, **rows))


def test_direct_sums_take_tiles_of_times_by_entries(units):
    # the relaxation path's kernels at N = 4000: a tile of 8 times, not
    # the 64 that the Fourier route's threshold counts, holds its cosines
    # and sines in 512 KB; each time's sums are those of that time alone,
    # to rounding
    source = oracle.normal_modes(oracle.discretize(
        OhmicExp(amplitude=math.sqrt(0.06), cutoff=5.0, omega_max=30.0), units, 4000))
    ts = np.unique(np.concatenate([np.geomspace(0.05, 20.0, 120),
                                   np.linspace(20.0, 500.0, 120)]))
    w, wt = source.nodes, source.weights
    strengths = (wt, wt / w, wt * w)
    tracemalloc.start()
    try:
        got = dynamics._direct_sums(source, ts, cos=strengths[:1], sin=strengths[1:])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dynamics._TRIG_CHUNK // w.size == 8 and peak < 2 * 2**20
    one = np.stack([dynamics._direct_sums(source, ts[j:j + 1], cos=strengths[:1],
                                          sin=strengths[1:])[:, 0] for j in range(ts.size)],
                   axis=1)
    for row, want, strength in zip(got, one, strengths):
        assert np.max(np.abs(row - want)) <= 32 * np.finfo(float).eps * np.abs(strength).sum()


def test_fourier_grid_is_5_smooth(monkeypatch, two_mode_decomp):
    # the smallest 2^a 3^b 5^c of at least 2T points, for every T the
    # Fourier route takes up to 12,000 (the bundled n_times 401, 501 and
    # 601 once gave 802 = 2 401, 1,002 = 2 3 167 and 1,202 = 2 601), and
    # the size each transform gets
    def largest_prime(n):
        for p in (2, 3, 5):
            while n % p == 0:
                n //= p
        return 5 if n == 1 else n

    smooth = [n for n in range(1, 24_100) if largest_prime(n) <= 5]
    for T in range(dynamics._BLOCK + 1, 12_000):
        assert dynamics._grid_size(T) == smooth[np.searchsorted(smooth, 2 * T)]
    sizes, ifft = [], np.fft.ifft
    monkeypatch.setattr(np.fft, "ifft", lambda a, axis: sizes.append(a.shape[axis])
                        or ifft(a, axis=axis))
    k = dynamics.kernels(two_mode_decomp, np.linspace(0.0, 30.0, 601))
    dynamics.classify_damping(k)
    assert sizes == [1215, 6075] and all(largest_prime(n) <= 5 for n in sizes)


def test_spreading_works_in_small_blocks(ohmic_ref):
    # ohmic_ref split for t_max 45, 3,024 nodes: the kernels' three rows
    # on the CLI's 501 times, and the damping scan's one k_sin_times row
    # on 4,500 times 0.01 apart.  Spreading _SPREAD_NODES nodes at a time
    # into buffers it reuses peaks at about 0.51 and 0.79 MB traced (the
    # scan took 0.99 MB when real and imaginary parts were spread apart);
    # each grid point sums in node order, so the sums do not depend on
    # the block size, to the last bit
    source = fano.refine_for_times(ohmic_ref[1], 45.0)
    w, wt = source.nodes, source.weights
    cases = [((np.stack([wt, wt / w, wt * w]), 0.0, 45.0 / 500, 501), 1.25),
             ((np.stack([wt * w]), 0.01, 0.01, 4500), 0.98)]
    assert 2900 < w.size < 3100
    for args, bound_mb in cases:
        tracemalloc.start()
        try:
            got = dynamics._fourier_sums(w, *args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < bound_mb * 2**20
        for nodes in (1024, 100):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dynamics, "_SPREAD_NODES", nodes)
                again = dynamics._fourier_sums(w, *args)
            assert np.array_equal(again, got)


class TestDamping:
    def test_scan_kernel_matches_evaluate(self, ref8, two_mode_decomp):
        # the damping scan's Fourier k_sin_times against the direct sums
        ts = np.linspace(0.01, 8.0, 300)
        for source in (ref8, two_mode_decomp):
            sin = [source.weights * source.nodes]
            bound = dynamics._FOURIER_REL_ERR * np.abs(sin[0]).sum()
            assert np.max(np.abs(dynamics._evaluate(source, ts, sin=sin)
                                 - dynamics._direct_sums(source, ts, sin=sin))) <= bound

    def test_weak_coupling_near_bare_half_period(self, ohmic_weak, units):
        _, sol = ohmic_weak
        sol8 = fano.refine_for_times(sol, 8.0)
        k = dynamics.kernels(sol8, np.linspace(0.0, 8.0, 30))
        cls = dynamics.classify_damping(k)
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

    def test_below_the_floor_at_the_first_scan_time(self):
        # a bath mode at 471 omega0 coupled at 99% of the stability bound:
        # k_sin_times is already below -floor at the first scan time, 0.01,
        # which is then the first stationary time
        model = oracle.FiniteBathModel(1.0, [471.0], [math.sqrt(0.99 * 471.0)])
        decomp = oracle.normal_modes(model)
        assert dynamics.kernels(decomp, [0.01]).k_sin_times[0] < -1e-3
        k = dynamics.kernels(decomp, np.linspace(0.0, 1.0, 10))
        cls = dynamics.classify_damping(k)
        assert cls.damping_class == "underdamped"
        assert cls.first_stationary_time == 0.01

    def test_scan_needs_kernels_past_zero(self, two_mode_decomp):
        k = dynamics.kernels(two_mode_decomp, [0.0])
        with pytest.raises(UsageError, match="past t = 0"):
            dynamics.classify_damping(k)

    def test_near_margin_non_oscillatory(self, near_margin50):
        k = dynamics.kernels(near_margin50, np.linspace(0.0, 50.0, 60))
        cls = dynamics.classify_damping(k)
        assert cls.damping_class == "non_oscillatory"
        assert cls.first_stationary_time is None
        assert cls.scan_window == 50.0


    @pytest.mark.parametrize("case", SCAN_CASES)
    def test_block_scan_matches_full_window_scan(self, case, request, monkeypatch):
        # the one Fourier evaluation of the whole scan lattice gives the
        # direct whole-window scan's result bit for bit
        source, window = SCAN_CASES[case]
        source = request.getfixturevalue(source)
        k = dynamics.kernels(source, np.linspace(0.0, window, 30))
        expected = full_window_scan(k)
        calls = fourier_calls(monkeypatch)
        cls = dynamics.classify_damping(k)
        assert cls.first_stationary_time == expected
        n_scan = int(math.ceil(window / (dynamics._SCAN_STEP_FACTOR / k.source.omega0))) + 1
        assert calls == [(1, n_scan)]

    @pytest.mark.parametrize("case", SCAN_CASES)
    def test_scan_immune_to_fourier_error(self, case, request, monkeypatch):
        # Fourier sums off by the full error bound, either way, leave the
        # classification as the direct scan has it, also with the floor
        # half a bound above the deepest value of the window, which the
        # shifted sums alone would never reach
        source, window = SCAN_CASES[case]
        source = request.getfixturevalue(source)
        k = dynamics.kernels(source, np.linspace(0.0, window, 30))
        step = dynamics._SCAN_STEP_FACTOR / k.source.omega0
        ts = np.linspace(step, window, int(math.ceil(window / step)) + 1)
        sin = [source.weights * source.nodes]
        deepest = dynamics._direct_sums(source, ts, sin=sin).min()
        bound = dynamics._FOURIER_REL_ERR * np.abs(sin[0]).sum()
        fourier = dynamics._fourier_sums
        for resolution in (1e-3, -(deepest + 0.5 * bound)):
            expected = full_window_scan(k, resolution)
            for sign in (1.0, -1.0):
                def shifted(nodes, strengths, t0, dt, T):
                    err = dynamics._FOURIER_REL_ERR * np.abs(strengths).sum(axis=1)
                    return (fourier(nodes, strengths, t0, dt, T)
                            + sign * (1 + 1j) * err[:, None])

                monkeypatch.setattr(dynamics, "_fourier_sums", shifted)
                monkeypatch.setattr(dynamics, "DAMPING_FLOOR", resolution)
                cls = dynamics.classify_damping(k)
                assert cls.first_stationary_time == expected
                assert (cls.damping_class == "non_oscillatory") == (expected is None)
        assert expected is not None

    def test_scan_stays_in_window(self, two_mode_decomp, monkeypatch):
        # a window shorter than the scan step: every scan time in
        # (0, t_max], none past the horizon the kernels resolve
        seen = []
        evaluate = dynamics._evaluate

        def spy(source, ts, **rows):
            seen.append(ts.copy())
            return evaluate(source, ts, **rows)

        monkeypatch.setattr(dynamics, "_evaluate", spy)
        k = dynamics.kernels(two_mode_decomp, [0.0, 0.005])
        seen.clear()
        cls = dynamics.classify_damping(k)
        assert cls.damping_class == "non_oscillatory"
        ts = np.concatenate(seen)
        assert ts.size and np.all(ts > 0) and np.all(ts <= 0.005)


RELAX_THRESHOLD = 0.02


def last_decade_peak(kern):
    """Largest kernel magnitude over the last decade of the lattice, on a
    common scale: k_sin_over times omega0, k_sin_times over omega0."""
    tail = kern.times >= kern.times[-1] / 10.0
    return max(float(np.max(np.abs(kern.k_cos[tail]))),
               float(np.max(np.abs(kern.k_sin_over[tail]))) * kern.source.omega0,
               float(np.max(np.abs(kern.k_sin_times[tail]))) / kern.source.omega0)


class TestRelaxation:
    def test_strong_reference_relaxes(self, ohmic_strong):
        spec, sol = ohmic_strong
        sol_t = fano.refine_for_times(sol, 420.0)
        ts = np.concatenate([[0.0], np.geomspace(0.5, 420.0, 120)])
        k = dynamics.kernels(sol_t, ts)
        assert last_decade_peak(k) <= RELAX_THRESHOLD

    def test_two_mode_never_relaxes(self, two_mode_decomp):
        # a finite bath recurs: k_cos keeps returning near 1
        k = dynamics.kernels(two_mode_decomp, np.linspace(0.0, 200.0, 400))
        assert last_decade_peak(k) > RELAX_THRESHOLD
        assert np.max(np.abs(k.k_cos[k.times >= 20.0])) > 0.9
