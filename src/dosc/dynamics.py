"""Mean-value dynamics from the frequency density.

Every mean observable of the oscillator evolves through three averages
over pi(omega):

    k_cos(t)       = << cos(omega t) >>
    k_sin_over(t)  = << sin(omega t) / omega >>
    k_sin_times(t) = << omega sin(omega t) >>

with <x(t)> = k_cos x0 + k_sin_over p0/m and
<p(t)> = k_cos p0 - m k_sin_times x0.  Each kernel is one sum over
a (nodes, weights) measure, sum_k w_k e^{i omega_k t}.  On a continuum
solution that sum is a Simpson quadrature over the grid, so its
validity is governed by the anti-aliasing bound
Delta_omega * t_max <= 0.1: beyond it the grid undersamples the
oscillating integrand and the caller must refine
(fano.refine_for_times), whose mass budget for wide intervals the
refined solution carries to every check here.  On a finite-bath
decomposition the same sum is exact at any t.

The sums take one of two routes, chosen from the time lattice alone:

* a uniform lattice t_j = t_0 + j dt of more than _BLOCK times (the
  CLI's default linear spacing, the damping scan) is a type-1
  non-uniform FFT over x_k = omega_k dt mod 2 pi: the three strengths
  are spread onto one oversampled grid with shared Gaussian taps, and
  three FFTs give all T values in O(M + T log T), within
  _FOURIER_REL_ERR of the direct sums;
* every other lattice (geometric grids, the short-time fit, single
  root-finding steps, mixed grids) takes the direct sums, dense
  cos/sin products a block of _BLOCK times at a time.  They are also
  the tests' reference for the Fourier route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.fft  # noqa: F401  numpy loads it lazily: at start-up, not in the first command

from . import fano
from .csvio import write_csv
from .errors import InternalConsistencyError, UsageError, checked
from .spectra import UnitSystem

# time nodes per direct evaluation block; keeps the (times x nodes) phase
# matrix within a few tens of MB even on 100k-node grids
_BLOCK = 64

# Fourier route: Gaussian gridding after Dutt & Rokhlin, SIAM J. Sci.
# Comput. 14 (1993) 1368, and Greengard & Lee, SIAM Rev. 46 (2004) 443.
# With 16 taps a side at oversampling 2 the worst error seen against the
# direct sums is 7e-14 of sum |strength| (12 taps: 1.1e-11).
_TAPS = 16
_OVERSAMPLE = 2
_SPREAD_CHUNK = 1024   # nodes per spreading pass: its arrays stay in cache
_LATTICE_ULPS = 4      # a uniform lattice's times sit this close to t_0 + j dt
# bound on |Fourier - direct| relative to sum |strength|, per kernel
_FOURIER_REL_ERR = 1e-12

_SCAN_STEP_FACTOR = 0.01   # damping scan step, units 1/omega0
_RELAX_THRESHOLD = 0.02
_SHORT_TIME_POINTS = 25    # log-spaced times in the short-time fit window


def _direct_sums(source, ts: np.ndarray):
    """k_cos, k_sin_over, k_sin_times at ts over the source's (nodes,
    weights) measure, a block of times at a time."""
    w = source.nodes
    wt = source.weights
    sin_weights = np.stack([wt / w, wt * w], axis=1)
    k_cos = np.empty(ts.size)
    k_sin = np.empty((2, ts.size))
    for lo in range(0, ts.size, _BLOCK):
        phase = np.outer(ts[lo:lo + _BLOCK], w)
        k_cos[lo:lo + _BLOCK] = np.cos(phase) @ wt
        k_sin[:, lo:lo + _BLOCK] = (np.sin(phase) @ sin_weights).T
    return k_cos, k_sin[0], k_sin[1]


def _fourier_sums(nodes: np.ndarray, strengths: np.ndarray, t0: float,
                  dt: float, T: int) -> np.ndarray:
    """sum_k strengths[r, k] e^{i nodes_k (t0 + j dt)} for every row r
    and j = 0..T-1, as a (rows, T) complex array.

    Type-1 non-uniform FFT by Gaussian gridding over
    x_k = nodes_k dt mod 2 pi.  The output modes are centred on
    j = T // 2, whose phase joins e^{i nodes t0} in the strengths, so
    the deconvolution gain stays below e^{pi _TAPS / 12}.  Every row is
    spread with the same taps, then transformed by one FFT.
    """
    n_grid = _OVERSAMPLE * T
    h = 2.0 * math.pi / n_grid
    tau = math.pi * _TAPS / (T * T * _OVERSAMPLE * (_OVERSAMPLE - 0.5))
    mid = T // 2
    x = np.mod(nodes * dt, 2.0 * math.pi)
    s = strengths * np.exp(1j * (nodes * (t0 + mid * dt)))
    parts = np.concatenate([s.real, s.imag])
    acc = np.zeros((len(parts), n_grid))
    offsets = np.arange(1 - _TAPS, _TAPS + 1)
    for lo in range(0, nodes.size, _SPREAD_CHUNK):
        xc = x[lo:lo + _SPREAD_CHUNK]
        idx = np.floor(xc / h).astype(np.intp)[:, None] + offsets
        taps = np.exp((xc[:, None] - h * idx) ** 2 * (-0.25 / tau))
        slots = (idx % n_grid).ravel()
        for row, part in zip(acc, parts[:, lo:lo + _SPREAD_CHUNK]):
            row += np.bincount(slots, (taps * part[:, None]).ravel(), n_grid)
    rows = len(s)
    coeffs = np.fft.ifft(acc[:rows] + 1j * acc[rows:], axis=1)
    m = np.arange(-mid, T - mid)
    return coeffs[:, m % n_grid] * (math.sqrt(math.pi / tau) * np.exp(m * m * tau))


def _evaluate(source, ts: np.ndarray):
    """k_cos, k_sin_over, k_sin_times at ts: by the Fourier route when ts
    is a uniform lattice of more than _BLOCK times, else by direct sums."""
    n = ts.size
    if n > _BLOCK:
        dt = (ts[-1] - ts[0]) / (n - 1)
        off_lattice = np.max(np.abs(ts - (ts[0] + dt * np.arange(n))))
        if dt > 0 and off_lattice <= _LATTICE_ULPS * np.spacing(ts[-1]):
            w, wt = source.nodes, source.weights
            sums = _fourier_sums(w, np.stack([wt, wt / w, wt * w]), ts[0], dt, n)
            k_cos, k_sin_over, k_sin_times = np.stack(
                [sums[0].real, sums[1].imag, sums[2].imag])
            # sin(0 omega) sums to exactly +0 on the direct route
            k_sin_over[ts == 0] = 0.0
            k_sin_times[ts == 0] = 0.0
            return k_cos, k_sin_over, k_sin_times
    return _direct_sums(source, ts)


def _require_alias_bound(source, t_max: float) -> None:
    # a finite-bath sum is exact at any t; only a grid can undersample
    if isinstance(source, fano.SpectralSolution):
        fano.require_alias_bound(source, t_max)


@dataclass(frozen=True, eq=False)
class DynamicsKernels:
    """The three averaged kernels on a sorted time lattice."""

    times: np.ndarray
    k_cos: np.ndarray
    k_sin_over: np.ndarray
    k_sin_times: np.ndarray
    omega0: float
    source: object = field(repr=False)

    def to_csv(self, path) -> None:
        write_csv(path, "t,k_cos,k_sin_over,k_sin_times",
                  [self.times, self.k_cos, self.k_sin_over, self.k_sin_times])


def kernels(source, times) -> DynamicsKernels:
    """Evaluate the three kernels at the given times.

    ``source`` is a continuum SpectralSolution (quadrature over its
    grid; the largest requested time must respect the anti-aliasing
    bound within the solution's alias_mass_tol, else AliasingError
    asks for refine_for_times first) or a finite-bath
    NormalModeDecomposition (exact sums, no bound).
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if ts.ndim != 1 or ts.size == 0:
        raise UsageError("times must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(ts)) or np.any(ts < 0):
        raise UsageError("times must be finite and >= 0")
    if np.any(np.diff(ts) < 0):
        raise UsageError("times must be sorted ascending")
    _require_alias_bound(source, float(ts[-1]))
    k_cos, k_sin_over, k_sin_times = _evaluate(source, ts)
    if np.max(np.abs(k_cos)) > 1.0 + 1e-6:
        raise InternalConsistencyError(
            f"|k_cos| reached {np.max(np.abs(k_cos)):.6g} > 1: "
            "quadrature error exceeds its contract"
        )
    return DynamicsKernels(times=ts, k_cos=k_cos, k_sin_over=k_sin_over,
                           k_sin_times=k_sin_times,
                           omega0=source.omega0, source=source)


@dataclass(frozen=True, eq=False)
class MeanTrajectory:
    times: np.ndarray
    x: np.ndarray
    p: np.ndarray

    def to_csv(self, path) -> None:
        write_csv(path, "t,x,p", [self.times, self.x, self.p])


def mean_trajectory(kern: DynamicsKernels, x0: float, p0: float,
                    units: UnitSystem) -> MeanTrajectory:
    """<x(t)>, <p(t)> for an initially displaced oscillator with the
    environment stationary."""
    x = kern.k_cos * x0 + kern.k_sin_over * (p0 / units.mass)
    p = kern.k_cos * p0 - units.mass * kern.k_sin_times * x0
    return MeanTrajectory(times=kern.times, x=x, p=p)


# ---------------------------------------------------------------------------
# short-time behaviour

@dataclass(frozen=True)
class ShortTimeReport:
    """Log-log fit of k_sin_times(t) minus its uncoupled counterpart.

    The deviation from omega0 sin(omega0 t) opens at t^3 with
    coefficient -(<<omega^4>> - omega0^4)/6; the report carries the
    fitted exponent and coefficient next to the moment-based
    prediction.  ``skipped`` marks the degenerate case where the
    fourth-moment excess is too small to resolve.
    """

    exponent: float
    coefficient: float
    predicted_coefficient: float
    coefficient_rel_error: float
    window: tuple[float, float]
    n_points: int
    skipped: bool = False
    note: str = ""


def short_time_check(sol, units: UnitSystem) -> ShortTimeReport:
    w0 = units.omega0
    m4 = fano.frequency_moment(sol, 4)
    m6 = fano.frequency_moment(sol, 6)
    excess4 = m4 - w0**4
    excess6 = m6 - w0**6
    if excess4 <= 1e-12 * w0**4:
        return ShortTimeReport(
            exponent=math.nan, coefficient=0.0, predicted_coefficient=0.0,
            coefficient_rel_error=math.nan, window=(0.0, 0.0), n_points=0,
            skipped=True,
            note="fourth-moment excess below resolution; deviation not fittable",
        )
    # upper end of the fit window: keep the next order (t^5, weighted by
    # the sixth-moment excess) near 1% of the cubic term; the log-log
    # regression amplifies that contamination by |log t|, so the budget
    # is deliberately tighter than the 5% coefficient tolerance
    if excess6 > 0:
        t_hi = math.sqrt(0.25 * excess4 / excess6)
    else:
        t_hi = 0.1 / w0
    t_hi = min(t_hi, 0.2 / w0)
    t_lo = t_hi / 10.0
    ts = np.geomspace(t_lo, t_hi, _SHORT_TIME_POINTS)
    k_sin_times = _evaluate(sol, ts)[2]
    dev = k_sin_times - w0 * np.sin(w0 * ts)
    usable = dev < 0
    if usable.sum() < _SHORT_TIME_POINTS // 2:
        return ShortTimeReport(
            exponent=math.nan, coefficient=0.0,
            predicted_coefficient=-excess4 / 6.0,
            coefficient_rel_error=math.nan, window=(t_lo, t_hi),
            n_points=int(usable.sum()), skipped=True,
            note="deviation lost to quadrature noise over the window",
        )
    slope, intercept = np.polyfit(np.log(ts[usable]), np.log(-dev[usable]), 1)
    fitted = -math.exp(intercept)
    predicted = -excess4 / 6.0
    return ShortTimeReport(
        exponent=float(slope), coefficient=fitted,
        predicted_coefficient=predicted,
        coefficient_rel_error=abs(fitted - predicted) / abs(predicted),
        window=(t_lo, t_hi), n_points=int(usable.sum()),
    )


# ---------------------------------------------------------------------------
# damping classification and relaxation

@dataclass(frozen=True)
class DampingClassification:
    damping_class: str                    # "underdamped" | "non_oscillatory"
    first_stationary_time: float | None
    scan_window: float
    resolution: float


def classify_damping(kern: DynamicsKernels, scan_window: float | None = None,
                     resolution: float = 1e-3) -> DampingClassification:
    """Scan k_sin_times for its first resolved positive zero.

    A zero of k_sin_times is a stationary point of k_cos away from
    t = 0: present means the mean motion still oscillates
    (underdamped), absent over the window means it does not.  A
    crossing only counts when the kernel actually reaches below
    -resolution * omega0^2: every quadrature kernel wiggles at some
    tiny amplitude, and near the positivity margin the true dips fall
    orders of magnitude below the kernel's initial scale, so a
    strict sign test would call everything oscillatory.  The whole
    scan lattice is evaluated at once; values the Fourier route leaves
    within its error bound of 0 or of the floor are summed again
    directly, so every comparison falls as in a direct scan.
    """
    if scan_window is None:
        scan_window = float(kern.times[-1])
    checked(scan_window, "number > 0", "scan_window")
    source = kern.source
    _require_alias_bound(source, scan_window)
    step = _SCAN_STEP_FACTOR / kern.omega0
    n = int(math.ceil(scan_window / step)) + 1
    # every scan time in (0, scan_window], the horizon checked above
    ts = np.linspace(min(step, scan_window), scan_window, n)
    floor = resolution * kern.omega0**2
    w = source.nodes
    wt = source.weights * w
    vals = _evaluate(source, ts)[2]
    tol = _FOURIER_REL_ERR * float(np.sum(np.abs(wt)))
    near = (np.abs(vals) <= tol) | (np.abs(vals + floor) <= tol)
    vals[near] = _direct_sums(source, ts[near])[2]
    below = np.flatnonzero(vals < -floor)
    if below.size:
        j = int(below[0])
        start = np.nonzero(vals[:j] >= 0.0)[0]
        if start.size:
            i = int(start[-1])
            # root steps on the direct single-time sum
            zero_at = fano.brentq(lambda t: (np.sin(np.outer([t], w)) @ wt)[0],
                                  ts[i], ts[j], xtol=1e-12, rtol=1e-14)
        else:
            zero_at = float(ts[j])  # negative from the first sample on
        return DampingClassification("underdamped", zero_at, scan_window,
                                     resolution)
    return DampingClassification("non_oscillatory", None, scan_window,
                                 resolution)


@dataclass(frozen=True)
class RelaxationReport:
    """Largest kernel magnitudes over the last decade of the lattice.

    Kernels are compared on a common scale (k_sin_over by omega0,
    k_sin_times by 1/omega0).  ``relaxed`` is a report, not a failure:
    finite or uncoupled systems legitimately never relax.
    """

    window: tuple[float, float]
    max_k_cos: float
    max_k_sin_over_scaled: float
    max_k_sin_times_scaled: float
    threshold: float
    relaxed: bool


def relaxation_check(kern: DynamicsKernels) -> RelaxationReport:
    t_max = float(kern.times[-1])
    if t_max <= 0:
        raise UsageError("relaxation check needs a positive time range")
    mask = kern.times >= t_max / 10.0
    if mask.sum() < 3:
        raise UsageError("too few time nodes in the last decade for a check")
    mc = float(np.max(np.abs(kern.k_cos[mask])))
    mso = float(np.max(np.abs(kern.k_sin_over[mask]))) * kern.omega0
    mst = float(np.max(np.abs(kern.k_sin_times[mask]))) / kern.omega0
    return RelaxationReport(
        window=(t_max / 10.0, t_max),
        max_k_cos=mc, max_k_sin_over_scaled=mso, max_k_sin_times_scaled=mst,
        threshold=_RELAX_THRESHOLD,
        relaxed=bool(max(mc, mso, mst) <= _RELAX_THRESHOLD),
    )
