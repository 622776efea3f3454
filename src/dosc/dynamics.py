"""Mean-value dynamics from the frequency density.

Every mean observable of the oscillator evolves through three averages
over pi(omega):

    k_cos(t)       = << cos(omega t) >>
    k_sin_over(t)  = << sin(omega t) / omega >>
    k_sin_times(t) = << omega sin(omega t) >>

with <x(t)> = k_cos x0 + k_sin_over p0/m and
<p(t)> = k_cos p0 - m k_sin_times x0.  Each kernel is one sum over
a (nodes, weights) measure, e.g. cos(t * nodes) @ weights.  On a
continuum solution that sum is a Simpson quadrature over the grid, so
its validity is governed by the anti-aliasing bound
Delta_omega * t_max <= 0.1: beyond it the grid undersamples the
oscillating integrand and the caller must refine
(fano.refine_for_times).  On a finite-bath decomposition the same sum
is exact at any t.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from . import fano
from .errors import InternalConsistencyError, UsageError
from .spectra import UnitSystem

# time nodes per evaluation block; keeps the (times x nodes) phase
# matrix within a few tens of MB even on 100k-node grids
_BLOCK = 64

_SCAN_STEP_FACTOR = 0.01   # damping scan step, units 1/omega0
_RELAX_THRESHOLD = 0.02


def _evaluate(source, ts: np.ndarray):
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


def _k_sin_times(source, ts: np.ndarray) -> np.ndarray:
    """k_sin_times alone at ts, blocked as in _evaluate: the one kernel
    the damping scan reads."""
    w = source.nodes
    wt = source.weights * w
    out = np.empty(ts.size)
    for lo in range(0, ts.size, _BLOCK):
        out[lo:lo + _BLOCK] = np.sin(np.outer(ts[lo:lo + _BLOCK], w)) @ wt
    return out


def _require_alias_bound(source, t_max: float, mass_tol: float) -> None:
    # a finite-bath sum is exact at any t; only a grid can undersample
    if isinstance(source, fano.SpectralSolution):
        fano.require_alias_bound(source, t_max, mass_tol=mass_tol)


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
        data = np.column_stack([self.times, self.k_cos,
                                self.k_sin_over, self.k_sin_times])
        np.savetxt(path, data, fmt="%.17g", delimiter=",",
                   header="t,k_cos,k_sin_over,k_sin_times", comments="")


def kernels(source, times, alias_mass_tol: float = 1e-6) -> DynamicsKernels:
    """Evaluate the three kernels at the given times.

    ``source`` is a continuum SpectralSolution (quadrature over its
    grid; the largest requested time must respect the anti-aliasing
    bound, else AliasingError asks for refine_for_times first) or a
    finite-bath NormalModeDecomposition (exact sums, no bound).
    ``alias_mass_tol`` must match the mass_tol the grid was refined
    with; coarser-than-default values are for threshold checks that
    tolerate the correspondingly larger kernel error.
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if ts.ndim != 1 or ts.size == 0:
        raise UsageError("times must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(ts)) or np.any(ts < 0):
        raise UsageError("times must be finite and >= 0")
    if np.any(np.diff(ts) < 0):
        raise UsageError("times must be sorted ascending")
    _require_alias_bound(source, float(ts[-1]), alias_mass_tol)
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
        data = np.column_stack([self.times, self.x, self.p])
        np.savetxt(path, data, fmt="%.17g", delimiter=",",
                   header="t,x,p", comments="")


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


def short_time_check(sol, units: UnitSystem, n_points: int = 25) -> ShortTimeReport:
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
    ts = np.geomspace(t_lo, t_hi, n_points)
    k_sin_times = _evaluate(sol, ts)[2]
    dev = k_sin_times - w0 * np.sin(w0 * ts)
    usable = dev < 0
    if usable.sum() < max(5, n_points // 2):
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
                     resolution: float = 1e-3,
                     alias_mass_tol: float = 1e-6) -> DampingClassification:
    """Scan k_sin_times for its first resolved positive zero.

    A zero of k_sin_times is a stationary point of k_cos away from
    t = 0: present means the mean motion still oscillates
    (underdamped), absent over the window means it does not.  A
    crossing only counts when the kernel actually reaches below
    -resolution * omega0^2: every quadrature kernel wiggles at some
    tiny amplitude, and near the positivity margin the true dips fall
    orders of magnitude below the kernel's initial scale, so a
    strict sign test would call everything oscillatory.
    """
    if scan_window is None:
        scan_window = float(kern.times[-1])
    if not (scan_window > 0 and math.isfinite(scan_window)):
        raise UsageError(f"scan_window must be positive, got {scan_window}")
    source = kern.source
    _require_alias_bound(source, scan_window, alias_mass_tol)
    step = _SCAN_STEP_FACTOR / kern.omega0
    n = int(math.ceil(scan_window / step)) + 1
    ts = np.linspace(step, scan_window, n)
    vals = _k_sin_times(source, ts)
    floor = resolution * kern.omega0**2
    below = np.nonzero(vals < -floor)[0]
    if below.size:
        j = int(below[0])
        start = np.nonzero(vals[:j] >= 0.0)[0]
        if start.size:
            i = int(start[-1])
            zero_at = float(brentq(lambda t: _k_sin_times(source, np.array([t]))[0],
                                   ts[i], ts[j], xtol=1e-12, rtol=1e-14))
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


def relaxation_check(kern: DynamicsKernels,
                     threshold: float = _RELAX_THRESHOLD) -> RelaxationReport:
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
        threshold=threshold,
        relaxed=bool(max(mc, mso, mst) <= threshold),
    )
