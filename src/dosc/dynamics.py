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
oscillating integrand, so the kernels and the damping scan first
refine the grid for their largest time (fano.refine_for_times),
within the mass budget for wide intervals the solution carries.  On
a finite-bath decomposition the same sum is exact at any t.

The sums take one of two routes, chosen from the time lattice alone:

* a uniform lattice t_j = t_0 + j dt of more than _BLOCK times (the
  CLI's default linear spacing, the damping scan), or such a tail of a
  sorted lattice (the linear run after the geometric one in
  scripts/relaxation_demo.py), is a type-1 non-uniform FFT over
  x_k = omega_k dt mod 2 pi: each strength row asked for (three for
  the kernels, k_sin_times' one for the scan) is spread onto one
  oversampled grid with shared Gaussian taps, and one FFT per row gives
  all T values in O(M + T log T), within _FOURIER_REL_ERR of the direct
  sums;
* the times before such a tail and every other lattice (geometric
  grids, single root-finding steps) take the direct sums of the same
  rows, dense cos/sin products a block of _BLOCK times at a time.  They
  are also the tests' reference for the Fourier route.
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


def _direct_sums(source, ts: np.ndarray, cos=(), sin=()) -> np.ndarray:
    """sum_k c_k cos(omega_k t) for each strength row c in ``cos``, then
    sum_k s_k sin(omega_k t) for each s in ``sin``, over the source's
    nodes omega_k: a (rows, ts.size) array, a block of times at a time."""
    w = source.nodes
    groups = [(f, np.stack(rows, axis=1))
              for f, rows in ((np.cos, cos), (np.sin, sin)) if len(rows)]
    out = np.empty((len(cos) + len(sin), ts.size))
    for lo in range(0, ts.size, _BLOCK):
        phase = np.outer(ts[lo:lo + _BLOCK], w)
        out[:, lo:lo + _BLOCK] = np.hstack([f(phase) @ s for f, s in groups]).T
    return out


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


def _evaluate(source, ts: np.ndarray, cos=(), sin=()) -> np.ndarray:
    """The rows of _direct_sums of a sorted lattice: its uniform tail by
    the Fourier route when it holds more than _BLOCK times, the times
    before it by direct sums."""
    if ts.size > _BLOCK:
        tol = _LATTICE_ULPS * np.spacing(ts[-1])
        steps = np.diff(ts)   # within tol of t_0 + j dt, they differ by at most 4 tol
        head = np.flatnonzero(np.abs(steps - steps[-1]) > 4.0 * tol)
        tail = ts[head[-1] + 1 if head.size else 0:]
        n = tail.size
        dt = (tail[-1] - tail[0]) / (n - 1)
        if n > _BLOCK and dt > 0 and np.max(np.abs(tail - (tail[0] + dt * np.arange(n)))) <= tol:
            sums = _fourier_sums(source.nodes, np.stack([*cos, *sin]), tail[0], dt, n)
            out = np.concatenate([sums[:len(cos)].real, sums[len(cos):].imag])
            # sin(0 omega) sums to exactly +0 on the direct route
            out[len(cos):, tail == 0] = 0.0
            return np.hstack([_direct_sums(source, ts[:-n], cos, sin), out])
    return _direct_sums(source, ts, cos, sin)


def _resolved(source, t_max: float):
    """``source`` with a grid that resolves times up to t_max.  A
    finite-bath sum is exact at any t; only a grid can undersample."""
    if isinstance(source, fano.SpectralSolution):
        return fano.refine_for_times(source, t_max)
    return source


@dataclass(frozen=True, eq=False)
class DynamicsKernels:
    """The three averaged kernels on a sorted time lattice.

    ``source`` is the measure they were summed over, ``given`` the one
    kernels was passed, before any refinement for the times."""

    times: np.ndarray
    k_cos: np.ndarray
    k_sin_over: np.ndarray
    k_sin_times: np.ndarray
    omega0: float
    source: object = field(repr=False)
    given: object = field(repr=False)

    def to_csv(self, path) -> None:
        write_csv(path, "t,k_cos,k_sin_over,k_sin_times",
                  [self.times, self.k_cos, self.k_sin_over, self.k_sin_times])


def kernels(source, times) -> DynamicsKernels:
    """Evaluate the three kernels at the given times: one cosine and two
    sine strength rows, summed together by one route.

    ``source`` is a continuum SpectralSolution (quadrature over its
    grid, first refined by fano.refine_for_times for the largest
    requested time within the solution's alias_mass_tol) or a
    finite-bath NormalModeDecomposition (exact sums, no bound).  The
    result's ``source`` is the measure the kernels were summed over.
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if ts.ndim != 1 or ts.size == 0:
        raise UsageError("times must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(ts)) or np.any(ts < 0):
        raise UsageError("times must be finite and >= 0")
    if np.any(np.diff(ts) < 0):
        raise UsageError("times must be sorted ascending")
    given, source = source, _resolved(source, float(ts[-1]))
    w, wt = source.nodes, source.weights
    k_cos, k_sin_over, k_sin_times = _evaluate(source, ts, cos=[wt],
                                               sin=[wt / w, wt * w])
    if np.max(np.abs(k_cos)) > 1.0 + 1e-6:
        raise InternalConsistencyError(
            f"|k_cos| reached {np.max(np.abs(k_cos)):.6g} > 1: "
            "quadrature error exceeds its contract"
        )
    return DynamicsKernels(times=ts, k_cos=k_cos, k_sin_over=k_sin_over,
                           k_sin_times=k_sin_times,
                           omega0=source.omega0, source=source, given=given)


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
# damping classification

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
    strict sign test would call everything oscillatory.  Only
    k_sin_times' strength row is summed: over the whole scan lattice at
    once, again directly where the Fourier route leaves a value within
    its error bound of 0 or of the floor (so every comparison falls as
    in a direct scan), and directly at each root step.  A continuum
    source is refined for scan_window as in kernels: past the kernels'
    last time, the measure kernels was given, in one step, since
    refining the kernels' grid again builds more nodes.
    """
    if scan_window is None:
        scan_window = float(kern.times[-1])
    checked(scan_window, "number > 0", "scan_window")
    checked(resolution, "number >= 0", "resolution")
    source = _resolved(kern.given if scan_window > kern.times[-1] else kern.source,
                       scan_window)
    step = _SCAN_STEP_FACTOR / kern.omega0
    n = int(math.ceil(scan_window / step)) + 1
    # every scan time in (0, scan_window], the horizon resolved above
    ts = np.linspace(min(step, scan_window), scan_window, n)
    floor = resolution * kern.omega0**2
    sin = [source.weights * source.nodes]     # k_sin_times' strengths
    vals = _evaluate(source, ts, sin=sin)[0]
    tol = _FOURIER_REL_ERR * float(np.sum(np.abs(sin[0])))
    near = (np.abs(vals) <= tol) | (np.abs(vals + floor) <= tol)
    vals[near] = _direct_sums(source, ts[near], sin=sin)[0]
    below = np.flatnonzero(vals < -floor)
    if below.size:
        j = int(below[0])
        start = np.nonzero(vals[:j] >= 0.0)[0]
        if start.size:
            i = int(start[-1])
            # root steps on the direct single-time sum
            zero_at = fano.brentq(lambda t: _direct_sums(source, np.array([t]), sin=sin)[0, 0],
                                  ts[i], ts[j], xtol=1e-12, rtol=1e-14)
        else:
            zero_at = float(ts[j])  # negative from the first sample on
        return DampingClassification("underdamped", zero_at, scan_window,
                                     resolution)
    return DampingClassification("non_oscillatory", None, scan_window,
                                 resolution)
