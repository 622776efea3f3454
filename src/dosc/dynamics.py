"""Mean-value dynamics from the frequency density.

Every mean observable of the oscillator evolves through three averages
over pi(omega):

    k_cos(t)       = << cos(omega t) >>
    k_sin_over(t)  = << sin(omega t) / omega >>
    k_sin_times(t) = << omega sin(omega t) >>

with <x(t)> = k_cos x0 + k_sin_over p0/m and
<p(t)> = k_cos p0 - m k_sin_times x0.  Each kernel is one sum over
a (nodes, weights) measure, sum_k w_k e^{i omega_k t}.  On a continuum
solution that sum is a Gauss-Legendre quadrature over the solution's
panels, exact to rounding on a panel of width h while
h * t_max <= 16: beyond it the panel's nodes undersample the
oscillating integrand, so kernels first splits the panels for its
largest time (fano.refine_for_times), within fano.ALIAS_MASS_TOL of
the mass for wide panels, and the damping scan of classify_damping
runs over the kernels' own measure and times, (0, t_max].  Over a
solution's atoms, as over a finite-bath decomposition, the sum is exact
at any t.

The sums take one of two routes, chosen from the time lattice alone:

* a uniform lattice t_j = t_0 + j dt of more than _BLOCK times (the
  CLI's linspace(0, t_max, n_times), the damping scan) is a type-1
  non-uniform FFT over x_k = omega_k dt mod 2 pi: each strength row
  asked for (three for the kernels, k_sin_times' one for the scan),
  times the phase of the lattice's middle time, is spread as complex
  strengths onto one complex oversampled grid of a 5-smooth size with
  shared Gaussian taps, and one FFT per row gives all T values in
  O(M + T log T), within _FOURIER_REL_ERR of the direct sums;
* every other lattice (a library caller's geometric or mixed grids,
  single root-finding steps) takes the direct sums of the same rows, dense cos/sin
  products a tile of about _TRIG_CHUNK times x nodes at a time.  They
  are also the tests' reference for the Fourier route.

Every cosine and sine of a phase, here and in the oracle's evolution,
comes from sincos: both from one tan(x/2).  numpy evaluates float64
tan by a SIMD kernel where the CPU has one (3 ns an element on an
AVX-512 Xeon, against 34 ns each for np.sin and np.cos on phases up to
1000), so the phases cost about a third of what sin and cos took.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import numpy.fft  # noqa: F401  numpy loads it lazily: at start-up, not in the first command

from . import fano
from .csvio import write_csv
from .errors import InternalConsistencyError, UsageError
from .spectra import UnitSystem

# the Fourier route takes uniform lattices of more than _BLOCK times
_BLOCK = 64
# entries of each temporary over phases or poles, here and in the oracle:
# a pass of sincos, a tile of direct sums, a spreading pass (2 _TAPS a
# node).  sincos's two outputs, 512 KB, stay in L2 cache through its five
# passes, and each numpy call hides its overhead (direct sums of 64 times
# over 4001 nodes: 4.9, 3.3 and 4.4 ms at 2**13, 2**15 and 2**16)
_TRIG_CHUNK = 2**15

# Fourier route: Gaussian gridding after Dutt & Rokhlin, SIAM J. Sci.
# Comput. 14 (1993) 1368, and Greengard & Lee, SIAM Rev. 46 (2004) 443.
# With 16 taps a side at oversampling 2 the worst error seen against the
# direct sums is 7e-14 of sum |strength| (12 taps: 1.1e-11).  The grid
# has a 5-smooth size: pocketfft takes Bluestein's slow route at a large
# prime factor (7,882 = 2 7 563 points took 1.40 ms, 8,000 took 0.12 ms)
_TAPS = 16
_OVERSAMPLE = 2
_LATTICE_ULPS = 4      # a uniform lattice's times sit this close to t_0 + j dt
# spreading works through _SPREAD_NODES nodes at a time: slots, taps and
# complex products of 2 _TAPS entries a node, plus numpy's casts of the
# float taps in each product (at 256 nodes those set the kernels' traced
# peak, 0.73 MB against 0.49).  Each grid point sums from 0 in node
# order, so its value to the last bit does not depend on _SPREAD_NODES
_SPREAD_NODES = 128
# bound on |Fourier - direct| relative to sum |strength|, per kernel
_FOURIER_REL_ERR = 1e-12

_SCAN_STEP_FACTOR = 0.01   # damping scan step, units 1/omega0
DAMPING_FLOOR = 1e-3       # depth below 0 a crossing must reach, units omega0^2


def sincos(x: np.ndarray, cos: np.ndarray, sin: np.ndarray) -> None:
    """cos x into ``cos`` and sin x into ``sin`` from one t = tan(x/2):
    cos x = 2/(1 + t^2) - 1 and sin x = 2t/(1 + t^2), each within
    tan's own relative error of the true value.  Halving x is exact,
    and numpy's SIMD float64 tan costs a tenth of its sin or cos.
    ``x`` may be ``cos`` (not ``sin``); x = 0 gives exactly 1 and +0.
    Works through a chunk of leading-axis rows at a time, in place in
    the outputs, so its passes stay in cache."""
    per = max(1, _TRIG_CHUNK * len(x) // max(1, x.size))
    for lo in range(0, len(x), per):
        rows = slice(lo, lo + per)
        t = np.multiply(x[rows], 0.5, out=sin[rows])
        np.tan(t, out=t)
        u = np.multiply(t, t, out=cos[rows])
        u += 1.0
        np.divide(2.0, u, out=u)
        t *= u
        u -= 1.0


def _direct_sums(source, ts: np.ndarray, cos=(), sin=()) -> np.ndarray:
    """sum_k c_k cos(omega_k t) for each strength row c in ``cos``, then
    sum_k s_k sin(omega_k t) for each s in ``sin``, over the source's
    nodes omega_k: a (rows, ts.size) array, a tile of times at a time."""
    w = source.nodes
    k = len(cos)
    cs, ss = np.reshape(cos, (k, w.size)), np.reshape(sin, (len(sin), w.size))
    out = np.empty((k + len(sin), ts.size))
    step = max(1, _TRIG_CHUNK // max(1, w.size))
    for lo in range(0, ts.size, step):
        c = np.multiply.outer(ts[lo:lo + step], w)
        s = np.empty_like(c)
        sincos(c, c, s)
        out[:k, lo:lo + step] = cs @ c.T
        out[k:, lo:lo + step] = ss @ s.T
    return out


def _grid_size(T: int) -> int:
    """The smallest 2^a 3^b 5^c >= _OVERSAMPLE T, the Fourier grid's size."""
    need, n = _OVERSAMPLE * T, (_OVERSAMPLE * T).bit_length()
    odd = [3**b * 5**c for b in range(n) for c in range(n)]
    return min(m << ((need - 1) // m).bit_length() for m in odd if m < 2 * need)


def _fourier_sums(nodes: np.ndarray, strengths: np.ndarray, t0: float,
                  dt: float, T: int) -> np.ndarray:
    """sum_k strengths[r, k] e^{i nodes_k (t0 + j dt)} for every row r
    and j = 0..T-1, as a (rows, T) complex array.

    Type-1 non-uniform FFT by Gaussian gridding over
    x_k = nodes_k dt mod 2 pi onto _grid_size(T) points.  The Gaussian's
    tau is that of the oversampling sigma = n_grid / T >= 2.  The output
    modes are centred on j = T // 2, whose phase joins e^{i nodes t0} in
    the strengths, so the deconvolution gain, e^{pi _TAPS / (4 sigma
    (sigma - 1/2))}, stays below e^{pi _TAPS / 12}.  Every complex row
    is spread with the same taps onto its row of one complex grid, then
    transformed by one FFT.
    """
    n_grid = _grid_size(T)
    h = 2.0 * math.pi / n_grid
    sigma = n_grid / T
    tau = math.pi * _TAPS / (T * T * sigma * (sigma - 0.5))
    mid = T // 2
    x = np.mod(nodes * dt, 2.0 * math.pi)
    # e^{i nodes (t0 + mid dt)}, written straight into a complex array
    phase = np.empty(nodes.size, complex)
    np.multiply(nodes, t0 + mid * dt, out=phase.real)
    sincos(phase.real, phase.real, phase.imag)
    parts = strengths * phase
    grid = np.zeros((len(parts), n_grid), complex)
    offsets = np.arange(1 - _TAPS, _TAPS + 1)
    slots = np.empty((_SPREAD_NODES, offsets.size), np.intp)
    taps, product = np.empty(slots.shape), np.empty(slots.shape, complex)
    for lo in range(0, nodes.size, _SPREAD_NODES):
        cut = slice(lo, lo + _SPREAD_NODES)
        xc = x[cut]
        s, t, p = slots[:xc.size], taps[:xc.size], product[:xc.size]
        np.add(np.floor(xc / h).astype(np.intp)[:, None], offsets, out=s)
        np.multiply(s, h, out=t)
        np.subtract(xc[:, None], t, out=t)
        np.square(t, out=t)
        t *= -0.25 / tau
        np.exp(t, out=t)
        np.remainder(s, n_grid, out=s)
        for row, part in zip(grid, parts[:, cut]):
            np.multiply(t, part[:, None], out=p)
            np.add.at(row, s.ravel(), p.ravel())
    coeffs = np.fft.ifft(grid, axis=1)
    m = np.arange(-mid, T - mid)
    return coeffs[:, m % n_grid] * (math.sqrt(math.pi / tau) * np.exp(m * m * tau))


def _evaluate(source, ts: np.ndarray, cos=(), sin=()) -> np.ndarray:
    """The rows of _direct_sums of a sorted lattice, by the Fourier route
    when it is uniform with more than _BLOCK times."""
    n = ts.size
    if n > _BLOCK:
        dt = (ts[-1] - ts[0]) / (n - 1)
        tol = _LATTICE_ULPS * np.spacing(ts[-1])
        if dt > 0 and np.max(np.abs(ts - (ts[0] + dt * np.arange(n)))) <= tol:
            sums = _fourier_sums(source.nodes, np.stack([*cos, *sin]), ts[0], dt, n)
            out = np.concatenate([sums[:len(cos)].real, sums[len(cos):].imag])
            # sin(0 omega) sums to exactly +0 on the direct route
            out[len(cos):, ts == 0] = 0.0
            return out
    return _direct_sums(source, ts, cos, sin)


@dataclass(frozen=True, eq=False)
class DynamicsKernels:
    """The three averaged kernels on a sorted time lattice.

    ``source`` is the measure they were summed over, which carries the
    oscillator's omega0."""

    times: np.ndarray
    k_cos: np.ndarray
    k_sin_over: np.ndarray
    k_sin_times: np.ndarray
    source: object = field(repr=False)

    def to_csv(self, path) -> None:
        write_csv(path, "t,k_cos,k_sin_over,k_sin_times",
                  [self.times, self.k_cos, self.k_sin_over, self.k_sin_times])


def kernels(source, times) -> DynamicsKernels:
    """Evaluate the three kernels at the given times: one cosine and two
    sine strength rows, summed together by one route.

    ``source`` is a continuum SpectralSolution (quadrature over its
    panels, first split by fano.refine_for_times for the largest
    requested time, and exact sums over its atoms) or a finite-bath
    NormalModeDecomposition (exact sums, no bound).  The result's
    ``source`` is the measure the kernels were summed over.
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if ts.ndim != 1 or ts.size == 0:
        raise UsageError("times must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(ts)) or np.any(ts < 0):
        raise UsageError("times must be finite and >= 0")
    if np.any(np.diff(ts) < 0):
        raise UsageError("times must be sorted ascending")
    if isinstance(source, fano.SpectralSolution):   # only panels undersample
        source = fano.refine_for_times(source, float(ts[-1]))
    w, wt = source.nodes, source.weights
    k_cos, k_sin_over, k_sin_times = _evaluate(source, ts, cos=[wt],
                                               sin=[wt / w, wt * w])
    if np.max(np.abs(k_cos)) > 1.0 + 1e-6:
        raise InternalConsistencyError(
            f"|k_cos| reached {np.max(np.abs(k_cos)):.6g} > 1: "
            "quadrature error exceeds its contract"
        )
    return DynamicsKernels(times=ts, k_cos=k_cos, k_sin_over=k_sin_over,
                           k_sin_times=k_sin_times, source=source)


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
    environment stationary; ``units`` must have the kernels' omega0."""
    units.require_omega0(kern.source.omega0)
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


def classify_damping(kern: DynamicsKernels) -> DampingClassification:
    """Scan k_sin_times for its first resolved zero in (0, t_max], the
    kernels' last time, over the measure they were summed on.

    A zero of k_sin_times is a stationary point of k_cos away from
    t = 0: present means the mean motion still oscillates
    (underdamped), absent over the window means it does not.  A
    crossing only counts when the kernel actually reaches below
    -DAMPING_FLOOR * omega0^2: every quadrature kernel wiggles at some
    tiny amplitude, and near the positivity margin the true dips fall
    orders of magnitude below the kernel's initial scale, so a
    strict sign test would call everything oscillatory.  Only
    k_sin_times' strength row is summed: over the whole scan lattice at
    once, again directly where the Fourier route leaves a value within
    its error bound of 0 or of the floor (so every comparison falls as
    in a direct scan), and directly, with its time derivative, at each
    root step.  The result records the window as ``scan_window`` and
    the floor as ``resolution``.
    """
    source, scan_window = kern.source, float(kern.times[-1])
    if not scan_window > 0:
        raise UsageError("the damping scan needs kernels past t = 0")
    step = _SCAN_STEP_FACTOR / source.omega0
    n = int(math.ceil(scan_window / step)) + 1
    # every scan time in (0, scan_window], the horizon the kernels resolve
    ts = np.linspace(min(step, scan_window), scan_window, n)
    floor = DAMPING_FLOOR * source.omega0**2
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
            # Newton steps from vals[j] < 0 <= vals[i] on direct sums of
            # k_sin_times and its slope <<omega^2 cos(omega t)>> (returned first)
            zero_at = float(fano.bracketed_newton(
                lambda t: _direct_sums(source, t, cos=[sin[0] * source.nodes], sin=sin)[::-1],
                ts[j], ts[i], xtol=1e-12, rtol=1e-14)[0])
        else:
            zero_at = float(ts[j])  # negative from the first sample on
        return DampingClassification("underdamped", zero_at, scan_window, DAMPING_FLOOR)
    return DampingClassification("non_oscillatory", None, scan_window, DAMPING_FLOOR)
