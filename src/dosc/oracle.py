"""Finite-bath brute force: the ground truth for the continuum results.

The oscillator plus N bath modes is a positive-definite quadratic form.
In mass-reduced coordinates (x -> sqrt(m) x, so every mass is 1) the
Hamiltonian is  H = p.p/2 + x.K x/2  with

    K[0,0] = omega0^2,   K[k,k] = omega_k^2,
    K[0,k] = V_k sqrt(omega0 omega_k),

where V_k = V(omega_k) sqrt(w_k) carries the quadrature weight of the
bath discretisation.  Exact diagonalisation of K gives normal modes
Omega_k, oscillator overlaps O_0k, and discrete weights pi_k = O_0k^2,
against which every continuum quantity is validated:

* pi_k histograms converge to pi(omega) in L1,
* sum rules hold exactly (matrix identities, not quadrature),
* the ground covariance (var_x = (hbar/2m) sum pi_k/Omega_k, etc.)
  is groundstate.ground_state_moments of the decomposition,
* time evolution is assembled from normal-mode cosines and sines,
  with no time-stepping error.

K is an arrowhead matrix (a diagonal plus one border row), so it is
never formed to be diagonalised.  Its eigenvalues are the roots of a
secular equation, one per interlacing bracket, found by LAPACK's
dlasd4 as offsets from the nearest pole; the weights and eigenvector
columns follow in closed form from those offsets.  That is O(N^2) time
and O(N) memory: one sweep keeps each root's pole and offset, and an
evolution rebuilds the eigenvector columns a block of roots at a time
instead of holding the (N+1) x (N+1) matrix.

Everything in this module is deliberately independent of the fano
module: no Y, no principal values, no adaptive grids.  The two routes
share only what is evaluated over a (nodes, weights) measure, here
(Omegas, O_0k^2): the moments and the dynamics kernels.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.linalg import lapack

from .csvio import write_csv
from .errors import InternalConsistencyError, PositivityError, UsageError, checked
from .fano import frequency_moment
from .spectra import CouplingSpectrum, UnitSystem, require_admissible

# evolve_reduced rebuilds the eigenvector columns _ROOTS at a time and
# sums them into an accumulator of 2 _TIMES columns: 4 MB of columns and
# at most 33 MB of accumulator at N = 4000, whatever the number of times.
# Each block of times rebuilds all N columns (about 0.09 s at N = 4000),
# so a block holds the 399 times of scripts/relaxation_demo.py
_ROOTS = 128
_TIMES = 512


@dataclass(frozen=True, eq=False)
class FiniteBathModel:
    """Oscillator + N bath modes as a quadratic form.

    Construct directly for manual models (the two-mode reference is
    ``FiniteBathModel(omega0=1.0, bath_freqs=[1.0], couplings=[0.5])``)
    or through :func:`discretize` for a given coupling spectrum.

    Attributes
    ----------
    omega0 : float
        Oscillator frequency.
    bath_freqs : ndarray, shape (N,)
        Bath mode frequencies, strictly positive.
    couplings : ndarray, shape (N,)
        Weighted couplings V_k = V(omega_k) sqrt(w_k).
    discrete_margin : float
        omega0 - sum V_k^2/omega_k.  Positive iff K is positive
        definite (Schur complement on the oscillator row).

    ``K``, the symmetric (N+1) x (N+1) frequency-squared matrix, is
    built on first access; the normal modes need only its border.
    """

    omega0: float
    bath_freqs: np.ndarray
    couplings: np.ndarray
    discrete_margin: float = field(init=False)

    def __post_init__(self):
        w = np.atleast_1d(np.asarray(self.bath_freqs, dtype=float))
        v = np.atleast_1d(np.asarray(self.couplings, dtype=float))
        if w.ndim != 1 or w.shape != v.shape or w.size < 1:
            raise UsageError("bath_freqs and couplings must be matching 1-d arrays")
        if not np.all(np.isfinite(w)) or not np.all(w > 0):
            raise UsageError("bath frequencies must be finite and positive")
        if not np.all(np.isfinite(v)):
            raise UsageError("couplings must be finite")
        object.__setattr__(self, "omega0", checked(self.omega0, "number > 0", "omega0"))
        object.__setattr__(self, "bath_freqs", w)
        object.__setattr__(self, "couplings", v)
        object.__setattr__(
            self, "discrete_margin", self.omega0 - float(np.sum(v * v / w))
        )

    @property
    def n_modes(self) -> int:
        return self.bath_freqs.size

    @property
    def bare_freqs(self) -> np.ndarray:
        """Frequencies of the uncoupled constituents: omega0 then the bath."""
        return np.concatenate([[self.omega0], self.bath_freqs])

    @property
    def border(self) -> np.ndarray:
        """K[0, 1:] = V_k sqrt(omega0 omega_k)."""
        return self.couplings * np.sqrt(self.omega0 * self.bath_freqs)

    @functools.cached_property
    def K(self) -> np.ndarray:
        K = np.diag(self.bare_freqs**2)
        K[0, 1:] = K[1:, 0] = self.border
        return K


def discretize(spec: CouplingSpectrum, units: UnitSystem, N: int,
               scheme: str = "uniform") -> FiniteBathModel:
    """Discretise a coupling spectrum into an N-mode bath.

    Parameters
    ----------
    spec, units
        Continuum model; must pass the positivity check.
    N : int
        Number of bath modes; an integral float such as 1000.0 counts.
    scheme : {"uniform", "gauss_like"}
        ``uniform``: midpoint rule on (0, omega_max], spacing
        omega_max/N, which makes the recurrence time 2 pi N / omega_max
        transparent.  ``gauss_like``: Gauss-Legendre nodes and weights
        scaled to (0, omega_max].

    Raises
    ------
    PositivityError
        If the continuum model is inadmissible, or if the discrete sum
        sum V_k^2/omega_k overshoots omega0 on a coarse grid (advice:
        increase N).
    """
    N = checked(N, "integer >= 1", "N")
    require_admissible(spec, units)
    top = spec.omega_max
    if scheme == "uniform":
        dw = top / N
        freqs = (np.arange(N) + 0.5) * dw
        weights = np.full(N, dw)
    elif scheme == "gauss_like":
        x, w = np.polynomial.legendre.leggauss(N)
        freqs = 0.5 * top * (x + 1.0)
        weights = 0.5 * top * w
    else:
        raise UsageError(f"unknown discretisation scheme {scheme!r}")
    couplings = np.asarray(spec.v(freqs)) * np.sqrt(weights)
    model = FiniteBathModel(units.omega0, freqs, couplings)
    if model.discrete_margin <= 0:
        raise PositivityError(
            f"discrete positivity violated at N={N} ({scheme}): "
            f"sum V_k^2/omega_k = {units.omega0 - model.discrete_margin:.6g} "
            f">= omega0; increase N so the quadrature stops overshooting",
            detail={"N": N, "scheme": scheme, "margin": model.discrete_margin},
        )
    return model


@dataclass(frozen=True, eq=False)
class _SecularEquation:
    """The secular equation of K, its poles sorted and deflated.

    With the border last, the Cholesky factor L of K satisfies
    L^T L = diag(0, omega_1^2, ..., omega_N^2) + u u^T with
    u = (sqrt(omega0 margin), z_j/omega_j) and z_j = K[0, j], so the
    Omega_k are the singular values that LAPACK's dlasd4 finds for the
    poles ``d`` and the unit border ``u`` scaled by ``rho``.

    dlasd4 needs strictly increasing poles and no zero in ``u``, so the
    bath is sorted and deflated first, as dlasd2 does.  A mode with
    |u_j| <= tol is an uncoupled normal mode (``loose``).  In a run of
    poles each within tol of the previous one, a rotation leaves only
    the last pole coupled, with the run's coupling norm; the others
    become normal modes at their own poles spanning the complement of
    the run's couplings (``runs``: bath indices and those columns).
    """

    d: np.ndarray          # (0, kept poles), strictly increasing
    u: np.ndarray          # unit border of L^T L
    rho: float             # its squared norm
    tau: np.ndarray        # |coupling| of each kept pole in K
    coupled: np.ndarray    # bath index of each coupled mode, ascending omega
    pole_of: np.ndarray    # index into tau of its kept pole
    loose: np.ndarray      # bath indices of uncoupled modes
    runs: list             # (bath indices, complement columns) per run
    deflated: np.ndarray   # frequencies of the loose, then the run modes


def _secular_equation(model: FiniteBathModel) -> _SecularEquation:
    w = model.bath_freqs
    z = model.border
    order = np.argsort(w, kind="stable")
    u_bath = np.abs(z[order] / w[order])
    s = math.sqrt(model.omega0 * model.discrete_margin)
    tol = 8.0 * np.finfo(float).eps * max(float(w[order[-1]]), s, float(u_bath.max()))
    coupled = order[u_bath > tol]
    loose = order[u_bath <= tol]

    wc = w[coupled]
    pole_of = np.cumsum(np.diff(wc, prepend=wc[:1]) > tol)
    ends = np.flatnonzero(np.diff(pole_of, append=-1) != 0)
    poles = wc[ends]
    tau = np.sqrt(np.bincount(pole_of, weights=z[coupled] ** 2, minlength=ends.size))
    u = np.concatenate([[s], tau / poles])
    rho = float(u @ u)

    runs = []
    sizes = np.diff(ends, prepend=-1)
    for end, size in zip(ends[sizes > 1], sizes[sizes > 1]):
        members = coupled[end - size + 1:end + 1]
        # Householder reflector taking the run's couplings to its first
        # axis: its other columns span their complement
        x = z[members] / np.linalg.norm(z[members])
        v = x.copy()
        v[0] += math.copysign(1.0, x[0])
        h = np.eye(size) - (2.0 / (v @ v)) * np.outer(v, v)
        runs.append((members, h[:, 1:]))
    deflated = np.concatenate([w[loose], *(w[m[:-1]] for m, _ in runs)])
    return _SecularEquation(
        d=np.concatenate([[0.0], poles]), u=u / math.sqrt(rho), rho=rho,
        tau=tau, coupled=coupled, pole_of=pole_of, loose=loose, runs=runs,
        deflated=deflated,
    )


@dataclass(frozen=True, eq=False)
class NormalModeDecomposition:
    """Exact normal modes of a finite-bath model.

    Attributes
    ----------
    Omegas : ndarray, shape (N+1,)
        Normal-mode frequencies, ascending.
    overlaps : ndarray, shape (N+1,)
        First components O_0k >= 0 of the orthonormal eigenvectors.
    weights : ndarray, shape (N+1,)
        pi_k = O_0k^2; sums to 1 by orthogonality.
    model : FiniteBathModel
        The model this decomposition belongs to.

    ``eigenvectors``, the full matrix O (columns, first row
    ``overlaps``), is built on first access from the roots' offsets and
    then kept; only the tests read it.  Evolution rebuilds the columns
    it needs a block at a time.

    ``nodes`` (the Omegas) and ``weights`` make it the same kind of
    measure as a continuum solution, for fano.moment and the dynamics
    kernels.
    """

    Omegas: np.ndarray
    overlaps: np.ndarray
    weights: np.ndarray
    model: FiniteBathModel = field(repr=False)
    _secular: _SecularEquation = field(repr=False)
    _rank: np.ndarray = field(repr=False)     # position of each root, then each deflated mode
    _origin: np.ndarray = field(repr=False)   # pole each root was measured from
    _offset: np.ndarray = field(repr=False)   # Omega_k - d[origin]

    @property
    def nodes(self) -> np.ndarray:
        return self.Omegas

    @property
    def omega0(self) -> float:
        return self.model.omega0

    def _columns(self, roots: slice) -> np.ndarray:
        """Unnormalised eigenvector columns (1, -z_j/(omega_j^2 - Omega_k^2))
        of a block of roots, over the oscillator then the coupled bath
        modes (``_secular.coupled``); every other component is 0.

        omega_j - Omega_k is formed as dlasd4 forms it, as
        (omega_j - d_o) - offset from the pole d_o the root was measured
        from (Gu & Eisenstat, SIAM J. Matrix Anal. Appl. 16 (1995) 172),
        so it is accurate even next to d_o; omega_j + Omega_k adds two
        positive numbers.  Their product is then accurate too, and the
        columns come out orthogonal to about 1e-13 without recomputing z
        by Loewner's formula (Stor, Slapnicar & Barlow, Linear Algebra
        Appl. 464 (2015)).  The columns scaled by ``overlaps`` are those
        of O.
        """
        eq = self._secular
        poles = eq.d[1:, None]
        gap = poles - eq.d[self._origin[roots]]
        gap -= self._offset[roots]
        gap *= poles + self.Omegas[self._rank[:self._origin.size][roots]]
        if eq.runs:
            gap = gap[eq.pole_of]
        cols = np.empty((1 + eq.coupled.size, gap.shape[1]))
        cols[0] = 1.0
        np.divide(-self.model.border[eq.coupled, None], gap, out=cols[1:])
        return cols

    @functools.cached_property
    def eigenvectors(self) -> np.ndarray:
        eq, rank = self._secular, self._rank
        o = np.zeros((rank.size, rank.size))
        rows = np.concatenate([[0], 1 + eq.coupled])
        at = eq.d.size
        for lo in range(0, at, _ROOTS):
            blk = slice(lo, lo + _ROOTS)
            kept = rank[:at][blk]
            o[np.ix_(rows, kept)] = self._columns(blk) * self.overlaps[kept]
        o[1 + eq.loose, rank[at:at + eq.loose.size]] = 1.0
        at += eq.loose.size
        for members, basis in eq.runs:
            o[np.ix_(1 + members, rank[at:at + basis.shape[1]])] = basis
            at += basis.shape[1]
        return o


def normal_modes(model: FiniteBathModel) -> NormalModeDecomposition:
    """Normal modes of K from its secular equation: O(N^2) time, O(N)
    memory.  The eigenvectors follow on demand.

    dlasd4 takes each root as an offset from its nearest pole and
    returns omega_j - Omega_k and omega_j + Omega_k accurately; the
    weights come from their products, and the pole and offset are kept
    so that the eigenvector columns can be rebuilt from them.

    Raises PositivityError when ``discrete_margin <= 0``, before any
    solve: K is positive definite exactly when the Schur complement
    omega0 * discrete_margin is positive.
    """
    if model.discrete_margin <= 0:
        raise PositivityError(
            f"K is not positive definite: sum V_k^2/omega_k = "
            f"{model.omega0 - model.discrete_margin:.6g} >= omega0 = "
            f"{model.omega0:.6g}, coupling too strong for a stable ground state",
            detail={"discrete_margin": model.discrete_margin},
        )
    eq = _secular_equation(model)
    n = eq.d.size
    omegas = np.concatenate([np.empty(n), eq.deflated])
    weights = np.zeros(omegas.size)
    origin = np.empty(n, dtype=np.intp)
    offset = np.empty(n)
    for k in range(n):
        delta, sigma, work, info = lapack.dlasd4(k, eq.d, eq.u, eq.rho)
        if info != 0:
            raise InternalConsistencyError(
                f"dlasd4 failed on root {k} of {n} of the secular "
                f"equation of K (info = {info})")
        # root k lies above pole k, below pole k + 1 if there is one;
        # delta is 0 - offset at the pole it was measured from
        o = k if k + 1 == n or abs(delta[k]) <= abs(delta[k + 1]) else k + 1
        origin[k] = o
        offset[k] = -delta[o]
        gap = delta[1:]
        gap *= work[1:]
        ratio = np.divide(eq.tau, gap, out=gap)
        omegas[k] = sigma
        weights[k] = 1.0 / (1.0 + ratio @ ratio)
    order = np.argsort(omegas, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    weights = weights[order]
    return NormalModeDecomposition(
        Omegas=omegas[order], overlaps=np.sqrt(weights), weights=weights,
        model=model, _secular=eq, _rank=rank, _origin=origin, _offset=offset,
    )


def recurrence_estimate(decomp: NormalModeDecomposition) -> float:
    """2 pi / (minimum spacing of distinct normal-mode frequencies the
    oscillator sees): the quasi-period bound that windows every
    relaxation statement at finite N.  Modes of weight 0 (uncoupled or
    deflated bath modes, which sit at their own bare frequencies, as
    little as 1 ulp apart within a near-degenerate run) never reach the
    oscillator and do not count; with a single such frequency nothing
    dephases and the bound is infinite."""
    gaps = np.diff(np.unique(decomp.Omegas[decomp.weights > 0.0]))
    return 2.0 * math.pi / float(gaps.min()) if gaps.size else math.inf


# ---------------------------------------------------------------------------
# evolution

@dataclass(frozen=True, eq=False)
class ReducedTrajectory:
    """Reduced oscillator along an evolution: physical units."""

    times: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray
    var_x: np.ndarray
    var_p: np.ndarray
    cov_xp: np.ndarray


def evolve_reduced(model: FiniteBathModel, units: UnitSystem,
                   x0: float, p0: float, times: Sequence[float],
                   decomp: NormalModeDecomposition | None = None) -> ReducedTrajectory:
    """Reduced oscillator evolution from the displaced product state.

    Initial state: oscillator ground state displaced by physical
    (x0, p0), bath modes in their bare ground states, coupling switched
    on at t = 0.  The initial covariance is diagonal, so only the first
    rows of the position, momentum and velocity propagators matter:
    c = O (a cos(Omega t)), s = O (a sin(Omega t)/Omega) and
    d = O (a Omega sin(Omega t)) = K s, with O the eigenvectors and a
    the overlaps.  With O's columns a_k (1, -z_j/(omega_j^2 - Omega_k^2)),
    c and s are sums over the coupled roots of those unnormalised
    columns times pi_k cos and pi_k sin/Omega, accumulated a block of
    roots and a block of times at a time; deflated modes have a_k = 0
    and drop out.  d follows from the arrowhead K in O(N) per time.
    O is never held: the memory is O(N) per time of a block.
    """
    if decomp is None:
        decomp = normal_modes(model)
    eq = decomp._secular
    kept = decomp._rank[:eq.d.size]
    pi = decomp.weights[kept]
    om = decomp.Omegas[kept]
    # the oscillator and the coupled bath modes; the others stay at rest
    bare = np.concatenate([[model.omega0], model.bath_freqs[eq.coupled]])
    z = model.border[eq.coupled]
    hbar = units.hbar
    var_x0 = hbar / (2.0 * bare)   # mass-reduced
    var_p0 = hbar * bare / 2.0

    x0r = x0 * math.sqrt(units.mass)
    p0r = p0 / math.sqrt(units.mass)

    ts = np.asarray(times, dtype=float)
    mean_x = np.empty_like(ts)
    mean_p = np.empty_like(ts)
    var_x = np.empty_like(ts)
    var_p = np.empty_like(ts)
    cov_xp = np.empty_like(ts)
    for lo in range(0, ts.size, _TIMES):
        blk = slice(lo, lo + _TIMES)
        acc = np.zeros((bare.size, 2 * ts[blk].size))
        for r in range(0, kept.size, _ROOTS):
            roots = slice(r, r + _ROOTS)
            phase = np.outer(om[roots], ts[blk])
            acc += decomp._columns(roots) @ np.hstack([
                pi[roots, None] * np.cos(phase),
                (pi[roots] / om[roots])[:, None] * np.sin(phase),
            ])
        c, s = np.split(acc, 2, axis=1)
        d = (bare**2)[:, None] * s
        d[0] += z @ s[1:]
        d[1:] += z[:, None] * s[0]
        mean_x[blk] = c[0] * x0r + s[0] * p0r
        mean_p[blk] = -d[0] * x0r + c[0] * p0r
        var_x[blk] = var_x0 @ (c * c) + var_p0 @ (s * s)
        var_p[blk] = var_x0 @ (d * d) + var_p0 @ (c * c)
        cov_xp[blk] = var_p0 @ (c * s) - var_x0 @ (c * d)
        # free this block's rows before the next block allocates its own
        del acc, c, s, d
    rm = units.mass
    return ReducedTrajectory(
        times=ts,
        mean_x=mean_x / math.sqrt(rm),
        mean_p=mean_p * math.sqrt(rm),
        var_x=var_x / rm,
        var_p=var_p * rm,
        cov_xp=cov_xp,
    )


# ---------------------------------------------------------------------------
# comparison against the continuum solution

@dataclass(frozen=True, eq=False)
class ComparisonReport:
    """Per-observable relative errors, continuum vs finite bath."""

    N: int
    scheme: str
    bins: int
    rel_var_x: float
    rel_var_p: float
    rel_mean_freq: float
    rel_mean_inv_freq: float
    histogram_l1: float
    recurrence: float
    discrete_margin: float
    hist_edges: np.ndarray = field(repr=False)
    hist_density: np.ndarray = field(repr=False)
    hist_continuum: np.ndarray = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "N": self.N, "scheme": self.scheme, "bins": self.bins,
            "rel_var_x": self.rel_var_x, "rel_var_p": self.rel_var_p,
            "rel_mean_freq": self.rel_mean_freq,
            "rel_mean_inv_freq": self.rel_mean_inv_freq,
            "histogram_l1": self.histogram_l1,
            "recurrence": self.recurrence,
            "discrete_margin": self.discrete_margin,
        }

    def histogram_csv(self, path) -> None:
        write_csv(path, "bin_lo,bin_hi,density_discrete,density_continuum",
                  [self.hist_edges[:-1], self.hist_edges[1:],
                   self.hist_density, self.hist_continuum])


def _bin_averaged_continuum(sol, edges: np.ndarray) -> np.ndarray:
    """Average of the continuum pi over each bin, by trapezoid on the
    solution grid augmented with interpolated bin edges."""
    w = sol.omegas
    pi = sol.pi
    out = np.empty(edges.size - 1)
    for i, (a, b) in enumerate(zip(edges[:-1], edges[1:])):
        inside = (w > a) & (w < b)
        xs = np.concatenate([[a], w[inside], [b]])
        ys = np.concatenate([
            [np.interp(a, w, pi, left=0.0, right=0.0)],
            pi[inside],
            [np.interp(b, w, pi, left=0.0, right=0.0)],
        ])
        out[i] = np.trapezoid(ys, xs) / (b - a)
    return out


def compare_with_continuum(sol, units: UnitSystem, N: int,
                           scheme: str = "uniform", bins: int = 160,
                           bath_omega_max: float | None = None) -> ComparisonReport:
    """Discretise the solution's spectrum, diagonalise, and report the
    relative errors of the headline observables plus the binned L1
    distance between discrete and continuum frequency densities.

    ``bath_omega_max`` truncates the bath only: the continuum solution
    keeps its full support (where the tolerance-critical sum-rule mass
    lives) while the bath grid stops earlier, trading far-tail weight
    (negligible for var_x/var_p) for resolution at fixed N.
    """
    bath_spec = sol.spec
    if bath_omega_max is not None:
        bath_spec = dataclasses.replace(bath_spec, omega_max=float(bath_omega_max))
    model = discretize(bath_spec, units, N, scheme)
    decomp = normal_modes(model)
    m1 = frequency_moment(sol, 1)
    minv = frequency_moment(sol, -1)
    rel_m1 = abs(frequency_moment(decomp, 1) - m1) / m1
    rel_minv = abs(frequency_moment(decomp, -1) - minv) / minv

    top = max(float(model.bath_freqs.max() + model.bath_freqs[0]),
              float(decomp.Omegas[-1]) * (1.0 + 1e-12))
    edges = np.linspace(0.0, top, bins + 1)
    counts, _ = np.histogram(decomp.Omegas, bins=edges, weights=decomp.weights)
    density = counts / np.diff(edges)
    cont_avg = _bin_averaged_continuum(sol, edges)
    l1 = float(np.sum(np.abs(density - cont_avg) * np.diff(edges)))

    # var_x = (hbar/2m) Minv and var_p = (hbar m/2) M1 on both sides: the
    # prefactors cancel in the relative errors
    return ComparisonReport(
        N=N, scheme=scheme, bins=bins,
        rel_var_x=rel_minv,
        rel_var_p=rel_m1,
        rel_mean_freq=rel_m1,
        rel_mean_inv_freq=rel_minv,
        histogram_l1=l1,
        recurrence=recurrence_estimate(decomp),
        discrete_margin=model.discrete_margin,
        hist_edges=edges, hist_density=density, hist_continuum=cont_avg,
    )
