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
and O(N) memory: one sweep keeps each root's pole and offset; an
evolution sums eigenvector entries exactly over near roots and by
Chebyshev proxies over far ones (Fong & Darve, J. Comput. Phys. 228
(2009) 8712), never holding the (N+1)^2 matrix.  dlasd4 is called through
ctypes in the OpenBLAS bundled with numpy, so that no command imports
scipy for it; scipy's wrapper is the fallback where numpy's library
does not export it.

Everything in this module is deliberately independent of the fano
module: no Y, no principal values, no adaptive grids.  The two routes
share only what is evaluated over a (nodes, weights) measure, here
(Omegas, O_0k^2): the moments and the dynamics kernels.
"""

from __future__ import annotations

import ctypes
import dataclasses
import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from .csvio import write_csv
from .errors import InternalConsistencyError, PositivityError, UsageError, checked
from .fano import frequency_moment
from .spectra import CouplingSpectrum, UnitSystem, require_admissible

# evolve_reduced interpolates the inverse gaps of a block of poles over a
# box of roots a box width or more away at _CHEB Chebyshev points, to
# (3 + sqrt 8)^-_CHEB of their size.  A block of up to _TIMES times holds
# the 399 of scripts/relaxation_demo.py (4 MB of proxies at N = 4000)
_CHEB = 20
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
    then kept; only the tests read it.  Evolution takes the same
    inverse gaps, a block of rows against nearby roots at a time.

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

    def _inverse_gaps(self, rows: slice, roots: slice) -> np.ndarray:
        """g = 1/(omega_j^2 - Omega_k^2) for the kept poles omega_j =
        ``_secular.d[1:][rows]`` against the roots Omega_k in root order
        ``roots``.  Root k's eigenvector is overlaps[k] (1, -z_j g) over
        the oscillator then the coupled bath modes, 0 elsewhere.

        omega_j - Omega_k is formed as dlasd4 forms it, as (omega_j - d_o)
        - offset from the pole d_o the root was measured from (Gu &
        Eisenstat, SIAM J. Matrix Anal. Appl. 16 (1995) 172), so it is
        accurate even next to d_o; omega_j + Omega_k adds two positive
        numbers.  The eigenvectors then come out orthogonal to about
        1e-13 without recomputing z by Loewner's formula (Stor, Slapnicar
        & Barlow, Linear Algebra Appl. 464 (2015)).
        """
        eq = self._secular
        poles = eq.d[1:][rows, None]
        g = np.subtract(poles, eq.d[self._origin[roots]])
        g -= self._offset[roots]
        g *= poles + self.Omegas[self._rank[:eq.d.size][roots]]
        return np.reciprocal(g, out=g)

    @functools.cached_property
    def eigenvectors(self) -> np.ndarray:
        eq, rank = self._secular, self._rank
        o = np.zeros((rank.size, rank.size))
        at = eq.d.size
        kept = rank[:at]
        o[0, kept] = self.overlaps[kept]
        z = self.model.border[eq.coupled]
        for lo in range(0, eq.tau.size, 4 * _CHEB):
            bath = slice(*np.searchsorted(eq.pole_of, [lo, lo + 4 * _CHEB]))
            g = self._inverse_gaps(slice(lo, lo + 4 * _CHEB), slice(None))
            o[np.ix_(1 + eq.coupled[bath], kept)] = -z[bath, None] * g[eq.pole_of[bath] - lo] * o[0, kept]
        o[1 + eq.loose, rank[at:at + eq.loose.size]] = 1.0
        at += eq.loose.size
        for members, basis in eq.runs:
            o[np.ix_(1 + members, rank[at:at + basis.shape[1]])] = basis
            at += basis.shape[1]
        return o


@functools.cache
def _bundled_dlasd4():
    """LAPACK's dlasd4 in the OpenBLAS that numpy's wheel bundles
    (``scipy_dlasd4_64_``, 64-bit integers), or None where numpy was
    built against another LAPACK or the library is not found."""
    from numpy import __config__ as numpy_config

    lapack = getattr(numpy_config, "CONFIG", {}).get("Build Dependencies", {}).get("lapack", {})
    if (lapack.get("name") != "scipy-openblas"
            or "USE64BITINT" not in lapack.get("openblas configuration", "")):
        return None
    here = Path(np.__file__).parent
    for lib in sorted([*here.parent.glob("numpy.libs/*openblas*"), *here.glob(".dylibs/*openblas*")]):
        try:
            fn = ctypes.CDLL(str(lib)).scipy_dlasd4_64_
        except (OSError, AttributeError):
            continue
        # dlasd4(n, i, d, z, delta, rho, sigma, work, info), all by
        # reference.  No argtypes: _dlasd4 builds the nine arguments once
        # per sweep with their exact types, and argtypes would convert
        # them again on every call (about 10% of a sweep at N = 2000).
        fn.restype = None
        return fn
    return None


def _dlasd4(eq: _SecularEquation):
    """dlasd4 on the secular equation ``eq``: a function of the root
    index k = 0, 1, ... returning (delta, sigma, work, info) as
    scipy.linalg.lapack.dlasd4(k, eq.d, eq.u, eq.rho) does.

    Through numpy's OpenBLAS the arguments and the ``delta`` and
    ``work`` buffers are built once per sweep, and each call overwrites
    the buffers of the last.  Without that library this falls back on
    scipy's wrapper, imported here."""
    fn = _bundled_dlasd4()
    if fn is None:
        from scipy.linalg import lapack

        return lambda k: lapack.dlasd4(k, eq.d, eq.u, eq.rho)
    d, u = np.ascontiguousarray(eq.d, dtype=float), np.ascontiguousarray(eq.u, dtype=float)
    if u.shape != d.shape or d.ndim != 1:
        raise InternalConsistencyError(f"dlasd4 needs poles and border of one length, "
                                       f"got {d.shape} and {u.shape}")
    delta, work = np.empty(d.size), np.empty(d.size)
    i, sigma, info = ctypes.c_int64(), ctypes.c_double(), ctypes.c_int64()
    # each data_as pointer keeps its array alive
    ptr = ctypes.POINTER(ctypes.c_double)
    args = (ctypes.byref(ctypes.c_int64(d.size)), ctypes.byref(i),
            d.ctypes.data_as(ptr), u.ctypes.data_as(ptr), delta.ctypes.data_as(ptr),
            ctypes.byref(ctypes.c_double(eq.rho)), ctypes.byref(sigma),
            work.ctypes.data_as(ptr), ctypes.byref(info))

    def root(k: int):
        i.value = k + 1                 # Fortran counts roots from 1
        fn(*args)
        return delta, sigma.value, work, info.value

    return root


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
    root = _dlasd4(eq)
    for k in range(n):
        delta, sigma, work, info = root(k)
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
    gaps = np.diff(decomp.Omegas[decomp.weights > 0.0])   # Omegas ascend
    gaps = gaps[gaps > 0.0]
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


def _boxes(decomp: NormalModeDecomposition):
    """k boxes of about sqrt(n _CHEB / 3) roots in root order, box i
    roots edges[i]:edges[i+1], with row block J the kept poles
    ``_secular.d[1:][blocks[J]:blocks[J+1]]`` above box J's roots.  Block
    J sums exactly the hull lo[J]:hi[J] of the boxes closer than their
    own width to its poles; neither end falls as J grows.  Below n = 48
    _CHEB a proxy saves less than its second pass of cosines and sines
    costs: one box holds every root, and blocks 4 _CHEB poles."""
    eq = decomp._secular
    om = decomp.Omegas[decomp._rank[:eq.d.size]]
    n, m = om.size, eq.tau.size
    k = round(math.sqrt(3 * n / _CHEB)) if n > 48 * _CHEB else 1
    edges = n * np.arange(k + 1) // k
    blocks = np.minimum(edges, m) if k > 1 else np.append(np.arange(0, m, 4 * _CHEB), m)
    bottom, top = om[edges[:-1]], om[edges[1:] - 1]
    first, last = eq.d[1 + blocks[:-1], None], eq.d[blocks[1:], None]
    near = np.maximum(first - top, bottom - last) < top - bottom
    return blocks, edges, near.argmax(axis=1), near.shape[1] - near[:, ::-1].argmax(axis=1)


def _chebyshev(x: np.ndarray):
    """_CHEB Chebyshev points c (first kind) on [x[0], x[-1]] and Q, the
    Lagrange polynomials of c at x in barycentric form: f(x) ~ f(c) @ Q."""
    theta = (np.arange(_CHEB) + 0.5) * (math.pi / _CHEB)
    c = 0.5 * (x[0] + x[-1]) - 0.5 * (x[-1] - x[0]) * np.cos(theta)
    q = (np.sin(theta) * (-1.0) ** np.arange(_CHEB))[:, None] / (x - c[:, None])
    return c, q / q.sum(axis=0)


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
    a block of times puts pi_k cos and pi_k sin/Omega of each box of
    coupled roots (``_boxes``) in a matrix F_B, whose column sums are
    the oscillator's c and s.  A block of coupled bath modes takes c and
    s from its inverse gaps times F_B over near boxes and 1/(omega_j^2 -
    x^2) at far boxes' Chebyshev points x times Q_B F_B, d from K, and
    adds its share of the covariance.  Deflated modes have a_k = 0 and
    drop out.  Neither O nor the whole F is held; ``times`` may be unsorted.
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if ts.ndim != 1 or not np.all(np.isfinite(ts)):
        raise UsageError("times must be a 1-d sequence of finite numbers")
    x0r = checked(x0, "number", "x0") * math.sqrt(units.mass)
    p0r = checked(p0, "number", "p0") / math.sqrt(units.mass)
    if decomp is None:
        decomp = normal_modes(model)
    eq = decomp._secular
    kept = decomp._rank[:eq.d.size]
    pi = decomp.weights[kept]
    om = decomp.Omegas[kept]
    # the oscillator and the coupled bath modes; the others stay at rest
    bare = np.concatenate([[model.omega0], model.bath_freqs[eq.coupled]])
    z = model.border[eq.coupled]
    var_x0 = units.hbar / (2.0 * bare)   # mass-reduced
    var_p0 = units.hbar * bare / 2.0

    def share(c, s, d, modes):   # these rows' share of var_x, var_p and cov_xp
        vx, vp = var_x0[modes], var_p0[modes]
        return (vx @ (c * c) + vp @ (s * s), vx @ (d * d) + vp @ (c * c),
                vp @ (c * s) - vx @ (c * d))

    blocks, edges, lo, hi = _boxes(decomp)
    boxes = [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]
    points, proxies = np.zeros((len(boxes), _CHEB)), {}
    for i in [*range(lo.max(initial=0)), *range(hi.min(initial=len(boxes)), len(boxes))]:
        points[i], proxies[i] = _chebyshev(om[boxes[i]])

    out = np.zeros((5, ts.size))   # mean_x, mean_p, var_x, var_p, cov_xp
    for start in range(0, ts.size, _TIMES):
        blk = slice(start, start + _TIMES)
        n_t = ts[blk].size

        def trig(box):   # F_B = [pi cos(Omega t) | pi sin(Omega t)/Omega]
            F = np.empty((box.stop - box.start, 2 * n_t))
            np.multiply.outer(om[box], ts[blk], out=F[:, :n_t])
            np.sin(F[:, :n_t], out=F[:, n_t:])
            np.cos(F[:, :n_t], out=F[:, :n_t])
            F[:, :n_t] *= pi[box, None]
            F[:, n_t:] *= (pi[box] / om[box])[:, None]
            return F

        W = np.empty((len(boxes), _CHEB, 2 * n_t))
        cs0 = np.zeros(2 * n_t)
        near = {}   # F_B of the current row block's near boxes (the first's here)
        for i, box in enumerate(boxes):
            F = trig(box)
            cs0 += F.sum(axis=0)
            if i in proxies:
                np.matmul(proxies[i], F, out=W[i])
            if lo.size and i < hi[0]:
                near[i] = F
        c0, s0 = np.split(cs0[None], 2, axis=1)
        d0 = bare[0]**2 * s0
        for J in range(lo.size):
            near = {i: near[i] if i in near else trig(boxes[i]) for i in range(lo[J], hi[J])}
            rows = slice(blocks[J], blocks[J + 1])
            cs = sum(decomp._inverse_gaps(rows, boxes[i]) @ F for i, F in near.items())
            poles = eq.d[1 + rows.start:1 + rows.stop, None, None]
            for far in (slice(0, lo[J]), slice(hi[J], len(boxes))):
                A = 1.0 / ((poles - points[far]) * (poles + points[far]))
                cs += A.reshape(A.shape[0], -1) @ W[far].reshape(-1, 2 * n_t)
            bath = slice(*np.searchsorted(eq.pole_of, [rows.start, rows.stop]))
            if eq.runs:
                cs = cs[eq.pole_of[bath] - rows.start]
            cs *= -z[bath, None]
            c, s = np.split(cs, 2, axis=1)
            modes = slice(1 + bath.start, 1 + bath.stop)
            d = (bare[modes]**2)[:, None] * s + z[bath, None] * s0
            d0 += z[bath] @ s
            out[2:, blk] += share(c, s, d, modes)
        out[:2, blk] = np.vstack([c0 * x0r + s0 * p0r, -d0 * x0r + c0 * p0r])
        out[2:, blk] += share(c0, s0, d0, slice(1))
    mean_x, mean_p, var_x, var_p, cov_xp = out
    rm = units.mass
    return ReducedTrajectory(ts, mean_x / math.sqrt(rm), mean_p * math.sqrt(rm),
                             var_x / rm, var_p * rm, cov_xp)


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
    bins = checked(bins, "integer >= 1", "bins")
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
