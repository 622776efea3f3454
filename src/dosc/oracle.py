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
secular equation, one per interlacing bracket, found all at once as
offsets from the nearest pole by a vectorised iteration of LAPACK
dlasd4's scheme; the weights and eigenvector columns follow in closed
form from those offsets.  Both the solve and an evolution sum over near
poles or roots exactly and over far ones through Chebyshev points (Fong
& Darve, J. Comput. Phys. 228 (2009) 8712; Livne & Brandt, SIAM J.
Matrix Anal. Appl. 24 (2002) 439).  The solve builds the far field once,
on a binary tree of boxes of poles: a wide box's poles become a
multipole at its Chebyshev points, translated box to box, and the
narrow boxes near the leaves are summed pole by pole.  Each step of the
iteration then sweeps every root not yet done in regular chunks: its
near poles exactly, its leaf's far field by interpolation.  The solve
takes O(N log N) time and, like the evolution, O(N) memory, never
holding the (N+1)^2 matrix.  The evolution takes the roots' cosines and
sines in two passes, one for the multipoles and one for the near sums.

Everything in this module is deliberately independent of the fano
module: no Y, no principal values, no panels.  The two routes share
only what is evaluated over a (nodes, weights) measure, here
(Omegas, O_0k^2): the moments and the dynamics kernels, and with the
kernels the one implementation of cosines and sines, dynamics.sincos.
The comparison bins both sides with fano.bin_masses, the continuum's on
the solution split at the bin edges, where pi's bin masses are exact.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .csvio import write_csv
from .dynamics import _TRIG_CHUNK, sincos
from .errors import InternalConsistencyError, PositivityError, UsageError, checked
from .fano import bin_masses, frequency_moment
from .spectra import CouplingSpectrum, UnitSystem, require_admissible

# evolve_reduced interpolates the inverse gaps between a block of poles
# and a box of roots at least both widths apart at _CHEB Chebyshev points
# on each side, to (3 + sqrt 8)^-_CHEB of their size, _GROUP row blocks a
# product.  It builds each row block's inverse gaps and translations anew
# for every block of times, so its blocks are long: of equal size, at
# least _TIMES times and the boxes' multipoles within about _W_BYTES (2
# blocks of 120 times at N = 4000 on the benchmark's 240, one at 2000).
# Its window over the roots fills half a chunk (roots x times) or more at
# a time, each half of F contiguous: numpy's passes over strided halves
# ran at half the speed.  The secular solver's tree of boxes stops at
# leaves of at most _LEAF poles; up to _ONE_LEAF poles it has one leaf,
# where the exact sums cost less than the levels would save.  It steps
# every root at once, at most _MAX_ITER times.  Every temporary over poles
# or roots holds about sincos's _TRIG_CHUNK entries: 1.9 MB at N = 4000
_CHEB = 20
_TIMES = 128
_W_BYTES = 5 * 2**19
_GROUP = 4
_COS = np.cos((np.arange(_CHEB) + 0.5) * (math.pi / _CHEB))
_LAMBDA = np.sin((np.arange(_CHEB) + 0.5) * (math.pi / _CHEB)) * (-1.0) ** np.arange(_CHEB)
_LEAF = 12
_ONE_LEAF = 192
_MAX_ITER = 64
_EPS = float(np.finfo(float).eps)


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
    def border(self) -> np.ndarray:
        """K[0, 1:] = V_k sqrt(omega0 omega_k)."""
        return self.couplings * np.sqrt(self.omega0 * self.bath_freqs)

    @functools.cached_property
    def K(self) -> np.ndarray:
        K = np.diag(np.concatenate([[self.omega0], self.bath_freqs]) ** 2)
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
    scheme : {"uniform"}
        The midpoint rule on (0, omega_max], spacing omega_max/N, which
        makes the recurrence time 2 pi N / omega_max transparent.  Any
        other value raises UsageError.

    Raises
    ------
    PositivityError
        If the continuum model is inadmissible, or if the discrete sum
        sum V_k^2/omega_k overshoots omega0 on a coarse grid (advice:
        increase N).
    """
    N = checked(N, "integer >= 1", "N")
    if scheme != "uniform":
        raise UsageError(f"discretisation scheme must be 'uniform', got {scheme!r}")
    require_admissible(spec, units)
    dw = spec.omega_max / N
    freqs = (np.arange(N) + 0.5) * dw
    couplings = np.sqrt(spec.v_sq(freqs)) * math.sqrt(dw)
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
    Omega_k are the singular values of diag(d) with the unit border
    ``u`` scaled by ``rho``: the roots of 1 + rho sum_j u_j^2/(d_j^2 -
    Omega^2) (_solve_secular).

    The roots interlace the poles only if these strictly increase and no
    u_j is zero, so the bath is sorted and deflated first, as LAPACK's
    dlasd2 does.  A mode with |u_j| <= tol is an uncoupled normal mode
    (``loose``).  In a run of poles each within tol of the previous one,
    a rotation leaves only the last pole coupled, with the run's coupling
    norm; the others become normal modes at their own poles spanning the
    complement of the run's couplings (``runs``: bath indices and those
    columns).
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
    weights : ndarray, shape (N+1,)
        pi_k = O_0k^2, with O_0k >= 0 the first components of the
        orthonormal eigenvectors; sums to 1 by orthogonality.
    model : FiniteBathModel
        The model this decomposition belongs to.

    ``eigenvectors``, the full matrix O (columns, first row
    sqrt(weights)), is built on first access from the roots' offsets and
    then kept; the tests read it, and so does the benchmark's tracer
    (perfbench/tracer.py, for its count of normal_modes' bytes), which
    pins the name.  Evolution takes the same
    inverse gaps, a block of rows against nearby roots at a time.

    ``nodes`` (the Omegas) and ``weights`` make it the same kind of
    measure as a continuum solution, for fano.moment and the dynamics
    kernels, and ``margin`` (the model's discrete_margin) for
    fano.identity_defect: every normal mode is an atom of the measure.
    """

    Omegas: np.ndarray
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

    @property
    def margin(self) -> float:
        return self.model.discrete_margin

    def _inverse_gaps(self, rows: slice, roots: slice) -> np.ndarray:
        """g = 1/(omega_j^2 - Omega_k^2) for the kept poles omega_j =
        ``_secular.d[1:][rows]`` against the roots Omega_k in root order
        ``roots``.  Root k's eigenvector is sqrt(weights[k]) (1, -z_j g) over
        the oscillator then the coupled bath modes, 0 elsewhere.

        omega_j - Omega_k is formed as the solver forms it, as (omega_j -
        d_o) - offset from the pole d_o the root was measured from (Gu &
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
        o[0, kept] = np.sqrt(self.weights[kept])
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


def _pole_sources(d, wt, e, a):
    """The poles of each box e[i]:e[i+1] but pole 0, and their weights, as
    columns padded to the largest box with weight 0 at the anchor a[i]."""
    first = np.maximum(e[:-1], 1)
    j = first + np.arange(np.max(e[1:] - first))[:, None]
    pad = j >= e[1:]
    j[pad] = 0
    return np.where(pad, a, d[j]), np.where(pad, 0.0, wt[j])


def _anterpolate(x, src, c):
    """Weights ``src`` at the offsets x (m, boxes), moved to each box's
    Chebyshev points c: W_i = sum_j src_j L_i(x_j).  For every polynomial
    p of degree below _CHEB, sum_i W_i p(c_i) = sum_j src_j p(x_j)."""
    out = np.empty((_CHEB, x.shape[1]))
    step = max(1, _TRIG_CHUNK // (_CHEB * x.shape[0]))
    for at in range(0, x.shape[1], step):
        r = slice(at, at + step)
        out[:, r] = np.einsum("jb,jib->ib", src[:, r], _lagrange(x[:, r], c[:, r]))
    return out


def _translate(vals, t, s, half, a, c, sa, x, src):
    """Add to the values of target boxes t at their Chebyshev points
    (offsets c from the anchors a) the sums src_j/(y_j^2 - sigma^2) and
    src_j/(y_j^2 - sigma^2)^2 over the sources y_j of the boxes s (offsets
    x from the anchors sa): into psi, psi' where ``half`` is 0 (sources
    below), phi, phi' where it is 1.  y_j^2 - sigma^2 is u (u + 2 a_t) -
    c (c + 2 a_t), u = (sa_s - a_t) + x, from offsets from the target's
    anchor that a far pair never makes cancel.  A multipole's points are
    offsets from its box's anchor, within a width that is far from the
    target; poles are their own positions (sa = 0), since a wide box can
    hold poles close to the target, whose offsets from its anchor would
    have lost the gap's last digits.  Pairs come sorted by (half, t),
    and each run of equal (half, t) is summed in order."""
    vals = vals.reshape(2, 2, _CHEB, -1)
    step = max(1, _TRIG_CHUNK // (x.shape[0] * _CHEB))
    for at in range(0, t.size, step):
        r = slice(at, at + step)
        tr, sr = t[r], s[r]
        y, ct, w = np.take(x, sr, axis=1), np.take(c, tr, axis=1), np.take(src, sr, axis=1)
        u = (sa[sr] - a[tr]) + y
        u *= u + 2.0 * a[tr]
        ct *= ct + 2.0 * a[tr]
        g = np.subtract(u[:, None], ct)
        g = np.reciprocal(g, out=g)
        sums = np.stack([np.einsum("jip,jp->ip", g, w),
                         np.einsum("jip,jp->ip", np.square(g, out=g), w)])
        key = half[r] * vals.shape[-1] + tr
        first = np.flatnonzero(np.diff(key, prepend=-1))
        runs = np.add.reduceat(sums, first, axis=-1)
        vals[half[r][first], :, :, tr[first]] += runs.transpose(2, 0, 1)


def _far_field(d: np.ndarray, wt: np.ndarray):
    """Far poles of the interior roots' secular sums, by a binary tree of
    boxes of poles.  Box i of 2^l at level l holds the poles e[i]:e[i+1]
    and the roots of the brackets above them, which lie in [a, a + w] =
    [d[max(e[i], 1)], d[min(e[i+1], n - 1)]] (root 0 and the top root sum
    every pole; pole 0 is near to every root).

    Each box's sources are its poles, or where it holds more than _CHEB
    of them its multipole: their weights anterpolated to its _CHEB
    Chebyshev points, built from the finest such level up, each box from
    its children's points (_anterpolate).  Two boxes are far apart when
    the gap between them is at least the lower box's width and twice the
    upper box's: a source box's width counts only for a multipole, whose
    points stand in for poles spread over it.  Then wt_j/(d_j^2 - sigma^2)
    is smooth in both, and _CHEB Chebyshev points hold it to about (3 +
    sqrt 8)^-_CHEB of its size.  Above the lower box, poles near 0 merge
    with their mirrors at -d_j into a pole of high order, where one width
    left 1.6e-13 of f' on a bath spread log-uniformly over 12 decades.

    At each level a box starts from its parent's values interpolated to
    its own points, and adds the sources of the children of its parent's
    near boxes that are far from it (_translate: box to box at the
    multipole levels, pole to box at the deep ones); its near boxes are
    the hull of the others.  The points are offsets c from each box's
    anchor a, every d_j^2 - sigma^2 is formed from offsets from the
    target's anchor and a root interpolates at (d[origin] - a) + offset:
    in a tight cluster a far pole can lie 1e-8 from sigma, and sigma's
    own last bit would cost the far field 1e-8 of its size.

    Returns the leaves' pole edges e, the pole range near[i] = [lo, hi]
    that the roots of leaf i sum exactly besides pole 0, the leaves'
    anchors a and points c (_CHEB, leaves), and their far values (4,
    _CHEB, leaves): psi, psi', phi, phi', the sums over far poles below
    and above and their derivatives in sigma^2.  Up to _ONE_LEAF poles
    there is one leaf and no far pole.
    """
    n = d.size - 1
    levels = math.ceil(math.log2(n / _LEAF)) if n > _ONE_LEAF else 0

    def layout(level):
        e = n * np.arange(2**level + 1) // 2**level
        a = d[np.maximum(e[:-1], 1)]
        w = d[np.minimum(e[1:], n - 1)] - a
        return e, a, w, _points(0.0, w)

    def children(a, ca, cc):
        # the points of both children of each box, as offsets from its anchor
        x = (ca - np.repeat(a, 2)) + cc
        return x.reshape(_CHEB, -1, 2).transpose(2, 0, 1).reshape(2 * _CHEB, -1)

    # level 1 has no far pair
    multipole = {}
    for level in [lv for lv in range(levels, 1, -1) if n >> lv > _CHEB]:
        e, a, w, c = layout(level)
        if level + 1 in multipole:
            _, ca, _, cc = layout(level + 1)
            src = multipole[level + 1].reshape(_CHEB, -1, 2).transpose(2, 0, 1)
            multipole[level] = _anterpolate(children(a, ca, cc), src.reshape(2 * _CHEB, -1), c)
        else:
            x, src = _pole_sources(d, wt, e, a)
            multipole[level] = _anterpolate(x - a, src, c)

    e, a, w, c = layout(0)
    near = np.array([[0, 1]])
    vals = np.zeros((4, _CHEB, 1))
    for level in range(1, levels + 1):
        boxes = 2**level
        pa, pc = a, c
        e, a, w, c = layout(level)
        # each child starts from its parent's far field at its own points
        x = children(pa, a, c)
        parent, vals = vals, np.empty((4, _CHEB, boxes))
        step = max(1, _TRIG_CHUNK // (2 * _CHEB * _CHEB))
        for at in range(0, boxes // 2, step):
            r = slice(at, at + step)
            v = np.einsum("vip,jip->vjp", parent[..., r], _lagrange(x[:, r], pc[:, r]))
            v = v.reshape(4, 2, _CHEB, -1).transpose(0, 2, 3, 1)
            vals.reshape(4, _CHEB, -1, 2)[:, :, r] = v
        del parent, x, v
        # candidates: the children of the parent's near boxes, box by box
        count = 2 * np.repeat(near[:, 1] - near[:, 0], 2)
        first = np.cumsum(count) - count
        t = np.repeat(np.arange(boxes), count)
        s = np.repeat(2 * np.repeat(near[:, 0], 2) - first, count) + np.arange(t.size)
        # a multipole spans its box, poles span their own range
        ceiling, spread = (a + w, w[s]) if level in multipole else (d[e[1:] - 1], 0.0)
        below = (s < t) & (a[t] - ceiling[s] >= np.maximum(2.0 * w[t], spread))
        above = (s > t) & (a[s] - a[t] >= w[t] + np.maximum(w[t], 2.0 * spread))
        far = below | above
        lo = np.minimum.reduceat(np.where(far, boxes, s), first)
        hi = np.maximum.reduceat(np.where(far, -1, s), first) + 1
        below, above = s < lo[t], s >= hi[t]
        if below.any() or above.any():
            if level in multipole:
                sa, x, src = a, c, multipole[level]
            else:   # poles, at their own positions
                sa, (x, src) = np.zeros(boxes), _pole_sources(d, wt, e, a)
            _translate(vals, np.concatenate([t[below], t[above]]),
                       np.concatenate([s[below], s[above]]),
                       np.repeat([0, 1], [np.count_nonzero(below), np.count_nonzero(above)]),
                       a, c, sa, x, src)
        near = np.stack([lo, hi], axis=1)
    return e, e[near], a, c, vals


def _secular_sums(d, k, o, x, m, leaf, tree):
    """psi, psi', f - 1 and f' of the roots k at sigma = d[o] + x: pole 0
    and the near poles of each root's leaf exactly, in Gu-Eisenstat gaps,
    those below sigma into psi; the far field of the leaf interpolated at
    sigma.  As in dlasd4, psi sums from its far end up to pole k and phi
    from its far end down to pole k + 1, the small terms first, since
    psi + phi cancels to -1 at the root.

    ``tree`` holds the weights and, per leaf, its column of near poles,
    pole 0 then start + 1 up to stop, and its anchor, points and far
    values (psi, psi' and phi, phi'; none for a single leaf).  The roots
    come in ascending order of m, their numbers of near poles, and are
    swept in chunks of about _TRIG_CHUNK entries, m near poles and _CHEB far
    points a root, with a fixed number of numpy calls per chunk.  A chunk
    pads each root's column to its widest with the weightless pole past
    every root, and holds at least one root."""
    out = np.empty((4, k.size))
    at = 0
    while at < k.size:
        # a root's entries: its near poles and its leaf's far points
        most = min(k.size, at + max(1, _TRIG_CHUNK // (m[at] + _CHEB)))
        span = m[at:most] + _CHEB
        stop = at + max(1, np.count_nonzero(np.arange(1, most - at + 1) * span <= _TRIG_CHUNK))
        r = slice(at, stop)
        out[:, r] = _chunk_sums(d, d[o[r]], x[r], m[stop - 1], leaf[r], tree)
        at = stop
    return out


def _chunk_sums(d, do, x, m, leaf, tree):
    """_secular_sums of one chunk of roots, at sigma = do + x."""
    wt, start, stop, a, c, far = tree
    if far:
        q = _lagrange(((do - a[leaf]) + x)[None], np.take(c, leaf, axis=1))[0]
        (psi_, dpsi_), (phi_, dphi_) = (np.einsum("rvc,cr->vr", np.take(f, leaf, axis=0), q)
                                        for f in far)
        del q
    else:
        psi_ = dpsi_ = phi_ = dphi_ = 0.0
    j = start[leaf] + np.arange(m)[:, None]
    j[0] = 0
    # no root's column ends before the chunk's shortest one
    tail = j[np.min(stop[leaf] - start[leaf]):]
    np.putmask(tail, tail >= stop[leaf], d.size - 1)
    g, below = d.take(j), wt.take(j)
    del j, tail
    t = np.subtract(g, do)
    t -= x
    g += do
    g += x
    g *= t                                # d_j^2 - sigma^2
    t = np.divide(below, g, out=t)
    below = np.minimum(t, 0.0, out=below)   # the poles up to k
    psi = below.sum(axis=0)
    t -= below                            # and those above
    tot = (psi + t[::-1].sum(axis=0)) + (psi_ + phi_)
    below /= g
    dpsi = below.sum(axis=0)
    t /= g
    below += t
    return psi + psi_, dpsi + dpsi_, tot, below.sum(axis=0) + (dpsi_ + dphi_)


def _secular_step(d, wt, k, o, x, f, dpsi, dtot, slow, lb, ub):
    """The next offsets of the roots k from f, psi' and f' at x: Li's
    fixed weight, f - 1 as the origin pole's own term, the bracket's
    other pole and a constant, matching value and slope; where ``slow``,
    the middle way, a constant and each bracket pole fitted to psi and
    phi.  The top root models f - 1 by its own pole alone.  A step that
    goes the wrong way is Newton's, one that leaves (lb, ub) bisects."""
    n = d.size - 1
    dk, dk1 = (((d[p] - d[o]) - x) * ((d[p] + d[o]) + x) for p in (k, np.minimum(k + 1, n)))
    p = np.where(o == k, k + 1, k)
    g_o, g_p = np.where(o == k, dk, dk1), np.where(o == k, dk1, dk)
    c = np.where(slow, f - dk * dpsi - dk1 * (dtot - dpsi),
                 f - g_p * dtot - (d[o] - d[p]) * (d[o] + d[p]) * wt[o] / (g_o * g_o))
    a = (dk + dk1) * f - dk * dk1 * dtot
    b = dk * dk1 * f
    sigma = d[o] + x
    with np.errstate(divide="ignore", invalid="ignore"):
        disc = np.sqrt(np.abs(a * a - 4.0 * b * c))
        step = np.where(a <= 0.0, (a - disc) / (2.0 * c), 2.0 * b / (a + disc))
        step = np.where(k == n - 1, dk + dk * dk * dtot / (f - dk * dtot), step)
        step = np.where(np.isfinite(step) & (f * step < 0.0), step, -f / dtot)
        new = x + step / (sigma + np.sqrt(sigma * sigma + step))
    return np.where((new > lb) & (new < ub), new, 0.5 * (x + np.where(f < 0.0, ub, lb)))


def _solve_secular(eq: _SecularEquation):
    """Every root of f(sigma^2) = 1 + sum_j wt_j/(d_j^2 - sigma^2), wt =
    rho u^2, at once: root k lies in (d[k], d[k + 1]), the top root in
    (d[-1], sqrt(d[-1]^2 + rho)).  Returns the pole each root is measured
    from, its offset sigma - d[origin] and its weight.

    Each root starts at the midpoint of its bracket; the sign of f there
    picks the nearer pole as origin, as LAPACK's dlasd4 does, and every
    gap d_j - sigma is then formed as (d_j - d[origin]) - offset (Gu &
    Eisenstat, SIAM J. Matrix Anal. Appl. 16 (1995) 172).  The steps are
    dlasd4's (_secular_step): R.-C. Li's fixed weight, switching to his
    middle way (LAPACK Working Note 89) where a step cuts f by less than
    10, guarded by bisection.  A root is done when f is within the
    rounding bound of its sums (and then takes one last Newton
    correction), or when its step falls below the last bits of its
    offset.  The sums take pole 0 and the near poles of the root's leaf
    (_far_field), about 3 _LEAF of them, exactly and the far ones by
    Chebyshev interpolation in sigma; root 0 and the top root, whose
    brackets may be far wider than a leaf, sum every pole.  Each step
    sweeps every root not yet done, in the order of their numbers of
    near poles (_secular_sums).
    Since d_j^2 = (d_j^2 - sigma^2) + sigma^2, the weight 1/(1 + sum_{j>0}
    (tau_j/(d_j^2 - sigma^2))^2) is 1/(f + sigma^2 f'), 1/(sigma^2 f')
    at a root."""
    n = eq.d.size
    reach = eq.rho / (eq.d[-1] + math.sqrt(eq.d[-1] ** 2 + eq.rho))   # of the top root
    top = reach * (1.0 + 4.0 * _EPS)
    # a weightless pole past every root pads the sums
    d, wt = np.append(eq.d, 2.0 * (eq.d[-1] + reach) + 1.0), np.append(eq.rho * eq.u**2, 0.0)
    e, near, a, c, far = _far_field(d, wt)
    leaves = a.size
    # per leaf its near poles, pole 0 then start + 1:stop; root 0 and
    # the top root go to one more leaf, which spans every root, sums
    # every pole and has no far field
    start, stop = np.append(np.maximum(near[:, 0] - 1, 0), 0), np.append(near[:, 1], n)
    far = np.append(far.transpose(2, 0, 1), np.zeros((1, 4, _CHEB)), axis=0)
    tree = (wt, start, stop, np.append(a, 0.0),
            np.append(c, _points(0.0, [eq.d[-1] + top]), axis=1),
            (far[:, :2].copy(), far[:, 2:].copy()) if leaves > 1 else ())
    leaf = np.repeat(np.arange(leaves), np.diff(e))
    leaf[[0, -1]] = leaves
    m = stop[leaf] - start[leaf]
    k = np.argsort(m, kind="stable")
    m, leaf = m[k], leaf[k]
    del c, far, near
    h = np.where(k < n - 1, d[k + 1] - d[k], top)
    x, lb, ub = 0.5 * h, np.zeros(n), h
    prev, slow = np.zeros(n), np.zeros(n, dtype=bool)
    # per root: its origin, and at its last step the offset before the
    # Newton correction, the offset after it and f'
    origin, before, offset, slope = np.arange(n), np.empty(n), np.empty(n), np.empty(n)
    for it in range(_MAX_ITER + 1):
        o = origin[k]
        psi, dpsi, tot, dtot = _secular_sums(d, k, o, x, m, leaf, tree)
        f = 1.0 + tot
        lb, ub = np.where(f < 0.0, x, lb), np.where(f > 0.0, x, ub)
        if it == 0:
            # the midpoint's sign picks the origin: below it, the lower pole
            up = (f < 0.0) & (k < n - 1)
            origin[k[up]] += 1
            for v in (x, lb, ub):
                v[up] -= h[up]
            o = origin[k]
            del h, up
        do = d[o]
        sigma = do + x
        # rounding bound of f: its terms, and the offset's last bit
        tol = _EPS * (8.0 * (tot - 2.0 * psi) + 2.0 + 3.0 * np.abs(x * (sigma + do)) * dtot)
        done = np.abs(f) <= tol
        # a converged root takes the Newton correction of its last sums
        before[k], slope[k] = x, dtot
        offset[k] = np.where(done, x - f / (2.0 * sigma * dtot), x)
        if not done.all():
            if it == _MAX_ITER:
                raise InternalConsistencyError(
                    f"secular solver did not converge on root {k[~done].min()} of {n} "
                    f"within {_MAX_ITER} iterations")
            slow ^= (f * prev > 0.0) & (np.abs(f) > 0.1 * np.abs(prev))
            prev = f
            new = _secular_step(d, wt, k, o, x, f, dpsi, dtot, slow, lb, ub)
            done |= np.abs(new - x) <= 2.0 * _EPS * np.abs(x)
            x = new
        del psi, dpsi, tot, dtot, do, sigma, tol   # before the next sweep allocates
        k, x, lb, ub, prev, slow, m, leaf = (
            v[~done] for v in (k, x, lb, ub, prev, slow, m, leaf))
        if not k.size:
            break
    # the origin pole's term of f' follows the correction into the
    # weight: that term dominates f' wherever the correction is large
    # against the offset
    do, wo = d[origin], wt[origin]
    weight = 1.0 / ((do + offset) ** 2 * (slope + wo * (
        1.0 / (offset * (2.0 * do + offset)) ** 2 - 1.0 / (before * (2.0 * do + before)) ** 2)))
    return origin, offset, weight


def normal_modes(model: FiniteBathModel) -> NormalModeDecomposition:
    """Normal modes of K from its secular equation: O(N log N) time,
    O(N) memory.  The eigenvectors follow on demand.

    _solve_secular takes each root as an offset from its nearest pole,
    so that omega_j - Omega_k and omega_j + Omega_k come out accurately;
    the weights come with the roots, and the pole and offset are kept so
    that the eigenvector columns can be rebuilt from them.

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
    origin, offset, weights = _solve_secular(eq)
    omegas = np.concatenate([eq.d[origin] + offset, eq.deflated])
    weights = np.concatenate([weights, np.zeros(eq.deflated.size)])
    order = np.argsort(omegas, kind="stable")
    rank = np.empty_like(order)
    rank[order] = np.arange(order.size)
    weights = weights[order]
    return NormalModeDecomposition(
        Omegas=omegas[order], weights=weights,
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


def _box_count(n):
    """The number of boxes of n roots: see _boxes."""
    return max(1, round(n / (400 * n / 3) ** (1 / 3)))


def _boxes(decomp: NormalModeDecomposition):
    """k boxes of about (400 n / 3)^(1/3) roots in root order, box i
    roots edges[i]:edges[i+1], with row block J the kept poles
    ``_secular.d[1:][blocks[J]:blocks[J+1]]`` above box J's roots.  Block
    J sums exactly the hull lo[J]:hi[J] of the boxes closer to its poles
    than its width or theirs; neither end falls as J grows.  A time then
    costs about 3 n^2 / k products with near roots and _CHEB^2 k^2 with
    far points, which this k makes equal."""
    eq = decomp._secular
    om = decomp.Omegas[decomp._rank[:eq.d.size]]
    n, m = om.size, eq.tau.size
    k = _box_count(n)
    edges = n * np.arange(k + 1) // k
    blocks = np.minimum(edges, m)
    blocks = blocks[np.diff(blocks, prepend=-1) > 0]   # no block without poles
    bottom, top = om[edges[:-1]], om[edges[1:] - 1]
    first, last = eq.d[1 + blocks[:-1], None], eq.d[blocks[1:], None]
    near = np.maximum(first - top, bottom - last) < np.maximum(top - bottom, last - first)
    return blocks, edges, near.argmax(axis=1), near.shape[1] - near[:, ::-1].argmax(axis=1)


def _points(a, b):
    """_CHEB Chebyshev points (first kind) on [a, b]; trailing axes of a
    and b are batches of intervals: (_CHEB, ...)."""
    b = np.asarray(b)
    return 0.5 * (a + b) - 0.5 * (b - a) * _COS.reshape((_CHEB,) + (1,) * b.ndim)


def _lagrange(x, c):
    """The Lagrange polynomials of the Chebyshev points c (_CHEB, ...) at
    x (m, ...) in barycentric form, Q (m, _CHEB, ...): f(x) ~ Q @ f(c),
    exactly f(c_i) where x is c_i.  Trailing axes are batches of
    intervals."""
    gap = x[:, None] - c
    with np.errstate(divide="ignore", invalid="ignore"):
        q = _LAMBDA.reshape((_CHEB,) + (1,) * (c.ndim - 1)) / gap
        q /= q.sum(axis=1, keepdims=True)
    hit = gap == 0.0
    if hit.any():
        q = np.where(hit.any(axis=1, keepdims=True), hit, q)
    return q


def _time_block(n):
    """The most times per block for n roots: at least _TIMES, and the
    multipoles of their boxes (_boxes) within about _W_BYTES."""
    return max(_TIMES, _W_BYTES // (16 * _CHEB * _box_count(n)))


def _time_blocks(n, n_times):
    """Bounds of the blocks of times for n roots: as few blocks as
    _time_block allows, of equal size to within one time."""
    count = -(-n_times // _time_block(n))
    return n_times * np.arange(count + 1) // count


def _window(spans, om, pi, pio, tb, F):
    """For each span h0:h1 of roots, the view of F (2, roots, times) that
    holds their pi cos(Omega t) and pi sin(Omega t)/Omega at the times tb.
    Neither end of a span falls, nor does one start past the last's end:
    F is a window that only moves up, taking each root once.  Past its
    end it moves the roots it holds from h0 on to its front and fills up."""
    base = have = 0   # F[:, j - base] holds root j, for j < have
    for h0, h1 in spans:
        if h1 > have:
            for half in F:   # one contiguous move: no copy
                half[:have - h0].reshape(-1)[...] = half[h0 - base:have - base].reshape(-1)
            base = h0
            top = min(om.size, base + F.shape[1])
            c, s = F[:, have - base:top - base]
            np.multiply.outer(om[have:top], tb, out=c)
            sincos(c, c, s)
            c *= pi[have:top, None]
            s *= pio[have:top, None]
            have = top
        yield F[:, h0 - base:h1 - base]


def evolve_reduced(model: FiniteBathModel, units: UnitSystem,
                   x0: float, p0: float, times: Sequence[float], *,
                   decomp: NormalModeDecomposition) -> ReducedTrajectory:
    """Reduced oscillator evolution from the displaced product state.

    Initial state: oscillator ground state displaced by physical
    (x0, p0), bath modes in their bare ground states, coupling switched
    on at t = 0.  The initial covariance is diagonal, so only the first
    rows of the position, momentum and velocity propagators matter:
    c = O (a cos(Omega t)), s = O (a sin(Omega t)/Omega) and
    d = O (a Omega sin(Omega t)) = K s, with O the eigenvectors and a
    the overlaps.  With O's columns a_k (1, -z_j/(omega_j^2 - Omega_k^2)),
    each is a product with F = [pi_k cos | pi_k sin/Omega] of the coupled
    roots at a block of times, both from one tan(Omega t/2)
    (dynamics.sincos).  Two passes over the roots in root order take F
    through a window that only moves up (_window), each root once a
    pass; neither holds it for every root.

    The first forms F's column sums, the oscillator's c and s, and its d,
    the mode sum of pi_k Omega_k sin(Omega_k t): row 0 of K s would add
    the modes' residual K O - O Omega^2, bounded only by about eps ||K||,
    2e-6 on a bath spread over 12 decades.  It also forms each box's
    multipole Q_B F_B at its Chebyshev points x (``_boxes``), a box of
    roots at a time.  The second walks the row blocks of coupled bath
    modes in order.  Each block takes c and s from its inverse gaps times
    F over its near boxes, whose hull's ends never fall from block to
    block, and from the far boxes' multipoles, translated by
    1/(y^2 - x^2) to its own points y and interpolated to its poles; d
    from K; and adds its share of the covariance.  Deflated modes have
    a_k = 0 and drop out.  ``times`` may be unsorted but not empty.
    ``decomp`` must be normal_modes of this very ``model``.
    """
    ts = np.atleast_1d(np.asarray(times, dtype=float))
    if ts.ndim != 1 or ts.size == 0 or not np.all(np.isfinite(ts)):
        raise UsageError("times must be a non-empty 1-d sequence of finite numbers")
    x0r = checked(x0, "number", "x0") * math.sqrt(units.mass)
    p0r = checked(p0, "number", "p0") / math.sqrt(units.mass)
    if decomp.model is not model:
        raise UsageError("decomp is the decomposition of another model")
    eq = decomp._secular
    kept = decomp._rank[:eq.d.size]
    pi = decomp.weights[kept]
    om = decomp.Omegas[kept]
    pio = pi / om
    # the oscillator and the coupled bath modes; the others stay at rest
    bare = np.concatenate([[model.omega0], model.bath_freqs[eq.coupled]])
    z = model.border[eq.coupled]
    var_x0 = units.hbar / (2.0 * bare)   # mass-reduced
    var_p0 = units.hbar * bare / 2.0

    blocks, edges, lo, hi = _boxes(decomp)
    k = edges.size - 1
    # the Chebyshev points x of each box of roots and y of each row block
    x = _points(om[edges[:-1]], om[edges[1:] - 1]).T
    poles = eq.d[1:]
    y = _points(poles[blocks[:-1]], poles[blocks[1:] - 1]).T
    rows = [slice(a, b) for a, b in zip(blocks[:-1], blocks[1:])]
    baths = [slice(*np.searchsorted(eq.pole_of, [r.start, r.stop])) for r in rows]
    hulls = np.stack([edges[lo], edges[hi]], axis=1)   # the near roots

    # bath mode j's c and s are -z_j times its pole's row sums c' and s', and
    # d_j = omega_j^2 s_j + z_j s_0 (row j of K s).  As var_p0 = omega_j^2
    # var_x0, with w = z_j^2 (var_x0, var_p0) its shares of var_x, var_p and
    # cov_xp are w0 c'^2 + w1 s'^2, w0 (s_0 - omega_j^2 s')^2 + w1 c'^2, w0 c' s_0
    w, om2 = np.stack([var_x0[1:], var_p0[1:]]) * z**2, bare[1:]**2
    out = np.zeros((5, ts.size))   # mean_x, mean_p, var_x, var_p, cov_xp
    bounds = _time_blocks(om.size, ts.size)
    step = int(np.max(np.diff(bounds)))
    # the window holds the widest hull (each box lies in its block's) and half a chunk more
    cap = int(np.max(hulls[:, 1] - hulls[:, 0], initial=0)) + max(1, _TRIG_CHUNK // step // 2)
    # F, the multipoles W and the translations A reuse buffers
    F_buf, W_buf = np.empty(2 * cap * step), np.empty(2 * k * _CHEB * step)
    A = np.empty((_GROUP, _CHEB, k * _CHEB))
    sums = np.empty((_CHEB, k * _CHEB))

    for start, stop in zip(bounds[:-1], bounds[1:]):
        tb = ts[start:stop]
        n_t = tb.size
        F = F_buf[:2 * cap * n_t].reshape(2, cap, n_t)
        W = W_buf[:2 * k * _CHEB * n_t].reshape(2, k * _CHEB, n_t)
        c0, s0, d0 = sums0 = np.zeros((3, n_t))
        for i, FB in enumerate(_window(zip(edges[:-1], edges[1:]), om, pi, pio, tb, F)):
            r = slice(edges[i], edges[i + 1])
            sums0[:2] += FB.sum(axis=1)
            d0 += om[r] ** 2 @ FB[1]
            np.matmul(_lagrange(om[r], x[i]).T, FB, out=W[:, _CHEB * i:_CHEB * (i + 1)])

        for J, FJ in enumerate(_window(hulls, om, pi, pio, tb, F)):
            g = J - J % _GROUP
            if J == g:
                # the far fields of _GROUP row blocks at their points, one product
                a = A[:lo[g:g + _GROUP].size]
                np.subtract(y[g:g + a.shape[0], :, None], x.ravel(), out=a)
                for aJ, yJ in zip(a, y[g:]):
                    aJ *= np.add(yJ[:, None], x.ravel(), out=sums)
                with np.errstate(divide="ignore", over="ignore"):   # only near entries
                    np.reciprocal(a, out=a)
                for aJ, j in zip(a, range(g, g + _GROUP)):   # near boxes do not count
                    aJ[:, _CHEB * lo[j]:_CHEB * hi[j]] = 0.0
                L = np.matmul(a.reshape(-1, k * _CHEB), W).reshape(2, -1, _CHEB, n_t)
            r, bath = rows[J], baths[J]
            cs = decomp._inverse_gaps(r, slice(*hulls[J])) @ FJ
            if hi[J] - lo[J] < k:
                cs += _lagrange(poles[r], y[J]) @ L[:, J - g]
            if eq.runs:
                cs = cs[:, eq.pole_of[bath] - r.start]
            cov = w[0, bath] @ cs[0] * s0
            e = np.subtract(s0, om2[bath, None] * cs[1])
            (xc, pc), (_, ps) = w[:, bath] @ np.square(cs, out=cs)
            out[2:, start:stop] += [xc + ps, w[0, bath] @ np.square(e, out=e) + pc, cov]
        vx, vp = var_x0[0], var_p0[0]   # the oscillator's own share
        out[:, start:stop] += [c0 * x0r + s0 * p0r, -d0 * x0r + c0 * p0r,
                               vx * c0**2 + vp * s0**2, vx * d0**2 + vp * c0**2,
                               c0 * (vp * s0 - vx * d0)]
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
        """Every field but the histogram arrays (the ones kept out of repr)."""
        return {f.name: getattr(self, f.name) for f in dataclasses.fields(self) if f.repr}

    def histogram_csv(self, path) -> None:
        write_csv(path, "bin_lo,bin_hi,density_discrete,density_continuum",
                  [self.hist_edges[:-1], self.hist_edges[1:],
                   self.hist_density, self.hist_continuum])


def compare_with_continuum(sol, units: UnitSystem, N: int,
                           scheme: str = "uniform", bins: int = 160,
                           bath_omega_max: float | None = None) -> ComparisonReport:
    """Discretise the solution's spectrum, diagonalise, and report the
    relative errors of the headline observables plus the binned L1
    distance between discrete and continuum frequency densities.

    ``bath_omega_max`` truncates the bath only: the continuum solution
    keeps its full support (where the tolerance-critical sum-rule mass
    lives) while the bath grid stops earlier, trading far-tail weight
    (negligible for var_x/var_p) for resolution at fixed N.  ``units``
    must be the solution's own.
    """
    if units != sol.units:
        raise UsageError(f"units {units} differ from the solution's {sol.units}")
    bins = checked(bins, "integer >= 1", "bins")
    bath_spec = sol.spec
    if bath_omega_max is not None:
        lo, hi, top = bath_spec.support_lower, bath_spec.support_upper, float(bath_omega_max)
        if top < hi < math.inf:
            raise UsageError(f"bath_omega_max must not cut into the support [{lo}, {hi}], got {top!r}")
        bath_spec = dataclasses.replace(bath_spec, omega_max=top)
    model = discretize(bath_spec, units, N, scheme)
    decomp = normal_modes(model)
    m1 = frequency_moment(sol, 1)
    minv = frequency_moment(sol, -1)
    rel_m1 = abs(frequency_moment(decomp, 1) - m1) / m1
    rel_minv = abs(frequency_moment(decomp, -1) - minv) / minv

    top = max(float(model.bath_freqs.max() + model.bath_freqs[0]),
              float(decomp.Omegas[-1]) * (1.0 + 1e-12))
    edges = np.linspace(0.0, top, bins + 1)
    density = bin_masses(decomp, edges) / np.diff(edges)
    cont_avg = bin_masses(sol.split(edges), edges) / np.diff(edges)
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
