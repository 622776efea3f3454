"""Continuum diagonalisation core.

For an admissible coupling spectrum the dressed-mode expansion of the
oscillator annihilation operator has coefficients alpha(omega),
beta(omega) fixed, up to phase, by the function

    Y(omega) = [ 2(omega^2 - omega0^2)/omega0 - I(omega) ] / |V(omega)|^2,

    I(omega) = PV int |V(w')|^2/(omega - w') dw'
             -    int |V(w')|^2/(omega + w') dw',

both integrals over the coupling support.  From Y the oscillator weight
per dressed mode follows:

    |alpha(omega)|^2 = (omega + omega0)^2 / (omega0^2 |V|^2 (Y^2 + pi^2)),
    beta/alpha       = (omega - omega0) / (omega + omega0),

and the ground-state frequency density is

    pi(omega) = |alpha(omega)|^2 * 4 omega0 omega / (omega0 + omega)^2,

normalised to one.  This module computes all of these on an adaptively
refined grid.  A solution is a (nodes, weights) measure, the weight of a
node being its Simpson weight times pi; a finite-bath decomposition is
another (Omegas, O_0k^2).  The moment functional << f(omega) >> is
weights @ f(nodes) over either.

Numerical form: everything is built from N(omega) = Y * |V|^2, which
stays finite in the far tails where Y itself overflows;
|alpha|^2 = (omega+omega0)^2 |V|^2 / (omega0^2 (N^2 + pi^2 |V|^4)).
N is one array expression over all nodes: I(omega) comes from the
spectrum family's closed form (``CouplingSpectrum.dispersion``), which
the tests check against scalar QUADPACK calls.

Grid strategy: a logarithmic base grid over (omega_max * 1e-6, omega_max]
inside the support, geometric ladders into any sharp support edge, seed
clusters around each resonance (zero of N, located by bisection scan),
then interval bisection wherever pi jumps by more than 1% of its peak or
the local curvature indicator says the normalisation error budget is
threatened.  Refinement stops when the norm defect and the omega^2 sum
rule are both within tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .csvio import write_csv
from .errors import ConvergenceError, UsageError, checked
# unused here; perfbench/tracer.py wraps these names to count quadrature calls
from .quadrature import cauchy_pv, integrate  # noqa: F401
from .spectra import CouplingSpectrum, UnitSystem, require_admissible

NORM_TOL = 1e-6
SUM_TOL = 1e-6

BASE_POINTS = 320
SCAN_POINTS = 160
MAX_NODES = 30000
MAX_ROUNDS = 24

# Anti-aliasing bound of the time-domain grid: spacing * t_max <= ALIAS_LIMIT,
# except on intervals carrying at most a solution's alias_mass_tol of the
# spectral mass (ALIAS_MASS_TOL unless the solution was given another),
# and the node budget refine_for_times may add to reach it.
ALIAS_LIMIT = 0.1
ALIAS_MASS_TOL = 1e-6
MAX_NEW_NODES = 120000

# Relative distance kept clear of a sharp support edge; Y diverges
# logarithmically there, so pi -> 0 and the skipped sliver carries
# no weight at the tolerances in use.
EDGE_MARGIN = 1e-7


@dataclass(frozen=True, eq=False)
class SpectralSolution:
    """Y, |alpha|^2, beta/alpha and pi on the grid ``omegas``, plus
    provenance.

    ``nodes`` is ``omegas`` under the name every (nodes, weights)
    measure shares.  ``meta`` records how the grid was reached:
    ``rounds`` and ``nodes`` from compute_pi, ``refined_for_t_max``
    from refine_for_times.  ``spec`` and ``units`` are carried so that
    dynamics and diagnostics can evaluate the dispersion integrals at
    new frequencies without re-supplying context.  ``alias_mass_tol`` is
    the spectral mass refine_for_times lets intervals wider than the
    anti-aliasing bound carry.  ``weights`` is the Simpson weight of each
    node times pi, fixed at construction, and so are the two defects
    refinement certifies, moments over those weights:
    ``norm_defect = |<<1>> - 1|`` and
    ``sum_defect = |<<omega^2>> - omega0^2| / omega0^2``.  Instances
    are immutable.
    """

    omegas: np.ndarray
    Y: np.ndarray
    alpha_sq: np.ndarray
    beta_ratio: np.ndarray
    pi: np.ndarray
    spec: CouplingSpectrum
    units: UnitSystem
    alias_mass_tol: float = ALIAS_MASS_TOL
    meta: dict = field(default_factory=dict, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    norm_defect: float = field(init=False)
    sum_defect: float = field(init=False)

    def __post_init__(self):
        checked(self.alias_mass_tol, "number >= 0", "alias_mass_tol")
        object.__setattr__(self, "weights", simpson_weights(self.nodes) * self.pi)
        w0sq = self.omega0 * self.omega0
        object.__setattr__(self, "norm_defect", abs(frequency_moment(self, 0) - 1.0))
        object.__setattr__(self, "sum_defect",
                           abs(frequency_moment(self, 2) - w0sq) / w0sq)

    @property
    def nodes(self) -> np.ndarray:
        return self.omegas

    @property
    def omega0(self) -> float:
        return self.units.omega0

    def to_csv(self, path) -> None:
        """Write columns omega, Y, alpha_sq, beta_ratio, pi at full precision."""
        write_csv(path, "omega,Y,alpha_sq,beta_ratio,pi",
                  [self.omegas, self.Y, self.alpha_sq, self.beta_ratio, self.pi])


def simpson_weights(x: np.ndarray) -> np.ndarray:
    """Weights w such that w @ y is scipy.integrate.simpson(y, x=x) up to
    rounding: the composite non-uniform Simpson rule over interval pairs,
    and for an even node count scipy's parabolic correction of the last
    interval.  Needs at least 3 nodes."""
    h = np.diff(x)
    n = x.size
    m = n - 1 if n % 2 == 0 else n      # nodes covered by interval pairs
    h0, h1 = h[0:m - 1:2], h[1:m - 1:2]
    hsum = h0 + h1
    w = np.zeros(n)
    w[0:m - 2:2] += hsum / 6.0 * (2.0 - h1 / h0)
    w[1:m - 1:2] += hsum**3 / (6.0 * h0 * h1)
    w[2:m:2] += hsum / 6.0 * (2.0 - h0 / h1)
    if n % 2 == 0:
        a, b = h[-2], h[-1]
        w[-1] += (2.0 * b * b + 3.0 * a * b) / (6.0 * (a + b))
        w[-2] += (b * b + 3.0 * a * b) / (6.0 * a)
        w[-3] -= b**3 / (6.0 * a * (a + b))
    return w


def brentq(f: Callable[[float], float], a: float, b: float, *,
           xtol: float, rtol: float) -> float:
    """A root of f in [a, b] by Brent's method (R. P. Brent, *Algorithms
    for Minimization without Derivatives*, 1973): a line-for-line port of
    scipy.optimize.brentq (its brentq.c), step for step the same floats.

    Raises ValueError when f(a) and f(b) have the same sign or f returns
    NaN, RuntimeError after 100 iterations without convergence."""
    def call(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise ValueError(f"the function value at x={x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = call(xpre), call(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise ValueError("f(a) and f(b) must have different signs")
    for _ in range(100):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                stry = -fcur * (xcur - xpre) / (fcur - fpre)       # interpolate
            else:
                dpre = (fpre - fcur) / (xpre - xcur)               # extrapolate
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            limit = 3 * abs(sbis) - delta
            if abs(spre) < limit:                                  # C's MIN()
                limit = abs(spre)
            if 2 * abs(stry) < limit:
                spre, scur = scur, stry                            # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = call(xcur)
    raise RuntimeError(f"brentq failed to converge after 100 iterations, value is {xcur}")


def _n_values(spec, units, omegas) -> np.ndarray:
    """N(omega) = 2(omega^2 - omega0^2)/omega0 - I(omega), elementwise."""
    w = np.asarray(omegas, dtype=float)
    w0 = units.omega0
    return 2.0 * (w * w - w0 * w0) / w0 - spec.dispersion(w)


# ---------------------------------------------------------------------------
# grid construction

def _grid_bounds(spec: CouplingSpectrum) -> tuple[float, float, float]:
    """Open-interval node bounds (lo, hi) and the edge-ladder span."""
    lo_edge = max(spec.support_lower, 0.0)
    hi_edge = min(spec.omega_max, spec.support_upper)
    span = hi_edge - lo_edge
    if not span > 0:
        raise UsageError("empty effective support")
    lo = max(spec.omega_max * 1e-6, lo_edge + EDGE_MARGIN * span if lo_edge > 0 else 0.0)
    if math.isfinite(spec.support_upper) and spec.omega_max >= spec.support_upper:
        hi = spec.support_upper - EDGE_MARGIN * span
    else:
        hi = spec.omega_max
    if not lo < hi:
        raise UsageError(f"degenerate grid range [{lo}, {hi}]")
    return lo, hi, span


def _edge_ladders(spec: CouplingSpectrum, lo: float, hi: float, span: float) -> list[float]:
    pts: list[float] = []
    if spec.support_lower > 0:
        pts.extend(spec.support_lower + span * 10.0 ** (-k) for k in range(1, 8))
    if math.isfinite(spec.support_upper):
        pts.extend(spec.support_upper - span * 10.0 ** (-k) for k in range(1, 8))
    return [p for p in pts if lo <= p <= hi]


def _find_peaks(spec, units, lo, hi) -> list[tuple[float, float]]:
    """Zeros of N(omega) with local Lorentzian half-widths pi |V|^2 / |N'|."""
    lattice = np.geomspace(lo, hi, SCAN_POINTS)
    nvals = _n_values(spec, units, lattice)
    peaks: list[tuple[float, float]] = []
    for i in range(len(lattice) - 1):
        a, b = nvals[i], nvals[i + 1]
        if not (np.isfinite(a) and np.isfinite(b)) or a * b >= 0:
            continue
        try:
            pk = brentq(lambda x: _n_values(spec, units, x), lattice[i], lattice[i + 1],
                        xtol=1e-14, rtol=1e-14)
        except ValueError:
            continue
        d = max(1e-6 * pk, 1e-9)
        d = min(d, 0.5 * (pk - lo), 0.5 * (hi - pk)) or d
        n_hi, n_lo = _n_values(spec, units, [pk + d, pk - d])
        nprime = (n_hi - n_lo) / (2 * d)
        vsq = float(spec.v_sq(pk))
        if abs(nprime) > 0 and vsq > 0:
            width = math.pi * vsq / abs(nprime)
        else:
            width = 1e-3 * pk
        width = max(width, 1e-9 * units.omega0)
        width = min(width, 0.25 * min(pk - lo, hi - pk)) or width
        peaks.append((pk, width))
    return peaks


def _peak_cluster(pk: float, w: float, lo: float, hi: float) -> np.ndarray:
    core = pk + w * np.linspace(-8.0, 8.0, 97)
    pieces = [core]
    left_reach = 0.9 * (pk - lo)
    if left_reach > 8 * w:
        pieces.append(pk - w * np.geomspace(8.0, left_reach / w, 25))
    right_reach = 0.9 * (hi - pk)
    if right_reach > 8 * w:
        pieces.append(pk + w * np.geomspace(8.0, right_reach / w, 25))
    pts = np.concatenate(pieces)
    return pts[(pts > lo) & (pts < hi)]


def _unique(values: np.ndarray) -> np.ndarray:
    """np.unique of nan-free floats: sorted, each value once.  np.unique
    itself imports numpy.ma (about 10 ms) on its first call."""
    v = np.sort(values)
    first = np.empty(v.shape, dtype=bool)
    first[:1] = True
    np.not_equal(v[1:], v[:-1], out=first[1:])
    return v[first]


def _require_coupled(spec: CouplingSpectrum) -> None:
    if spec.is_zero():
        raise ConvergenceError(
            "coupling is identically zero: the frequency density is a point mass "
            "at omega0 and cannot be represented on a grid; ground-state "
            "observables reduce to the textbook closed forms",
            detail={"guidance": "use the closed-form path for V = 0"},
        )


def build_grid(spec: CouplingSpectrum, units: UnitSystem) -> np.ndarray:
    """Initial grid: log base + coarse linear comb + edge ladders + peak
    clusters.  Refinement to tolerance happens inside compute_pi."""
    _require_coupled(spec)
    lo, hi, span = _grid_bounds(spec)
    parts = [
        np.geomspace(lo, hi, BASE_POINTS),
        np.linspace(lo, hi, 64),
        np.array(_edge_ladders(spec, lo, hi, span)),
    ]
    for pk, w in _find_peaks(spec, units, lo, hi):
        parts.append(_peak_cluster(pk, w, lo, hi))
    nodes = _unique(np.concatenate([p for p in parts if p.size]))
    nodes = nodes[(nodes >= lo) & (nodes <= hi)]
    # A peak cluster whose width was clamped to the room left before lo
    # or hi puts a node within an ulp of that bound.  Such a pair makes
    # adjacent Simpson intervals differ by orders of magnitude, and the
    # rule's weights blow up, so drop the later node of any near pair.
    return nodes[np.concatenate([[True], np.diff(nodes) > 1e-12 * nodes[1:]])]


# ---------------------------------------------------------------------------
# solution assembly and refinement

def _assemble(spec, units, nodes):
    w0 = units.omega0
    w = nodes
    nvals = _n_values(spec, units, w)
    vsq = np.asarray(spec.v_sq(w), dtype=float)
    denom = nvals * nvals + (math.pi**2) * vsq * vsq
    with np.errstate(divide="ignore", invalid="ignore"):
        alpha_sq = np.where(vsq > 0, (w + w0) ** 2 * vsq / (w0 * w0 * denom), 0.0)
        Y = np.where(vsq > 0, nvals / vsq, np.nan)
    pi = alpha_sq * (4.0 * w0 * w / (w0 + w) ** 2)
    beta = (w - w0) / (w + w0)
    return Y, alpha_sq, beta, pi


def _solution(spec, units, nodes, **kwargs) -> SpectralSolution:
    """The solution assembled on ``nodes``; ``kwargs`` go to SpectralSolution."""
    Y, alpha_sq, beta, pi = _assemble(spec, units, nodes)
    return SpectralSolution(omegas=nodes, Y=Y, alpha_sq=alpha_sq, beta_ratio=beta,
                            pi=pi, spec=spec, units=units, **kwargs)


def _interval_error_indicator(w, pi, units):
    """Per-interval estimate of the normalisation/sum-rule error, from a
    three-point curvature proxy weighted towards high frequencies."""
    h = np.diff(w)
    slopes = np.diff(pi) / h
    curv = np.zeros_like(h)
    interior = np.abs(np.diff(slopes))
    curv[:-1] += 0.5 * interior
    curv[1:] += 0.5 * interior
    mid = 0.5 * (w[:-1] + w[1:])
    weight = 1.0 + (mid / units.omega0) ** 2
    return curv * h * h * weight


def compute_pi(spec: CouplingSpectrum, units: UnitSystem, *,
               norm_tol: float = NORM_TOL, sum_tol: float = SUM_TOL,
               max_nodes: int = MAX_NODES, max_rounds: int = MAX_ROUNDS) -> SpectralSolution:
    """Evaluate pi on build_grid's nodes and refine until the
    normalisation and the omega^2 sum rule both hold to tolerance.

    The grid comes first, so that a zero coupling or an empty support
    is refused before an inadmissible model, and both before a bad
    tolerance or budget.  Raises ConvergenceError with diagnostics if
    the round or node budget runs out.  A defect that stalls once the grid is dense means weight the
    grid cannot reach: a tail cut off by omega_max on an unbounded
    support, or a bound state outside a bounded one.
    """
    nodes = build_grid(spec, units)
    require_admissible(spec, units)
    checked(norm_tol, "number > 0", "norm_tol")
    checked(sum_tol, "number > 0", "sum_tol")
    max_nodes = checked(max_nodes, "integer >= 1", "max_nodes")
    max_rounds = checked(max_rounds, "integer >= 1", "max_rounds")

    for rounds in range(max_rounds):
        sol = _solution(spec, units, nodes,
                        meta={"rounds": rounds, "nodes": int(nodes.size)})
        pi = sol.pi
        jumps = np.abs(np.diff(pi)) > 0.01 * pi.max()
        if sol.norm_defect <= norm_tol and sol.sum_defect <= sum_tol and not jumps.any():
            return sol

        room = max_nodes - nodes.size
        if room <= 0 or rounds + 1 == max_rounds:   # no nodes left, or no round to evaluate them
            break
        err = _interval_error_indicator(nodes, pi, units)
        budget_per_interval = 0.25 * min(norm_tol, sum_tol) / err.size
        marked = jumps | (err > budget_per_interval)
        if not marked.any():
            order = np.argsort(err)[::-1]
            marked[order[:256]] = True
        # Largest offenders first if the budget cannot take them all.
        idx = np.flatnonzero(marked)
        if idx.size > room:
            keep = np.argsort(err[idx])[::-1][:room]
            idx = idx[keep]
        mids = 0.5 * (nodes[idx] + nodes[idx + 1])
        nodes = np.sort(np.concatenate([nodes, mids]))

    if math.isfinite(spec.support_upper):
        # omega_max cannot cut a bounded support (spectra refuses that), so
        # the missing mass is not in a truncated tail
        guidance = (f"if the defect has stalled, about {sol.norm_defect:.3g} of the "
                    "spectral mass lies outside the coupling support: a point "
                    "mass (bound state) of the dressed oscillator, which the "
                    "grid cannot hold; raising omega_max does not help")
    else:
        guidance = ("if the defect has stalled, omega_max is probably "
                    "truncating spectral weight; raise it and rerun")
    if room <= 0:
        # more nodes help only while some interval still fails the jump test
        guidance = (f"the node budget grid.max_nodes = {max_nodes} ran out after "
                    f"{rounds} of {max_rounds} refinement rounds, with "
                    f"{int(jumps.sum())} intervals still failing the jump test (pi "
                    "changing by more than 1% of its peak across one interval); "
                    + ("raise grid.max_nodes" if jumps.any() else guidance))
    raise ConvergenceError(
        "grid refinement exhausted its budget before reaching tolerance",
        detail={
            "norm_defect": sol.norm_defect, "sum_defect": sol.sum_defect,
            "nodes": int(nodes.size), "rounds": rounds if room <= 0 else max_rounds,
            "guidance": guidance,
        },
    )


def solve(spec: CouplingSpectrum, units: UnitSystem, **kwargs) -> SpectralSolution:
    """The certified solution: compute_pi, whose keywords it takes."""
    return compute_pi(spec, units, **kwargs)


# ---------------------------------------------------------------------------
# moments

def moment(measure, f: Callable) -> float:
    """<< f(omega) >> = weights @ f(nodes) over a (nodes, weights) measure:
    a SpectralSolution or a finite-bath NormalModeDecomposition.  ``f``
    takes the node array."""
    vals = np.asarray(f(measure.nodes), dtype=float)
    bad = ~np.isfinite(vals)
    if bad.any():
        if np.any(measure.weights[bad] != 0):
            raise UsageError("moment integrand is not finite where the weight is non-zero")
        vals = np.where(bad, 0.0, vals)
    return float(measure.weights @ vals)


def frequency_moment(measure, k: int) -> float:
    """<< omega^k >>."""
    return moment(measure, lambda w: w**k)


# ---------------------------------------------------------------------------
# time-domain grid support

def refine_for_times(sol: SpectralSolution, t_max: float) -> SpectralSolution:
    """Return a solution whose grid resolves oscillations up to t_max.

    Requirement: intervals violating  (spacing) * t_max <= ALIAS_LIMIT
    may carry at most sol.alias_mass_tol of total spectral weight.
    Violating intervals are split into equal parts, and pi is
    re-evaluated on the merged nodes; the result carries the same
    budget.  A solution that already meets the requirement is returned
    as it is.
    """
    checked(t_max, "number", "t_max")
    if t_max <= 0:
        return sol
    spec, units, mass_tol = sol.spec, sol.units, sol.alias_mass_tol
    h_max = ALIAS_LIMIT / t_max
    refined = sol

    added = 0
    for _ in range(40):
        nodes, pi = refined.nodes, refined.pi
        h = np.diff(nodes)
        masses = 0.5 * (pi[:-1] + pi[1:]) * h      # trapezoidal
        violating = h > h_max
        total = masses.sum()
        if not violating.any() or masses[violating].sum() <= mass_tol * total:
            break
        # Exempt the lightest violating intervals up to the mass budget.
        idx = np.flatnonzero(violating)
        order = idx[np.argsort(masses[idx])]
        cum = np.cumsum(masses[order])
        split = violating.copy()
        split[order[cum <= mass_tol * total * 0.5]] = False
        # each split interval into k equal parts, its k - 1 inner points
        k = np.minimum(np.ceil(h[split] / h_max), 4096).astype(np.intp)
        inner = k - 1
        if not inner.any():
            break
        added += int(inner.sum())
        if added > MAX_NEW_NODES:
            raise ConvergenceError(
                "time-grid refinement budget exceeded",
                detail={"t_max": t_max, "new_nodes": added,
                        "guidance": "shorten the time span"},
            )
        # np.linspace's points j * (h / k) + left, j = 1..k-1
        first = np.repeat(np.cumsum(inner) - inner, inner)
        j = np.arange(1, first.size + 1) - first
        new_nodes = _unique(j * np.repeat(h[split] / k, inner)
                            + np.repeat(nodes[:-1][split], inner))
        refined = _solution(spec, units, np.sort(np.concatenate([nodes, new_nodes])))

    if refined is sol:
        return sol
    meta = {**sol.meta, "refined_for_t_max": t_max, "nodes": int(refined.nodes.size)}
    return replace(refined, alias_mass_tol=mass_tol, meta=meta)
