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

normalised to one.  This module computes pi on an adaptively refined
grid; a solution keeps pi alone and is a (nodes, weights) measure, the
weight of a node being its Simpson weight times pi.  A finite-bath
decomposition is another (Omegas, O_0k^2).  The moment functional
<< f(omega) >> is weights @ f(nodes) over either.

Numerical form: everything is built from N(omega) = Y * |V|^2, which
stays finite in the far tails where Y itself overflows;
|alpha|^2 = (omega+omega0)^2 |V|^2 / (omega0^2 (N^2 + pi^2 |V|^4)).
N is one array expression over all nodes: I(omega) comes from the
spectrum family's closed form (``CouplingSpectrum.dispersion``), which
the tests check against scalar QUADPACK calls.

Grid strategy: a logarithmic base grid over (omega_max * 1e-6,
omega_max] inside the support, geometric ladders into any sharp support
edge, seed clusters around each resonance (zero of N, bracketed and
signed by a scan, then refined by Newton steps on the closed-form slope
N', whose value there gives the cluster's Lorentzian width), then interval
bisection wherever pi jumps by more than 1% of its peak or the local
curvature indicator says the normalisation error budget is threatened.
Refinement stops when the norm defect and the omega^2 sum rule are both
within tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
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
    """pi on the grid ``omegas``, plus provenance.

    ``nodes`` is ``omegas`` under the name every (nodes, weights)
    measure shares.  ``meta`` records how the grid was reached:
    ``rounds`` and ``nodes`` from compute_pi, ``refined_for_t_max``
    from refine_for_times.  ``spec`` and ``units`` are carried so that
    dynamics and diagnostics can evaluate the dispersion integrals at
    new frequencies without re-supplying context.  ``alias_mass_tol`` is
    the spectral mass refine_for_times lets intervals wider than the
    anti-aliasing bound carry.  ``weights`` is the Simpson weight of each
    node times pi, fixed at construction, and so are the two signed
    defects refinement certifies, moments over those weights:
    ``norm_defect = <<1>> - 1`` and
    ``sum_defect = <<omega^2>>/omega0^2 - 1``.  Instances are immutable.
    """

    omegas: np.ndarray
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
        object.__setattr__(self, "norm_defect", frequency_moment(self, 0) - 1.0)
        object.__setattr__(self, "sum_defect",
                           frequency_moment(self, 2) / (self.omega0 * self.omega0) - 1.0)

    @property
    def nodes(self) -> np.ndarray:
        return self.omegas

    @property
    def omega0(self) -> float:
        return self.units.omega0

    def to_csv(self, path) -> None:
        """Write columns omega, Y, alpha_sq, beta_ratio, pi at full precision,
        the first three assembled on the nodes as pi was."""
        write_csv(path, "omega,Y,alpha_sq,beta_ratio,pi",
                  [self.omegas, *_assemble(self.spec, self.units, self.omegas)[:3], self.pi])


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


def bracketed_newton(f: Callable, lo, hi, *, xtol: float, rtol: float) -> np.ndarray:
    """A root of f in each bracket [lo_i, hi_i] at once, ``f`` mapping
    points to (f, f').  The caller's scan found f(lo_i) <= 0 <= f(hi_i),
    lo_i above or below hi_i, and f is never evaluated at an end.  Newton
    steps kept in the shrinking sign bracket (``rtsafe``, Press et al.,
    *Numerical Recipes*, 3rd ed., 9.4) bisect where Newton's would leave
    it or not halve the last step, or f' is 0 or +-inf (a kink).  A root
    is taken at a step of at most (xtol + rtol |x|)/2, Brent's rule.
    Raises ValueError for a NaN inside a bracket, RuntimeError after 100 steps."""
    lo, hi = np.atleast_1d(np.asarray(lo, dtype=float)), np.atleast_1d(np.asarray(hi, dtype=float))
    x, last, todo = 0.5 * (lo + hi), np.abs(hi - lo), np.ones(lo.shape, dtype=bool)
    for _ in range(100):
        if not todo.any():
            return x
        fx, dfx = f(x)
        if np.isnan(fx[todo]).any():
            raise ValueError("f is NaN inside a bracket")
        lo, hi = np.where(todo & (fx < 0), x, lo), np.where(todo & (fx > 0), x, hi)
        left, right = np.minimum(lo, hi), np.maximum(lo, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = x - fx / dfx
        keep = (np.isfinite(dfx) & (left <= newton) & (newton <= right)
                & (np.abs(newton - x) <= 0.5 * last))
        step = np.where(keep, np.abs(newton - x), 0.5 * (right - left))
        todo &= fx != 0
        x = np.where(todo, np.where(keep, newton, 0.5 * (left + right)), x)
        last = np.where(todo, step, last)
        todo &= step > 0.5 * (xtol + rtol * np.abs(x))
    raise RuntimeError("bracketed_newton took 100 steps without reaching the tolerance")


def _n_values(spec, units, omegas) -> np.ndarray:
    """N(omega) = 2(omega^2 - omega0^2)/omega0 - I(omega), elementwise."""
    w = np.asarray(omegas, dtype=float)
    w0 = units.omega0
    return 2.0 * (w * w - w0 * w0) / w0 - spec.dispersion(w)


def _n_slope(spec, units, w: np.ndarray) -> np.ndarray:
    """N'(omega) = 4 omega/omega0 - I'(omega), elementwise on an array."""
    return 4.0 * w / units.omega0 - spec.dispersion_derivative(w)


# ---------------------------------------------------------------------------
# grid construction

def _grid_bounds(spec: CouplingSpectrum) -> tuple[float, float, float]:
    """Open-interval node bounds (lo, hi) and the edge-ladder span."""
    lo_edge = max(spec.support_lower, 0.0)
    hi_edge = min(spec.omega_max, spec.support_upper)
    span = hi_edge - lo_edge
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
    """Zeros of N(omega), one per sign change between finite values on a
    scan, with local Lorentzian half-widths pi |V|^2 / |N'|."""
    lattice = np.geomspace(lo, hi, SCAN_POINTS)
    nvals = _n_values(spec, units, lattice)
    sign = np.where(np.isfinite(nvals), np.sign(nvals), 0.0)    # none at inf or nan
    i = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    neg = i + (sign[i] > 0)     # the end of each bracket where N < 0
    try:
        pk = bracketed_newton(lambda w: (_n_values(spec, units, w), _n_slope(spec, units, w)),
                              lattice[neg], lattice[2 * i + 1 - neg], xtol=1e-14, rtol=1e-14)
    except ValueError:
        return []
    nprime, vsq = np.abs(_n_slope(spec, units, pk)), spec.v_sq(pk)
    with np.errstate(divide="ignore", invalid="ignore"):
        width = np.where((nprime > 0) & (vsq > 0), math.pi * vsq / nprime, 1e-3 * pk)
    width = np.maximum(width, 1e-9 * units.omega0)
    room = 0.25 * np.minimum(pk - lo, hi - pk)
    return list(zip(pk.tolist(), np.where(room > 0, np.minimum(width, room), width).tolist()))


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
    return SpectralSolution(omegas=nodes, pi=_assemble(spec, units, nodes)[3],
                            spec=spec, units=units, **kwargs)


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


def _midpoints(nodes, idx):
    """The midpoints of the intervals nodes[idx], nodes[idx + 1], and
    which of them fall strictly inside (between adjacent floats none do)."""
    mids = 0.5 * (nodes[idx] + nodes[idx + 1])
    return mids, (nodes[idx] < mids) & (mids < nodes[idx + 1])


def _bound_states(spec, units, nodes) -> list[list[float]]:
    """[Omega_b, pi_b] for each zero Omega_b of N where V^2 = 0, a bound
    state of weight pi_b = 4 Omega_b / (omega0 |N'(Omega_b)|) (U. Fano,
    Phys. Rev. 124, 1866 (1961)).  N rises strictly where V^2 = 0, so at
    most one lies below a support that starts above 0, above a bounded one
    (its top doubled until N > 0), and in each run of nodes with V^2 = 0
    between coupled nodes.  Brackets start one float off a support edge,
    where N may be infinite.  Raises as bracketed_newton does."""
    zero = spec.v_sq(nodes) == 0.0
    first = np.flatnonzero(~zero[:-1] & zero[1:]) + 1
    last = np.flatnonzero(zero[:-1] & ~zero[1:])
    last = last[last >= first[0]] if first.size else last[:0]
    lo, hi = list(nodes[first[:last.size]]), list(nodes[last])
    if spec.support_lower > 0:
        lo.append(0.0)
        hi.append(np.nextafter(spec.support_lower, 0.0))
    if math.isfinite(spec.support_upper):
        top = 2.0 * spec.support_upper
        while _n_values(spec, units, top) <= 0:
            top *= 2.0
        lo.append(np.nextafter(spec.support_upper, math.inf))
        hi.append(top)
    lo, hi = np.array(lo), np.array(hi)
    keep = (_n_values(spec, units, lo) < 0) & (_n_values(spec, units, hi) > 0)
    roots = bracketed_newton(lambda w: (_n_values(spec, units, w), _n_slope(spec, units, w)),
                             lo[keep], hi[keep], xtol=1e-14, rtol=1e-14)
    weights = 4.0 * roots / (units.omega0 * np.abs(_n_slope(spec, units, roots)))
    return np.stack([roots, weights], axis=1).tolist()


def compute_pi(spec: CouplingSpectrum, units: UnitSystem, *,
               norm_tol: float = NORM_TOL, sum_tol: float = SUM_TOL,
               max_nodes: int = MAX_NODES, max_rounds: int = MAX_ROUNDS) -> SpectralSolution:
    """Evaluate pi on build_grid's nodes and refine until the
    normalisation and the omega^2 sum rule both hold to tolerance.

    Each round bisects the intervals that fail the 1% jump test or the
    error budget.  The grid comes first, so that a zero coupling is
    refused before an inadmissible model, and both before a bad
    tolerance or budget.  Raises ConvergenceError with diagnostics at
    the first of these stops:

    * pi jumps only across intervals between adjacent floats, a point
      mass (bound state) no grid holds;
    * no interval fails either test while a defect still misses its
      tolerance: the grid resolves pi, and the mass it lacks lies where
      no node reaches, in a bound state outside a bounded support or a
      tail cut off by omega_max on an unbounded one;
    * the node budget or the round budget runs out.
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
        norm_defect, sum_defect = abs(sol.norm_defect), abs(sol.sum_defect)
        if norm_defect <= norm_tol and sum_defect <= sum_tol and not jumps.any():
            return sol

        err = _interval_error_indicator(nodes, pi, units)
        marked = jumps | (err > 0.25 * min(norm_tol, sum_tol) / err.size)
        # stop when pi jumps only across intervals of adjacent floats, which
        # have no midpoint (a peak no grid resolves, so the jump test cannot
        # pass), when no interval is marked (the grid resolves pi, so more
        # nodes would not move the defects), when no nodes are left, or no
        # round to evaluate them
        at = np.flatnonzero(jumps)
        unresolved = at.size > 0 and not _midpoints(nodes, at)[1].any()
        room = max_nodes - nodes.size
        if unresolved or not marked.any() or room <= 0 or rounds + 1 == max_rounds:
            break
        # Largest offenders first if the budget cannot take them all.
        idx = np.flatnonzero(marked)
        if idx.size > room:
            keep = np.argsort(err[idx])[::-1][:room]
            idx = idx[keep]
        mids, inside = _midpoints(nodes, idx)
        nodes = np.sort(np.concatenate([nodes, mids[inside]]))

    point_mass = ("a point mass (bound state) of the dressed oscillator, which "
                  "the grid cannot hold; raising omega_max does not help")
    try:
        states = _bound_states(spec, units, nodes)
    except (ValueError, RuntimeError):
        states = []
    heavy = ", ".join(f"{w:.8g} (weight {p:.6g})" for w, p in states if p > norm_tol)
    if heavy:
        missing = (f"about {norm_defect:.3g} of the spectral mass lies where |V|^2 = 0, "
                   f"at omega = {heavy}: {point_mass}")
    elif math.isfinite(spec.support_upper):
        # omega_max cannot cut a bounded support (spectra refuses that), so
        # the missing mass is not in a truncated tail
        missing = (f"about {norm_defect:.3g} of the spectral mass lies outside "
                   f"the coupling support: {point_mass}")
    else:
        missing = "omega_max is probably truncating spectral weight; raise it and rerun"
    message = "grid refinement exhausted its budget before reaching tolerance"
    if unresolved:
        message = "grid refinement cannot resolve pi"
        guidance = (f"pi jumps by more than 1% of its peak across {at.size} intervals "
                    f"between adjacent floats, at omega = {nodes[at[0]]:.6g}: a point mass "
                    "(bound state) of the dressed oscillator, where |V|^2 is too "
                    "small to give it a width the grid can hold; neither "
                    "grid.max_nodes nor omega_max helps")
    elif not marked.any():
        message = "grid refinement resolved pi, but its defects miss tolerance"
        guidance = missing
    elif room <= 0:
        # more nodes help only while some interval still fails the jump test
        guidance = (f"the node budget grid.max_nodes = {max_nodes} ran out after "
                    f"{rounds} of {max_rounds} refinement rounds, with "
                    f"{int(jumps.sum())} intervals still failing the jump test (pi "
                    "changing by more than 1% of its peak across one interval); "
                    + ("raise grid.max_nodes" if jumps.any()
                       else "if the defect has stalled, " + missing))
    else:
        guidance = "if the defect has stalled, " + missing
    raise ConvergenceError(message, detail={
        "norm_defect": norm_defect, "sum_defect": sum_defect,
        "nodes": int(nodes.size), "rounds": rounds, "guidance": guidance,
        "bound_states": states,
    })


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
    may carry at most sol.alias_mass_tol of total spectral weight.  The
    grid is split once: the lightest violating intervals are exempt up
    to half that budget, and every other one is split into equal parts
    no wider than ALIAS_LIMIT / t_max.  The new nodes are counted before
    any is built, and more than MAX_NEW_NODES are refused with
    ConvergenceError.  pi is evaluated on the merged nodes, and the
    result carries the same budget.  A solution that already meets the
    requirement is returned as it is.
    """
    checked(t_max, "number", "t_max")
    if t_max <= 0:
        return sol
    nodes, pi = sol.omegas, sol.pi     # the grid, not the measure
    h_max = ALIAS_LIMIT / t_max
    h = np.diff(nodes)
    masses = 0.5 * (pi[:-1] + pi[1:]) * h      # trapezoidal
    violating = h > h_max
    budget = sol.alias_mass_tol * masses.sum()
    if masses[violating].sum() <= budget:
        return sol
    # Exempt the lightest violating intervals up to half the mass budget.
    idx = np.flatnonzero(violating)
    order = idx[np.argsort(masses[idx])]
    split = violating.copy()
    split[order[np.cumsum(masses[order]) <= budget * 0.5]] = False
    # each split interval into k equal parts, its k - 1 inner points;
    # k is clipped where it alone would be refused, so that the count
    # stays finite when h / h_max overflows
    with np.errstate(over="ignore"):
        k = np.minimum(np.ceil(h[split] / h_max), MAX_NEW_NODES + 1).astype(np.intp)
    inner = k - 1
    added = int(inner.sum())
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
    merged = np.sort(np.concatenate([nodes, new_nodes]))
    meta = {**sol.meta, "refined_for_t_max": t_max, "nodes": int(merged.size)}
    return _solution(sol.spec, sol.units, merged,
                     alias_mass_tol=sol.alias_mass_tol, meta=meta)
