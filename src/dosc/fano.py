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

normalised to one.  This module evaluates pi in closed form at the
nodes of a fixed composite Gauss-Legendre rule; a solution keeps the
rule's breakpoints and pi at its nodes, and is a (nodes, weights)
measure: the nodes with Gauss weight times pi, then its atoms.  A
finite-bath decomposition is another (Omegas, O_0k^2).  The moment
functional << f(omega) >> is weights @ f(nodes) over either.

Numerical form: everything is built from N(omega) = Y * |V|^2, which
stays finite in the far tails where Y itself overflows;
|alpha|^2 = (omega+omega0)^2 |V|^2 / (omega0^2 (N^2 + pi^2 |V|^4)).
N is one array expression over all nodes: I(omega) comes from the
spectrum family's closed form (``CouplingSpectrum.dispersion``), which
the tests check against scalar QUADPACK calls.

The rule: PANEL_POINTS Gauss-Legendre nodes on each panel between
breakpoints that halve their distance to 0 or a sharp lower edge, and
to a finite upper edge, down to 1e-16 of the span; that halve it to each
interior node of a tabulated V, from both sides, down to 1e-3 of the
adjacent segment; and that double theirs from each resonance (zero of
N, bracketed and signed by a scan, then refined by Newton steps on the
closed-form slope N', whose value there gives the Lorentzian half-width
w), from w/2 until they pass both ends of the support.  An unbounded
support gets panels doubling from omega_max past 1e4 omega_max.  A
resonance below omega_max keeps the rungs of its ladder above it that
are finer than the first tail panel; the tail panels are scanned too,
and past a resonance there the doubling goes on to 1e4 times it.  Such
rules converge exponentially for integrands analytic on each panel
(Davis & Rabinowitz, *Methods of Numerical Integration*, 2nd ed.,
1984; Trefethen, *Approximation Theory and Approximation Practice*,
ch. 19).  N is evaluated once on the nodes, and once more on the same
panels with CHECK_POINTS nodes each: the two rules' moments certify
the first.  Every later integral of pi takes the same rule, split by
SpectralSolution.split where it must be: inside panels too wide for
t_max, at the histogram's bin edges, and at the fit window's ends and
the crossings of pi and the fitted line.

Where |V|^2 = 0, pi is point masses only: the bound states at the zeros
of N, of Fano weight 4 Omega_b / (omega0 |N'(Omega_b)|).  No panel holds
one: compute_pi refuses states heavier than NORM_TOL together and names
them (_bound_states), and keeps lighter ones as atoms of the measure
(Gautschi, *Orthogonal Polynomials*, 2004, ch. 2), which every moment,
kernel and bin counts; V = 0 is the bare mode, one state at omega0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .csvio import write_csv
from .errors import ConvergenceError, UsageError, checked
# unused here; perfbench/tracer.py wraps these names to count quadrature calls
from .quadrature import cauchy_pv, integrate  # noqa: F401
from .spectra import CouplingSpectrum, Tabulated, UnitSystem, require_admissible

NORM_TOL = 1e-6
SUM_TOL = 1e-6
IDENTITY_TOL = 1e-9     # |identity_defect|'s floor; see identity_tolerance

# Gauss-Legendre nodes a panel, of the rule and of its certificate
PANEL_POINTS = 16
CHECK_POINTS = 24
# Grading of the breakpoints: edge ladders reach 2**-53 (about 1e-16) of
# the span, table-node ladders 2**-10 (about 1e-3) of a segment (on the
# benchmark's tables 2**-7 left the two rules 1.7e-12 apart, where 2**-10
# leaves 1.7e-15, and 2**-53 took 6,400-13,200 nodes), and
# an unbounded support's panels double 14 times from omega_max, past
# 1e4 omega_max (or 1e4 times a resonance above it).  Breakpoints closer
# than DISTINCT relative are dropped, so that the Gauss nodes of the
# narrowest panels stay distinct floats.
EDGE_DEPTH = 53
TABLE_DEPTH = 10
TAIL_DOUBLINGS = 14
DISTINCT = 1e-12
SCAN_POINTS = 160

# Anti-aliasing bound of the time-domain rule: panel width * t_max <=
# ALIAS_LIMIT, where PANEL_POINTS Gauss nodes integrate e^{i omega t} to
# 4e-16, except on panels carrying at most ALIAS_MASS_TOL of the
# spectral mass, and the node budget refine_for_times may add to reach it.
ALIAS_LIMIT = 16.0
ALIAS_MASS_TOL = 1e-6
MAX_NEW_NODES = 120000


@dataclass(frozen=True, eq=False)
class SpectralSolution:
    """pi on the panel rule on ``breaks`` and its atoms, plus provenance.

    The panel part: ``omegas``, the PANEL_POINTS Gauss-Legendre nodes of
    each panel, panel by panel, their Gauss weights ``gauss``, and pi and
    its ``columns`` (Y, alpha_sq, beta/alpha) there, which to_csv writes.
    The measure: ``nodes`` and ``weights``, the panel part (omegas,
    gauss * pi) then the atoms ``bound_states`` ([Omega_b, pi_b], which
    compute_pi keeps where the panels alone miss a gate), and its three
    signed defects ``norm_defect = <<1>> - 1``, ``sum_defect =
    <<omega^2>>/omega0^2 - 1`` and identity_defect (with ``margin``).
    ``meta`` holds compute_pi's ``rounds`` (0), ``nodes`` (of the panels)
    and ``rule_difference``, and refine_for_times' ``refined_for_t_max``.
    ``spec`` and ``units`` let dynamics and diagnostics evaluate the
    dispersion integrals at new frequencies.  ``split`` refines the rule.
    Instances are immutable.
    """

    breaks: np.ndarray
    pi: np.ndarray
    spec: CouplingSpectrum
    units: UnitSystem
    margin: float
    columns: tuple[np.ndarray, np.ndarray, np.ndarray] = field(repr=False)
    meta: dict = field(default_factory=dict, repr=False)
    bound_states: list = field(default_factory=list, repr=False)
    omegas: np.ndarray = field(init=False, repr=False)
    gauss: np.ndarray = field(init=False, repr=False)
    nodes: np.ndarray = field(init=False, repr=False)
    weights: np.ndarray = field(init=False, repr=False)
    norm_defect: float = field(init=False)
    sum_defect: float = field(init=False)
    identity_defect: float = field(init=False)

    def __post_init__(self):
        omegas, gauss = panel_rule(self.breaks)
        nodes, weights = omegas, gauss * self.pi
        if self.bound_states:   # the atoms, (Omega_b, pi_b) columns
            nodes, weights = np.concatenate([[nodes, weights], np.transpose(self.bound_states)], 1)
        for name, value in dict(omegas=omegas, gauss=gauss, nodes=nodes, weights=weights).items():
            object.__setattr__(self, name, value)
        for name, value in _defects(self).items():
            object.__setattr__(self, name, value)

    @property
    def omega0(self) -> float:
        return self.units.omega0

    def pi_at(self, omegas: np.ndarray) -> np.ndarray:
        """pi at any frequencies, assembled as at the nodes."""
        return _assemble(self.spec, self.units, omegas)[3]

    def split(self, points) -> SpectralSolution:
        """The solution on its breakpoints and the ``points`` between its
        ends, merged by _distinct (a point within DISTINCT of a breakpoint
        stands in for it), pi and its columns assembled on every node and
        ``meta["nodes"]`` their count."""
        b, points = self.breaks, np.asarray(points, dtype=float)
        merged = _distinct(np.concatenate([b, points[(points > b[0]) & (points < b[-1])]]))
        *columns, pi = _assemble(self.spec, self.units, panel_rule(merged)[0])
        return replace(self, breaks=merged, pi=pi, columns=tuple(columns),
                       meta={**self.meta, "nodes": pi.size})

    def to_csv(self, path) -> None:
        """Write columns omega, Y, alpha_sq, beta_ratio, pi at full precision."""
        write_csv(path, "omega,Y,alpha_sq,beta_ratio,pi", [self.omegas, *self.columns, self.pi])


# The positive nodes of the n-point Gauss-Legendre rule on [-1, 1] in
# increasing order, and their weights, for n = PANEL_POINTS and
# CHECK_POINTS; the rule is symmetric about 0.
_GAUSS_LEGENDRE = {
    16: ((0.09501250983763723, 0.2816035507792589, 0.45801677765722726,
          0.6178762444026442, 0.7554044083550032, 0.8656312023878319,
          0.9445750230732326, 0.9894009349916497),
         (0.18945061045506859, 0.18260341504492422, 0.1691565193950028,
          0.14959598881657687, 0.12462897125553453, 0.09515851168249254,
          0.06225352393864754, 0.027152459411754478)),
    24: ((0.06405689286260552, 0.19111886747361667, 0.3150426796961636,
          0.4337935076260453, 0.5454214713888395, 0.6480936519369753,
          0.7401241915785546, 0.8200019859739028, 0.8864155270044012,
          0.9382745520027328, 0.9747285559713098, 0.9951872199970213),
         (0.12793819534675235, 0.12583745634682778, 0.12167047292780325,
          0.11550566805372584, 0.10744427011596534, 0.09761865210411422,
          0.08619016153195336, 0.07334648141108027, 0.059298584915436575,
          0.04427743881742026, 0.02853138862893351, 0.012341229799987384)),
}


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on [-1, 1],
    n one of the table's counts; read-only, as they are shared.

    The table is literal.  Its numbers are those of the eigen-decomposition
    of the rule's Jacobi matrix (Golub & Welsch, Math. Comp. 23 (1969)
    221), symmetrised, to the last bit; the tests keep that computation
    as the table's generator.  Computed here, the one LAPACK eigh of
    every continuum command added about 0.9 MB resident at its first
    call, and numpy.polynomial's leggauss would cost about 5 ms of
    import."""
    half_x, half_w = (np.array(v) for v in _GAUSS_LEGENDRE[n])
    x = np.concatenate([-half_x[::-1], half_x])
    w = np.concatenate([half_w[::-1], half_w])
    x.flags.writeable = w.flags.writeable = False
    return x, w


def panel_rule(breaks: np.ndarray, n: int = PANEL_POINTS) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the n-point Gauss-Legendre rule on each panel
    between adjacent breakpoints, panel by panel: increasing nodes, n a
    panel."""
    x, w = _gauss_legendre(n)
    half = 0.5 * np.diff(breaks)[:, None]
    mid = 0.5 * (breaks[:-1] + breaks[1:])[:, None]
    return (mid + half * x).ravel(), (half * w).ravel()


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
# the rule's breakpoints

def _support_scan(lo: float, hi: float) -> np.ndarray:
    """The scan lattice of the support [lo, hi]: SCAN_POINTS geometric in
    the distance from lo, from 1e-6 of hi - lo on."""
    return lo + (hi - lo) * np.geomspace(1e-6, 1.0, SCAN_POINTS)


def _find_peaks(spec, units, lattice: np.ndarray) -> list[tuple[float, float]]:
    """Zeros of N(omega), one per sign change between finite values on an
    increasing scan ``lattice``, with local Lorentzian half-widths
    pi |V|^2 / |N'|."""
    nvals = _n_values(spec, units, lattice)
    sign = np.where(np.isfinite(nvals), np.sign(nvals), 0.0)    # none at inf or nan
    i = np.flatnonzero(sign[:-1] * sign[1:] < 0)
    if not i.size:
        return []
    neg = i + (sign[i] > 0)     # the end of each bracket where N < 0
    try:
        pk = bracketed_newton(lambda w: (_n_values(spec, units, w), _n_slope(spec, units, w)),
                              lattice[neg], lattice[2 * i + 1 - neg], xtol=1e-14, rtol=1e-14)
    except ValueError:
        return []
    nprime, vsq = np.abs(_n_slope(spec, units, pk)), spec.v_sq(pk)
    with np.errstate(divide="ignore", invalid="ignore"):
        width = np.where((nprime > 0) & (vsq > 0), math.pi * vsq / nprime, 1e-3 * pk)
    return list(zip(pk.tolist(), np.maximum(width, 1e-9 * units.omega0).tolist()))


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted values less those within DISTINCT relative of the value
    below them: of each run so close, the first is kept, and of the last
    run the last, so both ends stay and kept values are farther apart."""
    v = np.sort(values)
    start = np.empty(v.shape, dtype=bool)
    start[:1] = True
    np.greater(v[1:] - v[:-1], DISTINCT * np.abs(v[1:]), out=start[1:])
    kept = v[start]
    kept[-1] = v[-1]
    return kept


def build_grid(spec: CouplingSpectrum, units: UnitSystem) -> np.ndarray:
    """The panel rule's breakpoints, graded as the module docstring says,
    from the lower end of the support (or 0) to its upper end, and on an
    unbounded support on past omega_max."""
    lo = max(spec.support_lower, 0.0)
    top = min(spec.omega_max, spec.support_upper)
    unbounded = math.isinf(spec.support_upper)
    ladder = (top - lo) * 2.0 ** -np.arange(1, EDGE_DEPTH + 1)
    parts = [lo + ladder]
    if not unbounded:
        parts.append(top - ladder)
    if isinstance(spec, Tabulated):
        x = np.asarray(spec.omegas, dtype=float)
        steps = 2.0 ** -np.arange(1, TABLE_DEPTH + 1)[:, None]
        parts += [x, (x[1:-1] - np.diff(x)[:-1] * steps).ravel(),
                  (x[1:-1] + np.diff(x)[1:] * steps).ravel()]
    # a resonance above omega_max lies in the tail panels of an unbounded
    # support: they are scanned on past the support's lattice, which
    # stays the same, geometric from omega_max to their end.  Its ladder
    # runs on to that end, and the panels double on past 1e4 times it
    scan, end = _support_scan(lo, top), top * 2.0 ** TAIL_DOUBLINGS
    if unbounded:
        scan = np.concatenate([scan, np.geomspace(top, end, SCAN_POINTS)[1:]])
    tail, scale = [], top
    for pk, w in _find_peaks(spec, units, scan):
        if pk <= top:
            ladder = _ladder(pk, w, lo, top)
            parts.append(ladder)
            # its wing above omega_max: the rungs finer than the first
            # tail panel, closer to the line than its width, omega_max
            if unbounded:
                tail.append(ladder[(ladder > top) & (ladder - pk < top)])
        else:
            ladder = _ladder(pk, w, lo, end)
            tail.append(ladder[(ladder > lo) & (ladder < end)])
            scale = max(scale, pk)
    inner = np.concatenate(parts)
    inner = inner[(inner > lo) & (inner < top)]
    if unbounded:
        doublings = TAIL_DOUBLINGS + math.ceil(math.log2(scale / top))
        tail.append(top * 2.0 ** np.arange(1, doublings + 1))
    return _distinct(np.concatenate([[lo, top], inner, *tail]))


def _ladder(pk: float, w: float, lo: float, hi: float) -> np.ndarray:
    """Breakpoints pk -+ w 2^j for j = -1, 0, 1, ... until both sides
    pass lo and hi."""
    doublings = np.arange(-1, math.log2(max(pk - lo, hi - pk) / w) + 1)
    return pk + np.outer([-w, w], 2.0 ** doublings).ravel()


# ---------------------------------------------------------------------------
# solution assembly and certificate

def _assemble(spec, units, nodes):
    w0 = units.omega0
    w = nodes
    nvals = _n_values(spec, units, w)
    vsq = np.asarray(spec.v_sq(w), dtype=float)
    denom = nvals * nvals + (math.pi**2) * vsq * vsq
    # where V^2 underflows in a tail, Y = N/V^2 overflows to +-inf
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha_sq = np.where(vsq > 0, (w + w0) ** 2 * vsq / (w0 * w0 * denom), 0.0)
        Y = np.where(vsq > 0, nvals / vsq, np.nan)
    pi = alpha_sq * (4.0 * w0 * w / (w0 + w) ** 2)
    beta = (w - w0) / (w + w0)
    return Y, alpha_sq, beta, pi


def _rule_difference(spec, units, breaks, pi) -> tuple[float, int]:
    """The largest difference in <<1>>, <<omega^2>>/omega0^2 and
    omega0 <<1/omega>> between the rule with ``pi`` at its nodes and
    CHECK_POINTS nodes on the same panels, and the panel that differs
    most."""
    w0 = units.omega0

    def panel_moments(n, pi):
        nodes, gauss = panel_rule(breaks, n)
        if pi is None:
            pi = _assemble(spec, units, nodes)[3]
        f = np.stack([np.ones_like(nodes), (nodes / w0) ** 2, w0 / nodes])
        return (f * (gauss * pi)).reshape(3, -1, n).sum(axis=2)

    d = panel_moments(PANEL_POINTS, pi) - panel_moments(CHECK_POINTS, None)
    return float(np.max(np.abs(d.sum(axis=1)))), int(np.argmax(np.max(np.abs(d), axis=0)))


def _bound_states(spec, units, points) -> list[list[float]]:
    """[Omega_b, pi_b], increasing, for each zero Omega_b of N where V^2 = 0,
    a bound state of weight 4 Omega_b / (omega0 |N'(Omega_b)|) (U. Fano,
    Phys. Rev. 124, 1866 (1961)).  N rises strictly where V^2 = 0, so each
    lies between two adjacent ``points`` (sorted here) where V^2 = 0 and
    N(lo) < 0 < N(hi).  The support's edges add points one float outside
    them, where N may be infinite: 0 and the float below a lower edge
    above 0, and the float above a finite upper edge and its first
    doubling where N > 0.  Raises as bracketed_newton does."""
    edges = [0.0, np.nextafter(spec.support_lower, 0.0)] if spec.support_lower > 0 else []
    if math.isfinite(spec.support_upper):
        top = 2.0 * spec.support_upper
        while _n_values(spec, units, top) <= 0:
            top *= 2.0
        edges += [np.nextafter(spec.support_upper, math.inf), top]
    points = np.sort(np.concatenate([points, edges]))
    zero = spec.v_sq(points) == 0.0
    pair = zero[:-1] & zero[1:]
    lo, hi = points[:-1][pair], points[1:][pair]
    keep = (_n_values(spec, units, lo) < 0) & (_n_values(spec, units, hi) > 0)
    roots = bracketed_newton(lambda w: (_n_values(spec, units, w), _n_slope(spec, units, w)),
                             lo[keep], hi[keep], xtol=1e-14, rtol=1e-14)
    weights = 4.0 * roots / (units.omega0 * np.abs(_n_slope(spec, units, roots)))
    return np.stack([roots, weights], axis=1).tolist()


def compute_pi(spec: CouplingSpectrum, units: UnitSystem) -> SpectralSolution:
    """Evaluate pi on the nodes of the panel rule on build_grid's
    breakpoints, and certify it.

    Trailing panels where pi is 0 at every node are dropped.  The
    certificate: <<1>>, <<omega^2>>/omega0^2 and omega0 <<1/omega>> of
    CHECK_POINTS nodes on the same panels within min(NORM_TOL, SUM_TOL)
    (``meta["rule_difference"]``), and the gates of _certified.  When the
    panels alone miss, the measure gains as atoms the bound states
    _bound_states finds on every breakpoint, the dropped panels' too, and
    the nodes ([] if the search fails), unless they weigh more than
    NORM_TOL together.  Raises ConvergenceError, with ``nodes``,
    ``rounds`` (0), ``guidance`` and ``bound_states`` in its detail, when
    V is identically zero (checked first, then admissibility: pi is the
    bare mode); when the two rules differ (pi has structure narrower than
    its panels, in effect a point mass); when the norm or the sum rule
    misses (naming states heavier than NORM_TOL); or when only the
    identity does (pi is wrong at its low end).
    """
    if spec.is_zero():
        raise ConvergenceError(
            "coupling is identically zero: the frequency density is a point mass "
            "at omega0 and cannot be represented on a grid; ground-state "
            "observables reduce to the textbook closed forms",
            detail={"nodes": 0, "rounds": 0, "bound_states": [[units.omega0, 1.0]],
                    "guidance": "use the closed-form path for V = 0"})
    margin = require_admissible(spec, units)
    grid = build_grid(spec, units)

    *columns, pi = _assemble(spec, units, panel_rule(grid)[0])
    live = np.flatnonzero(pi.reshape(-1, PANEL_POINTS).any(axis=1))
    panels = live[-1] + 1 if live.size else grid.size - 1
    n = panels * PANEL_POINTS
    breaks, pi, columns = grid[:panels + 1], pi[:n], tuple(c[:n] for c in columns)
    diff, worst = _rule_difference(spec, units, breaks, pi)
    sol = SpectralSolution(breaks=breaks, pi=pi, columns=columns, spec=spec, units=units,
                           margin=margin,
                           meta={"rounds": 0, "nodes": pi.size, "rule_difference": diff})
    unresolved = diff > min(NORM_TOL, SUM_TOL)
    if not unresolved and _certified(sol):
        return sol

    try:
        states = _bound_states(spec, units, np.concatenate([grid, sol.omegas]))
    except (ValueError, RuntimeError):
        states = []
    # below a sharp edge 1e-8 of the mass moves the identity by 1e-6
    if sum(p for _, p in states) <= NORM_TOL:
        sol = replace(sol, bound_states=states)
    if not unresolved and _certified(sol):
        return sol
    norm_defect, sum_defect = abs(sol.norm_defect), abs(sol.sum_defect)
    message = "the panel rule resolved pi, but its defects miss tolerance"
    if unresolved:
        h, mid = np.diff(breaks), 0.5 * (breaks[:-1] + breaks[1:])
        message = "the panel rule cannot resolve pi"
        guidance = (f"its {PANEL_POINTS}- and {CHECK_POINTS}-node sums differ by {diff:.3g}, "
                    f"most on the panel of width {h[worst]:.3g} at omega = {mid[worst]:.8g}: "
                    "pi has structure narrower than the panels there, such as a line "
                    "where |V|^2 is too small to give it a width the panels can hold, "
                    "in effect a point mass (bound state) of the dressed oscillator")
    elif norm_defect > NORM_TOL or sum_defect > SUM_TOL:
        heavy = ", ".join(f"{w:.8g} (weight {p:.6g})" for w, p in states if p > NORM_TOL)
        found = (f"at omega = {heavy}" if heavy else
                 f"though the bound-state search found none heavier than {NORM_TOL:g}")
        guidance = (f"about {norm_defect:.3g} of the spectral mass lies where |V|^2 = 0, "
                    f"{found}: a point mass (bound state) of the dressed oscillator, which "
                    "the grid cannot hold; raising omega_max does not help")
    else:
        guidance = (f"<<1/omega^2>> omega0 margin misses 1 by {abs(sol.identity_defect):.3g}, "
                    f"beyond {identity_tolerance(sol):.3g}, with {len(sol.bound_states)} "
                    "bound state(s) counted: pi is wrong at its low end, which sets var_x")
    raise ConvergenceError(message, detail={
        "norm_defect": norm_defect, "sum_defect": sum_defect,
        "identity_defect": abs(sol.identity_defect),
        "rule_difference": diff, "nodes": sol.omegas.size, "rounds": 0, "guidance": guidance,
        "bound_states": states,
    })


def _defects(measure) -> dict:
    """A measure's signed defects, as SpectralSolution names them."""
    w0 = measure.omega0
    return {"norm_defect": frequency_moment(measure, 0) - 1.0,
            "sum_defect": frequency_moment(measure, 2) / (w0 * w0) - 1.0,
            "identity_defect": identity_defect(measure)}


def _certified(measure) -> bool:
    """A measure's norm, omega^2 sum rule and low-end identity in their gates."""
    gates = (NORM_TOL, SUM_TOL, identity_tolerance(measure))
    return all(abs(d) <= gate for d, gate in zip(_defects(measure).values(), gates))


def solve(spec: CouplingSpectrum, units: UnitSystem) -> SpectralSolution:
    """The certified solution: compute_pi."""
    return compute_pi(spec, units)


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


def identity_defect(measure) -> float:
    """<<1/omega^2>> omega0 margin - 1, with the measure's ``margin``: 0
    for the exact pi, whose <<1/omega^2>> is R(0) = 1/(omega0 margin)
    (Grabert, Schramm & Ingold, Phys. Rep. 168, 115 (1988)), as for a
    finite bath's (K^-1)_00."""
    return frequency_moment(measure, -2) * measure.omega0 * measure.margin - 1.0


def identity_tolerance(measure) -> float:
    """IDENTITY_TOL, or eps omega0/margin (the margin's rounding) if larger."""
    return max(IDENTITY_TOL, np.finfo(float).eps * measure.omega0 / measure.margin)


def bin_masses(measure, edges: np.ndarray) -> np.ndarray:
    """The mass of a (nodes, weights) measure in each bin between
    adjacent increasing ``edges``, each bin summing its own weights in
    order (a running sum would leave every bin about 1e-16 of the whole
    mass off); nodes outside the edges count in none.  Every panel of
    ``sol.split(edges)`` lies in one bin, so its masses of pi, atoms
    included, are exact."""
    at = np.searchsorted(edges, measure.nodes, side="right") - 1
    inside = (at >= 0) & (at < edges.size - 1)
    return np.bincount(at[inside], weights=measure.weights[inside], minlength=edges.size - 1)


# ---------------------------------------------------------------------------
# time-domain rule

def refine_for_times(sol: SpectralSolution, t_max: float) -> SpectralSolution:
    """Return a solution whose panels resolve oscillations up to t_max.

    Requirement: panels violating  (width) * t_max <= ALIAS_LIMIT  may
    carry at most ALIAS_MASS_TOL of total spectral weight.  The
    panels are split once: the lightest violating panels are exempt up
    to half that budget, and every other one is split into equal parts
    no wider than ALIAS_LIMIT / t_max.  An exempt panel moves each kernel
    by its weights times the kernel's factor (1, 1/omega or omega), not by
    its mass: on ohmic_reference split for t_max 8, 2.8e-8 of exempt mass
    at omega 42-6400 leaves k_sin_times 3.1e-7 off.  The new nodes are
    counted before any is built, and more than MAX_NEW_NODES are
    refused with ConvergenceError.  pi and its columns are assembled
    again on every node of the merged rule, the unsplit panels'
    included.  A solution that already meets the requirement, such as
    one split for t_max or a longer time, is returned as it is.
    """
    checked(t_max, "number", "t_max")
    if t_max <= 0:
        return sol
    breaks = sol.breaks
    h_max = ALIAS_LIMIT / t_max
    h = np.diff(breaks)
    masses = (sol.gauss * sol.pi).reshape(h.size, -1).sum(axis=1)
    violating = h > h_max
    budget = ALIAS_MASS_TOL * masses.sum()
    if masses[violating].sum() <= budget:
        return sol
    # Exempt the lightest violating panels up to half the mass budget.
    idx = np.flatnonzero(violating)
    order = idx[np.argsort(masses[idx])]
    split = violating.copy()
    split[order[np.cumsum(masses[order]) <= budget * 0.5]] = False
    # each split panel into k equal parts, its k - 1 inner breakpoints;
    # k is clipped where it alone would be refused, so that the count
    # stays finite when h / h_max overflows
    with np.errstate(over="ignore"):
        k = np.minimum(np.ceil(h[split] / h_max), MAX_NEW_NODES + 1).astype(np.intp)
    inner = k - 1
    added = PANEL_POINTS * int(inner.sum())
    if added > MAX_NEW_NODES:
        raise ConvergenceError(
            "time-grid refinement budget exceeded",
            detail={"t_max": t_max, "new_nodes": added,
                    "guidance": "shorten the time span"},
        )
    # np.linspace's points j * (h / k) + left, j = 1..k-1
    first = np.repeat(np.cumsum(inner) - inner, inner)
    j = np.arange(1, first.size + 1) - first
    refined = sol.split(j * np.repeat(h[split] / k, inner) + np.repeat(breaks[:-1][split], inner))
    refined.meta["refined_for_t_max"] = t_max
    return refined
