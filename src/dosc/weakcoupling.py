"""Weak-damping limit: Lamb-type shift and the Lorentzian line shape.

For weak coupling the frequency density approaches a normalised
Lorentzian of HWHM pi |V(omega0)|^2 / 4 centred on omega0 + F(omega0),

    F(omega) = 1/4 int ( PV/(omega-omega') - 1/(omega+omega') )
               |V(omega')|^2 domega',

and this module quantifies how fast: lorentzian_fit measures the
fitted centre, width and L1 residual of the exact density against
that prediction.  The Lorentzian is an approximation in the wings
(its own second moment diverges; the exact density obeys the sum
rule), so the fit window is clipped to the core.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .csvio import write_csv
from .errors import ConvergenceError, UsageError, checked
from .spectra import CouplingSpectrum, UnitSystem, require_admissible

WINDOW_HWHMS = 10.0    # fit window half-width, in units of the HWHM guess
FIT_MAX_TRIALS = 200   # Levenberg-Marquardt steps tried, accepted or not


def lamb_shift(spec: CouplingSpectrum, units: UnitSystem, omega: float) -> float:
    """F(omega) = I(omega)/4, the frequency pull of the coupling, with I
    the spectrum's closed-form dispersion integral (a principal value
    inside the support, an ordinary integral outside).

    A pole pinned to a support edge where |V|^2 does not vanish is
    genuinely divergent: ConvergenceError.
    """
    checked(omega, "number >= 0", "omega")
    require_admissible(spec, units)
    if spec.is_zero():
        return 0.0
    shift = 0.25 * float(spec.dispersion(omega))
    if not math.isfinite(shift):
        raise ConvergenceError(
            f"the shift F diverges at omega = {omega}: a support edge where "
            "|V|^2 jumps", detail={"omega": omega},
        )
    return shift


def approx_alpha_sq(spec: CouplingSpectrum, units: UnitSystem, omega: float) -> float:
    """Weak-damping |alpha|^2: exact everywhere except the resonant
    denominator, where (omega - omega0 - F)^2 + (pi |V|^2/4)^2 stands in."""
    w0 = units.omega0
    vsq = spec.v_sq(float(omega))
    shift = lamb_shift(spec, units, omega)
    denom = (omega - w0 - shift) ** 2 + (math.pi * vsq / 4.0) ** 2
    if denom == 0.0:
        raise UsageError("degenerate denominator: zero coupling exactly at resonance")
    return (vsq / 4.0) / denom


@dataclass(frozen=True, eq=False)
class WeakCouplingReport:
    """Lorentzian fit of the frequency density against the
    weak-coupling prediction.

    ``residual_l1`` is the integral of |pi - lorentzian| over the fit
    window (window = fitted centre +- 10 predicted HWHM); comparable
    across couplings since pi carries unit mass.  ``max_beta_ratio_peak``
    is the largest admixture ratio |beta/alpha| across one full width
    at half maximum around the bare resonance, approximately
    hwhm/(2 omega0) when the width is small.
    """

    F0: float
    hwhm_pred: float
    fwhm_pred: float
    center_fit: float
    hwhm_fit: float
    residual_l1: float
    max_beta_ratio_peak: float
    window: tuple[float, float]
    overlay_omegas: np.ndarray = field(repr=False)
    overlay_pi: np.ndarray = field(repr=False)
    overlay_lorentz: np.ndarray = field(repr=False)

    def to_json_dict(self) -> dict:
        return {
            "F0": self.F0,
            "hwhm_pred": self.hwhm_pred,
            "fwhm_pred": self.fwhm_pred,
            "center_fit": self.center_fit,
            "hwhm_fit": self.hwhm_fit,
            "residual_l1": self.residual_l1,
            "max_beta_ratio_peak": self.max_beta_ratio_peak,
            "window_lo": self.window[0],
            "window_hi": self.window[1],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def overlay_csv(self, path) -> None:
        write_csv(path, "omega,pi_exact,pi_lorentz",
                  [self.overlay_omegas, self.overlay_pi, self.overlay_lorentz])


def _lorentz(w: np.ndarray, c: float, g: float) -> np.ndarray:
    return (g / math.pi) / ((w - c) ** 2 + g * g)


def _fit(wm, pm, rt, start, lower, upper) -> tuple[float, float]:
    """Minimise sum(((lorentz(wm; c, g) - pm) rt)^2) over (c, g) from
    ``start`` by Levenberg-Marquardt (Marquardt's diagonal scaling,
    analytic Jacobian), each step clipped to the box [lower, upper].
    Stops when a step no longer moves either parameter by more than
    1e-15 relative, so the minimum is reached to rounding."""
    def residual(c, g):
        """Half the squared residual norm, and what the Jacobian needs."""
        d = wm - c
        den = d * d + g * g
        r = ((g / math.pi) / den - pm) * rt
        return 0.5 * float(r @ r), (g, d, den, r)

    def normal_equations(g, d, den, r):
        """J^T J = [[a11, a12], [a12, a22]] and J^T r = [b1, b2]."""
        scale = rt / (math.pi * den * den)
        jc, jg = 2.0 * g * d * scale, (d * d - g * g) * scale
        return float(jc @ jc), float(jc @ jg), float(jg @ jg), float(jc @ r), float(jg @ r)

    def clip(v, i):
        return min(max(v, lower[i]), upper[i])

    c, g = start
    cost, state = residual(c, g)
    normal = normal_equations(*state)
    lam = 1e-3
    for _ in range(FIT_MAX_TRIALS):
        a11, a12, a22, b1, b2 = normal
        d11, d22 = a11 * (1.0 + lam), a22 * (1.0 + lam)
        det = d11 * d22 - a12 * a12
        c_new = clip(c + (a12 * b2 - d22 * b1) / det, 0)
        g_new = clip(g + (a12 * b1 - d11 * b2) / det, 1)
        if abs(c_new - c) <= 1e-15 * abs(c) and abs(g_new - g) <= 1e-15 * g:
            break
        cost_new, state_new = residual(c_new, g_new)
        if cost_new < cost:
            c, g, cost = c_new, g_new, cost_new
            normal = normal_equations(*state_new)
            lam *= 0.1
        else:
            lam *= 10.0
    return c, g


def lorentzian_fit(sol, jitter_rng=None) -> WeakCouplingReport:
    """Least-squares fit of pi(omega) near its peak to a unit-mass
    Lorentzian; raises ConvergenceError when pi has no isolated
    interior peak to fit.

    ``jitter_rng`` (a numpy Generator) perturbs the fit's starting
    point by up to 10% as a stability probe; a well-conditioned fit
    must land on the same minimum.  Default is no jitter.
    """
    w = sol.omegas
    pi = sol.pi
    units = sol.units
    spec = sol.spec
    i_pk = int(np.argmax(pi))
    if i_pk in (0, w.size - 1):
        raise ConvergenceError(
            "frequency density has no interior peak; Lorentzian fit "
            "does not apply", detail={"argmax_index": i_pk},
        )
    peak = float(w[i_pk])
    half = pi[i_pk] / 2.0
    left = np.nonzero(pi[:i_pk] < half)[0]
    right = np.nonzero(pi[i_pk:] < half)[0]
    if left.size == 0 or right.size == 0:
        raise ConvergenceError(
            "frequency density never falls to half maximum on one side; "
            "peak is not isolated", detail={"peak": peak},
        )
    hwhm0 = 0.5 * (float(w[i_pk + right[0]]) - float(w[left[-1]]))

    lo = max(peak - WINDOW_HWHMS * hwhm0, float(w[0]))
    hi = min(peak + WINDOW_HWHMS * hwhm0, float(w[-1]))
    mask = (w >= lo) & (w <= hi)
    if mask.sum() < 10:
        raise ConvergenceError(
            "fewer than 10 grid nodes in the fit window",
            detail={"window": (lo, hi), "nodes": int(mask.sum())},
        )
    wm = w[mask]
    pm = pi[mask]
    # trapezoid weights make the least-squares objective approximate
    # an integral, so the adaptive node clustering does not bias it
    tw = np.empty_like(wm)
    tw[1:-1] = 0.5 * (wm[2:] - wm[:-2])
    tw[0] = 0.5 * (wm[1] - wm[0])
    tw[-1] = 0.5 * (wm[-1] - wm[-2])
    rt = np.sqrt(tw)

    c_start, g_start = peak, hwhm0
    if jitter_rng is not None:
        c_start = peak + hwhm0 * 0.1 * jitter_rng.uniform(-1.0, 1.0)
        g_start = hwhm0 * (1.0 + 0.1 * jitter_rng.uniform(-1.0, 1.0))
        c_start = min(max(c_start, lo), hi)
    center_fit, hwhm_fit = _fit(wm, pm, rt, (c_start, g_start),
                                (lo, 1e-15), (hi, hi - lo))
    lor = _lorentz(wm, center_fit, hwhm_fit)
    residual_l1 = float(np.trapezoid(np.abs(pm - lor), wm))

    # largest admixture ratio across one full width at half maximum
    # around the bare resonance; |beta/alpha| grows with |omega-omega0|
    # so the band edges dominate
    w0 = units.omega0
    edges = np.array([max(w0 - hwhm_fit, 0.0), w0 + hwhm_fit])
    max_beta = float(np.max(np.abs((edges - w0) / (edges + w0))))

    vsq0 = spec.v_sq(w0)
    hwhm_pred = math.pi * vsq0 / 4.0
    return WeakCouplingReport(
        F0=lamb_shift(spec, units, w0),
        hwhm_pred=hwhm_pred,
        fwhm_pred=2.0 * hwhm_pred,
        center_fit=center_fit,
        hwhm_fit=hwhm_fit,
        residual_l1=residual_l1,
        max_beta_ratio_peak=max_beta,
        window=(lo, hi),
        overlay_omegas=wm, overlay_pi=pm, overlay_lorentz=lor,
    )
