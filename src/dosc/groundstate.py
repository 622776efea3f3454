"""Reduced ground-state observables from frequency moments.

Every observable is a function of two moments of pi(omega),
M1 = <<omega>> and Minv = <<1/omega>>, mapped in one place (_summary);
M2 = <<omega^2>> enters only the sum-rule check.  The reduced state
is Gaussian with zero means, var_x = hbar Minv / 2m and
var_p = hbar m M1 / 2; the pair (omega_c, n_bar_c) re-expresses it as a
thermal state at the effective frequency omega_c = sqrt(M1/Minv), which
reproduces both variances identically.

Works on any (nodes, weights) measure: a fano.SpectralSolution or the
oracle's normal-mode decomposition.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from .errors import InternalConsistencyError
from .fano import frequency_moment
from .spectra import UnitSystem

# Below this, a negative occupation is round-off; at or beyond it, the
# Cauchy-Schwarz invariant M1*Minv >= 1 is genuinely broken.
OCCUPATION_CLAMP = -1e-12

IDENTITY_TOL = 1e-9
SUM_RULE_TOL = 1e-6


@dataclass(frozen=True)
class GroundStateSummary:
    """All scalar observables of the reduced oscillator state."""

    mean_x: float
    mean_p: float
    var_x: float
    var_p: float
    sym_xp: float
    quad_x_unc: float
    quad_p_unc: float
    omega_c: float
    n_bar_c: float
    T_eff: float
    entropy: float
    mutual_info: float
    mean_energy: float

    def to_json_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    def report_block(self) -> str:
        """Human-readable summary, one observable per line."""
        lines = [
            "ground state of the damped oscillator",
            f"  var_x        = {self.var_x:.12g}",
            f"  var_p        = {self.var_p:.12g}",
            f"  quad unc     = {self.quad_x_unc:.9g} (x), {self.quad_p_unc:.9g} (p)",
            f"  omega_c      = {self.omega_c:.12g}",
            f"  n_bar_c      = {self.n_bar_c:.12g}",
            f"  T_eff        = {self.T_eff:.12g}",
            f"  entropy      = {self.entropy:.12g} nats",
            f"  mutual info  = {self.mutual_info:.12g} nats",
            f"  mean energy  = {self.mean_energy:.12g}",
        ]
        return "\n".join(lines)


def _summary(m1: float, minv: float, units: UnitSystem) -> GroundStateSummary:
    """Every observable from M1 = <<omega>> and Minv = <<1/omega>>.

    n_bar_c = (sqrt(M1 Minv) - 1)/2 is clamped to 0 at round-off;
    T_eff = hbar omega_c / ln(1 + 1/n_bar_c) with k_B = 1, and the
    entropy S = (n+1) ln(n+1) - n ln n in nats, are 0 at n_bar_c = 0;
    E = (hbar omega0 / 4)(M1/omega0 + omega0 Minv).
    """
    hbar, m, w0 = units.hbar, units.mass, units.omega0
    n = 0.5 * (math.sqrt(m1 * minv) - 1.0)
    if n < 0.0:
        if n <= OCCUPATION_CLAMP:
            raise InternalConsistencyError(
                f"thermal occupation {n} is negative beyond round-off; "
                "the moment inequality <<omega>><<1/omega>> >= 1 is broken"
            )
        n = 0.0
    wc = math.sqrt(m1 / minv)
    t_eff = entropy = 0.0
    if n != 0.0:
        t_eff = hbar * wc / math.log1p(1.0 / n)
        entropy = (n + 1.0) * math.log1p(n) - n * math.log(n)
    return GroundStateSummary(
        mean_x=0.0, mean_p=0.0,
        var_x=hbar * minv / (2.0 * m),
        var_p=hbar * m * m1 / 2.0,
        sym_xp=0.0,
        quad_x_unc=math.sqrt(0.5 * w0 * minv),
        quad_p_unc=math.sqrt(0.5 * m1 / w0),
        omega_c=wc,
        n_bar_c=n,
        T_eff=t_eff,
        entropy=entropy,
        mutual_info=2.0 * entropy,
        mean_energy=0.25 * hbar * w0 * (m1 / w0 + w0 * minv),
    )


def ground_state_moments(sol, units: UnitSystem) -> GroundStateSummary:
    """Full observable bundle; means and sym_xp vanish by construction."""
    return _summary(frequency_moment(sol, 1), frequency_moment(sol, -1), units)


def uncoupled_summary(units: UnitSystem) -> GroundStateSummary:
    """Closed-form textbook values for V identically zero."""
    hbar, m, w0 = units.hbar, units.mass, units.omega0
    return GroundStateSummary(
        mean_x=0.0, mean_p=0.0,
        var_x=hbar / (2.0 * m * w0),
        var_p=hbar * m * w0 / 2.0,
        sym_xp=0.0,
        quad_x_unc=math.sqrt(0.5),
        quad_p_unc=math.sqrt(0.5),
        omega_c=w0, n_bar_c=0.0, T_eff=0.0,
        entropy=0.0, mutual_info=0.0,
        mean_energy=0.5 * hbar * w0,
    )


@dataclass(frozen=True)
class IdentityReport:
    """Defects of the algebraic identities tying the two representations."""

    thermal_frequency_defect: float   # (n+1/2) omega_c - <<omega>>/2
    var_x_mixture_defect: float       # var_x vs (2n+1) hbar / (2 m omega_c), relative
    var_p_mixture_defect: float       # var_p vs (2n+1) hbar m omega_c / 2, relative
    mutual_info_defect: float         # mutual_info - 2 entropy
    sum_rule_defect: float            # |<<omega^2>> - omega0^2| / omega0^2
    ok: bool


def interpretation_identities(sol, units: UnitSystem) -> IdentityReport:
    """Check the thermal reinterpretation against the direct moments.

    The first four identities are algebraic consequences of the
    definitions; a defect above 1e-9 means an implementation bug and
    raises.  The last is the omega^2 sum rule at its physics tolerance.
    """
    hbar, m, w0 = units.hbar, units.mass, units.omega0
    m1 = frequency_moment(sol, 1)
    s = _summary(m1, frequency_moment(sol, -1), units)
    m2 = frequency_moment(sol, 2)

    d_freq = abs((s.n_bar_c + 0.5) * s.omega_c - 0.5 * m1) / (0.5 * m1)
    vx_ref = (2.0 * s.n_bar_c + 1.0) * hbar / (2.0 * m * s.omega_c)
    vp_ref = (2.0 * s.n_bar_c + 1.0) * hbar * m * s.omega_c / 2.0
    d_vx = abs(s.var_x - vx_ref) / vx_ref
    d_vp = abs(s.var_p - vp_ref) / vp_ref
    d_mi = abs(s.mutual_info - 2.0 * s.entropy)
    d_sum = abs(m2 - w0 * w0) / (w0 * w0)

    algebraic = {
        "thermal_frequency": d_freq,
        "var_x_mixture": d_vx,
        "var_p_mixture": d_vp,
        "mutual_info": d_mi,
    }
    for name, defect in algebraic.items():
        if defect > IDENTITY_TOL:
            raise InternalConsistencyError(
                f"identity '{name}' broken: defect {defect:.3e} > {IDENTITY_TOL}"
            )
    ok = d_sum <= SUM_RULE_TOL
    if not ok:
        raise InternalConsistencyError(
            f"potential coefficient <<omega^2>> deviates from omega0^2 by {d_sum:.3e}"
        )
    return IdentityReport(
        thermal_frequency_defect=d_freq,
        var_x_mixture_defect=d_vx,
        var_p_mixture_defect=d_vp,
        mutual_info_defect=d_mi,
        sum_rule_defect=d_sum,
        ok=ok,
    )
