"""Seeded inputs for the four benchmark workloads.

Every workload is a fixed list of operations drawn from ``--seed``.  The
seed jitters the parameters of each model inside a fixed stratum
(family, coupling strength as a share of the admissibility bound, band
position), so every seed yields the same kinds of model and a batch of
about the same cost, while no two seeds give the same numbers.  Strata
on which the package fails today are kept: they are what ``failed`` and
``ok_ratio`` measure.

The program under test never sees this module; it only reads the JSON
configs written from ``Op.config``.  Nothing here imports ``dosc``.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

@dataclass
class Op:
    """One operation: a ``dosc`` subcommand, or the relaxation path
    (``cmd == "evolve"``), on one generated config.

    ``expect`` is the exit code a correct program gives: 0 for an
    admissible model, 2 for one beyond the admissibility bound.
    """

    model: str
    cmd: str
    config: dict
    expect: int = 0
    extra: dict = field(default_factory=dict)

    @property
    def id(self) -> str:
        return f"{self.model}/{self.cmd}"


# ---------------------------------------------------------------------------
# spectrum families, scaled to a target positivity integral
# P = int V^2/omega domega, in units of omega0 = 1 (admissible iff P < 1)

def ohmic(P: float, cutoff: float) -> dict:
    return {"family": "ohmic_exp", "amplitude": math.sqrt(P / cutoff),
            "cutoff": cutoff}


def flat(P: float, lower: float, upper: float) -> dict:
    return {"family": "flat_band", "level": math.sqrt(P / math.log(upper / lower)),
            "lower": lower, "upper": upper}


def _simpson(f, a: float, b: float, n: int = 4000) -> float:
    h = (b - a) / n
    s = f(a) + f(b)
    s += 4.0 * sum(f(a + (2 * i - 1) * h) for i in range(1, n // 2 + 1))
    s += 2.0 * sum(f(a + 2 * i * h) for i in range(1, n // 2))
    return s * h / 3.0


def gauss(P: float, center: float, width: float) -> dict:
    # the package truncates the peak at +-8 widths
    unit = _simpson(lambda w: math.exp(-0.5 * ((w - center) / width) ** 2) / w,
                    center - 8.0 * width, center + 8.0 * width)
    return {"family": "gaussian_peak", "amplitude": math.sqrt(P / unit),
            "center": center, "width": width}


def tabulated(omegas: list[float], shape: list[float], P: float) -> dict:
    """Piecewise-linear V through (omegas, shape), scaled to integral P."""
    unit = 0.0
    for (a, va), (b, vb) in zip(zip(omegas, shape), zip(omegas[1:], shape[1:])):
        def v_sq_over_w(w, a=a, b=b, va=va, vb=vb):
            v = va + (vb - va) * (w - a) / (b - a)
            return v * v / w if w > 0 else 0.0
        unit += _simpson(v_sq_over_w, a, b, 400)
    s = math.sqrt(P / unit)
    return {"family": "tabulated", "omegas": list(omegas),
            "values": [s * v for v in shape]}


# ---------------------------------------------------------------------------
# workloads

def _config(spectrum: dict, **blocks) -> dict:
    doc = {"units": {"omega0": 1.0, "mass": 1.0, "hbar": 1.0},
           "spectrum": spectrum}
    doc.update(blocks)
    return doc


def _sweep(rng: random.Random, smoke: bool) -> list[Op]:
    u = rng.uniform
    # (model, spectrum, commands, expected exit code)
    if smoke:
        models = [
            ("flat_in", flat(u(0.1, 0.2), u(0.08, 0.12), u(1.8, 2.2)),
             ("spectrum", "groundstate"), 0),
            ("ohmic_over", ohmic(u(1.02, 1.3), u(1.0, 5.0)), ("spectrum",), 2),
        ]
    else:
        lo = u(1.95, 2.05)
        ramp_top = u(4.1, 4.3)
        kink_top = u(3.9, 4.1)
        sin_top = u(2.95, 3.05)
        models = [
            ("ohmic_critical", ohmic(u(0.995, 0.999), u(2.9, 3.1)),
             ("spectrum", "groundstate"), 0),
            ("ohmic_weak", ohmic(u(0.008, 0.0085), u(1.45, 1.55)),
             ("spectrum", "groundstate", "weak"), 0),
            ("flat_in", flat(u(0.14, 0.16), u(0.098, 0.102), u(1.95, 2.05)),
             ("spectrum", "groundstate"), 0),
            # six-node rise and fall with kinks at the nodes
            ("tab_kinked", tabulated([kink_top * k / 5 for k in range(6)],
                                     [0.0, 1.0, 0.83, 0.67, 0.5, 0.33],
                                     u(0.09, 0.11)),
             ("spectrum", "groundstate"), 0),
            ("ohmic_mid", ohmic(u(0.33, 0.36), u(4.3, 4.7)), ("spectrum",), 0),
            # band above omega0: the dressed oscillator mode is a point
            # mass outside the support
            ("flat_bound", flat(u(0.02, 0.025), lo, lo + u(0.95, 1.05)),
             ("spectrum", "groundstate"), 0),
            ("tab_sin2", tabulated(
                [sin_top * k / 11 for k in range(12)],
                [math.sin(math.pi * k / 11) ** 2 for k in range(12)],
                u(0.09, 0.11)),
             ("spectrum", "groundstate"), 0),
            ("gauss_bound", gauss(u(0.014, 0.016), u(1.97, 2.03), u(0.098, 0.102)),
             ("spectrum",), 0),
            ("gauss_weak", gauss(u(0.005, 0.0055), u(0.99, 1.01), u(0.098, 0.102)),
             ("spectrum", "groundstate", "weak"), 0),
            ("ohmic_over", ohmic(u(1.1, 1.2), u(2.9, 3.1)),
             ("spectrum", "groundstate"), 2),
            # V linear from 0 through six nodes
            ("tab_ramp", tabulated([ramp_top * k / 5 for k in range(6)],
                                   [k / 5 for k in range(6)], u(0.024, 0.026)),
             ("spectrum",), 0),
            ("flat_over", flat(u(1.2, 1.3), u(0.098, 0.102), u(1.95, 2.05)),
             ("spectrum",), 2),
            ("gauss_over", gauss(u(1.2, 1.3), u(0.99, 1.01), u(0.098, 0.102)),
             ("spectrum",), 2),
        ]
    # A model's operations stay together (groundstate is checked against
    # the spectrum before it).  Models and dynamics calls are interleaved
    # so that operations of similar cost spread over the whole pass, and
    # the median operation samples all of it.
    dynamics = _dynamics_ops(rng, smoke)
    ops: list[Op] = []
    for i, (name, spec, cmds, expect) in enumerate(models):
        ops += [Op(name, cmd, _config(spec), expect) for cmd in cmds]
        if i % 2 == 1 and dynamics:
            ops.append(dynamics.pop(0))
    return ops + dynamics


def _dynamics_ops(rng: random.Random, smoke: bool) -> list[Op]:
    """``dosc dynamics`` from moderate to near-critical coupling, t_max 20-45."""
    u = rng.uniform

    def op(name, spec, t_max, n_times, expect=0):
        return Op(name, "dynamics",
                  _config(spec, time={"t_max": t_max, "n_times": n_times,
                                      "x0": 1.0, "p0": 0.0}), expect)

    if smoke:
        return [op("dyn_flat_in", flat(u(0.1, 0.2), u(0.08, 0.12), u(1.8, 2.2)),
                   u(4.0, 5.0), 51)]
    lo = u(1.95, 2.05)
    return [
        op("dyn_ohmic_critical", ohmic(u(0.995, 0.999), u(4.4, 4.6)),
           u(27.0, 28.0), 501),
        op("dyn_flat_narrow", flat(u(0.045, 0.055), u(0.49, 0.51), u(1.48, 1.52)),
           u(39.0, 41.0), 401),
        op("dyn_flat_long", flat(u(0.14, 0.16), u(0.098, 0.102), u(1.95, 2.05)),
           u(44.0, 46.0), 501),
        op("dyn_flat_bound", flat(u(0.02, 0.025), lo, lo + u(0.95, 1.05)),
           u(21.5, 22.5), 401),
        op("dyn_ohmic_over", ohmic(u(1.1, 1.2), u(4.4, 4.6)), 22.0, 401, expect=2),
    ]


def _oracle_compare(rng: random.Random, smoke: bool) -> list[Op]:
    u = rng.uniform

    def op(name, spec, N, bath_omega_max, bins, l1, expect=0):
        return Op(name, "compare", _config(
            spec, oracle={"N": N, "scheme": "uniform", "bins": bins,
                          "bath_omega_max": bath_omega_max},
            tolerances={"rel_var": 0.005, "histogram_l1": l1}), expect)

    if smoke:
        return [op("flat_in", flat(u(0.1, 0.2), u(0.08, 0.12), u(1.8, 2.2)),
                   200, None, 40, 0.1)]
    lo = u(1.95, 2.05)
    return [
        op("ohmic_n4000", ohmic(u(0.29, 0.31), u(4.9, 5.1)), 4000, 40.0, 160, 0.02),
        # half the modes: half the bins and the histogram gate of
        # configs/flat_band.json, else bin noise sits at the 0.02 gate
        op("flat_n2000", flat(u(0.14, 0.16), u(0.098, 0.102), u(1.95, 2.05)),
           2000, None, 80, 0.05),
        op("flat_bound_n2000", flat(u(0.02, 0.025), lo, lo + u(0.95, 1.05)),
           2000, None, 80, 0.05),
        op("ohmic_over_n4000", ohmic(u(1.1, 1.2), u(4.9, 5.1)), 4000, 40.0,
           160, 0.02, expect=2),
    ]


def _oracle_evolve(rng: random.Random, smoke: bool) -> list[Op]:
    u = rng.uniform

    def op(name, P, cutoff, N, n_times, expect=0):
        spec = ohmic(P, cutoff)
        # weak-coupling line width 2 * pi V^2(omega0) / 4 sets the time
        # grid, as the fitted width does in scripts/relaxation_demo.py
        gamma = 0.5 * math.pi * P / cutoff * math.exp(-1.0 / cutoff)
        return Op(name, "evolve", _config(spec), expect,
                  extra={"N": N, "bath_top": 30.0, "n_times": n_times,
                         "x0": 1.0, "gamma": gamma})

    if smoke:
        return [op("ohmic_n200", u(0.25, 0.35), u(4.5, 5.5), 200, 21)]
    return [
        op("ohmic_n4000", u(0.29, 0.31), u(4.9, 5.1), 4000, 241),
        op("ohmic_n2000", u(0.29, 0.31), u(4.9, 5.1), 2000, 241),
        op("ohmic_over_n2000", u(1.1, 1.2), u(4.9, 5.1), 2000, 241, expect=2),
    ]


_GENERATORS = {"sweep": _sweep, "oracle_compare": _oracle_compare,
             "oracle_evolve": _oracle_evolve}
WORKLOADS = tuple(_GENERATORS)


def generate(workload: str, seed: int, smoke: bool = False) -> list[Op]:
    """The workload's batch for this seed; the same seed gives the same batch."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"), smoke)
