"""Batch front door: config-driven runs, CSV/JSON emission, exit codes.

One JSON config per run.  Subcommands: spectrum, groundstate, dynamics,
compare, weak.  Exit codes: 0 ok, 1 usage error or an allocation the
machine cannot make, 2 physics rejection (positivity), 3 numerical
non-convergence.  Failures print a one-line JSON error object to stderr.

Import discipline: numpy fixes its BLAS thread pool when it is first
imported, so DOSC_THREADS must be applied to the environment before
that happens.  Everything numerical is therefore imported lazily inside
the command bodies, and this module's top level stays import-light.
Those lazy imports are of dosc's own modules, which every command needs
anyway; a third-party import must not be deferred into a command, since
it then lands inside the command's time rather than start-up.  Instead,
no run-path module imports any of scipy (the CLI stack then loads about
230 modules, against 579 with scipy.special and scipy.linalg.lapack):
the Gauss-Legendre nodes of fano's panel rule are literal tables, not
numpy.polynomial's; roots come from a bracketed
Newton (fano.bracketed_newton) on closed-form slopes; the Lorentzian
fit is a small Levenberg-Marquardt in weakcoupling; xlogy, Dawson's
integral and the ohmic Ei/E1 bracket are numpy ports in spectra; and
oracle solves its secular equation in numpy, with LAPACK dlasd4's steps
vectorised over all roots.  scipy is imported at call time in one place
only, the tests' QUADPACK reference quadrature._quad, and is a test
dependency.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import types
from dataclasses import dataclass, fields
from pathlib import Path

from .errors import DoscError, UsageError, checked

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def _cap_threads() -> None:
    raw = os.environ.get("DOSC_THREADS")
    if raw is None:
        return
    try:
        n = int(raw)
    except ValueError:
        raise UsageError(f"DOSC_THREADS must be a positive integer, got {raw!r}")
    if n < 1:
        raise UsageError(f"DOSC_THREADS must be a positive integer, got {raw!r}")
    for var in _THREAD_ENV_VARS:
        os.environ.setdefault(var, str(n))


# ---------------------------------------------------------------------------
# run configuration

# Each option field's default and rule.  A rule is one of errors.checked
# ("number" or "integer", with an optional lower bound such as ">= 1"),
# or a tuple of the strings allowed.  A default of None also admits
# null.
_OPTIONS = {
    "time": {
        "t_max": (None, "number"),
        "n_times": (600, "integer >= 2"),
        "x0": (1.0, "number"),
        "p0": (0.0, "number"),
    },
    "oracle": {
        "N": (800, "integer >= 1"),
        "scheme": ("uniform", ("uniform",)),
        "bins": (160, "integer >= 1"),
        "bath_omega_max": (None, "number > 0"),
    },
    "tolerances": {
        "rel_var": (0.005, "number >= 0"),
        "histogram_l1": (0.02, "number >= 0"),
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Everything a run needs, parsed and validated."""

    units: object
    spectrum: object | None
    model: dict | None
    time: types.SimpleNamespace
    oracle: types.SimpleNamespace
    tolerances: types.SimpleNamespace
    out_dir: str | None


def _require_object(value, path: str, allowed) -> None:
    if not isinstance(value, dict):
        raise UsageError(f"{path} must be a JSON object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(allowed))
    if unknown:
        raise UsageError(
            f"unknown key(s) {unknown} in {path}; allowed: {sorted(allowed)}")


def _checked(value, rule, path: str):
    """``value`` if it passes ``rule`` (see _OPTIONS), else UsageError."""
    if not isinstance(rule, tuple):
        return checked(value, rule, path)
    if value in rule:
        return value
    raise UsageError(
        f"{path} must be one of {', '.join(map(repr, rule))}, got {value!r}")


def _options(name: str, data) -> dict:
    """One option block, filled from _OPTIONS and checked field by field."""
    table = _OPTIONS[name]
    _require_object(data, name, table)
    out = {key: default for key, (default, _) in table.items()}
    for key, value in data.items():
        default, rule = table[key]
        if value is not None or default is not None:
            value = _checked(value, rule, f"{name}.{key}")
        out[key] = value
    return out


def _numbers(value, path: str) -> list[float]:
    if not isinstance(value, list):
        raise UsageError(f"{path} must be a list of numbers")
    return [float(checked(x, "number", f"{path}[{i}]")) for i, x in enumerate(value)]


def _construct(cls, data: dict, path: str, label: str):
    """``cls(**data)``; the keys it accepts and requires are its init
    fields, and a field annotated ``Sequence`` takes a list of numbers.
    A refusal of one field is named by its dotted path, others by label."""
    init = [f for f in fields(cls) if f.init]
    names = [f.name for f in init]
    _require_object(data, path, names)
    missing = [f.name for f in init if f.name not in data
               and f.default is dataclasses.MISSING]
    if missing:
        raise UsageError(f"{label} is missing key(s) {missing}")
    kwargs = {f.name: tuple(_numbers(data[f.name], f"{path}.{f.name}"))
              if f.type.startswith("Sequence") else data[f.name]
              for f in init if f.name in data}
    try:
        return cls(**kwargs)
    except (UsageError, TypeError, ValueError) as exc:
        if str(exc).split(" must ", 1)[0] in names:
            raise UsageError(f"{path}.{exc}") from exc
        raise UsageError(f"{label}: {exc}") from exc


def _build_spectrum(data):
    from . import spectra
    if not isinstance(data, dict) or "family" not in data:
        raise UsageError("spectrum needs a 'family' key naming the coupling family")
    families = {cls.family: cls for cls in spectra.CouplingSpectrum.__subclasses__()}
    family = data["family"]
    if not (isinstance(family, str) and family in families):
        raise UsageError(
            f"unknown spectrum.family {family!r}; known: {sorted(families)}")
    kwargs = {k: v for k, v in data.items() if k != "family"}
    return _construct(families[family], kwargs, "spectrum", f"spectrum ({family})")


def _build_model(data) -> dict:
    _require_object(data, "model", {"bath_freqs", "couplings"})
    model = {key: _numbers(data.get(key), f"model.{key}")
             for key in ("bath_freqs", "couplings")}
    if len(model["bath_freqs"]) != len(model["couplings"]):
        raise UsageError("model.bath_freqs and model.couplings must have equal length")
    return model


def _apply_override(raw: dict, item: str) -> None:
    if "=" not in item:
        raise UsageError(f"override {item!r} is not of the form key=value")
    key, text = item.split("=", 1)
    try:
        value = json.loads(text)
    except json.JSONDecodeError:
        value = text  # bare strings stay strings
    node = raw
    parts = key.split(".")
    for part in parts[:-1]:
        nxt = node.setdefault(part, {})
        if not isinstance(nxt, dict):
            raise UsageError(
                f"override {key!r} descends into non-object at {part!r}")
        node = nxt
    node[parts[-1]] = value


def load_config(path: str | None, overrides: list[str]) -> RunConfig:
    """Parse and validate one run config; every failure names the spot."""
    if path is None:
        raise UsageError("--config PATH is required")
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise UsageError(
            f"config {path} is not valid JSON: line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}") from exc
    if not isinstance(raw, dict):
        raise UsageError("config root must be a JSON object")
    for item in overrides:
        _apply_override(raw, item)
    _require_object(raw, "config", [f.name for f in fields(RunConfig)])
    if "spectrum" in raw and "model" in raw:
        raise UsageError("give either 'spectrum' or 'model', not both")

    from .spectra import UnitSystem
    units = _construct(UnitSystem, raw.get("units", {}), "units", "units")
    out_dir = raw.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise UsageError("out_dir must be a string path")
    spectrum = _build_spectrum(raw["spectrum"]) if "spectrum" in raw else None
    model = _build_model(raw["model"]) if "model" in raw else None
    return RunConfig(
        units=units, spectrum=spectrum, model=model, out_dir=out_dir,
        **{name: types.SimpleNamespace(**_options(name, raw.get(name, {})))
           for name in _OPTIONS})


def _need_spectrum(cfg: RunConfig):
    if cfg.spectrum is None:
        raise UsageError("this command needs a 'spectrum' block in the config")
    return cfg.spectrum


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# commands

def cmd_spectrum(cfg: RunConfig, out: Path) -> int:
    from . import fano

    spec = _need_spectrum(cfg)
    sol = fano.solve(spec, cfg.units)
    sol.to_csv(out / "pi.csv")
    summary = {
        "n_nodes": int(sol.omegas.size),
        "norm_defect": sol.norm_defect,
        "sum_rule_defect": sol.sum_defect,
        "identity_defect": sol.identity_defect,
        "bound_states": sol.bound_states,
        "mean_frequency": fano.frequency_moment(sol, 1),
        "mean_inverse_frequency": fano.frequency_moment(sol, -1),
    }
    _write_json(out / "summary.json", summary)
    print(f"norm defect     = {sol.norm_defect:.17g}")
    print(f"sum-rule defect = {sol.sum_defect:.17g}")
    print(f"wrote {out / 'pi.csv'}, {out / 'summary.json'}")
    return 0


def _identity_block(report) -> str:
    return ("certificate of pi's ends\n"
            f"  low-end identity   = {report.identity_defect:.3e}\n"
            f"  sum rule           = {report.sum_rule_defect:.3e}\n"
            f"  ok                 = {report.ok}")


def cmd_groundstate(cfg: RunConfig, out: Path) -> int:
    from . import groundstate

    if cfg.model is not None:
        from . import oracle
        model = oracle.FiniteBathModel(
            cfg.units.omega0, cfg.model["bath_freqs"], cfg.model["couplings"])
        source = oracle.normal_modes(model)
        origin = {"source": "finite_model", "n_bath_modes": model.n_modes}
    elif _need_spectrum(cfg).is_zero():
        source, origin = groundstate.bare_mode(cfg.units), {"source": "uncoupled"}
    else:
        from . import fano
        source = fano.solve(cfg.spectrum, cfg.units)
        origin = {"source": "continuum", "n_nodes": int(source.omegas.size)}

    summary = groundstate.ground_state_moments(source, cfg.units)
    identities = groundstate.interpretation_identities(source, cfg.units)
    (out / "groundstate.json").write_text(summary.to_json() + "\n")
    text = summary.report_block() + "\n" + _identity_block(identities) + "\n"
    (out / "report.txt").write_text(text)
    print(text, end="")
    print(f"origin: {origin}")
    return 0


def cmd_dynamics(cfg: RunConfig, out: Path) -> int:
    import numpy as np

    from . import dynamics, fano

    spec = _need_spectrum(cfg)
    t = cfg.time
    if t.t_max is None or not t.t_max > 0:
        raise UsageError("dynamics needs time.t_max > 0")
    ts = np.linspace(0.0, t.t_max, t.n_times)
    # the kernels split the solve's panels once, for t_max, and the
    # damping scan runs over that measure on (0, t_max]
    kern = dynamics.kernels(fano.solve(spec, cfg.units), ts)
    kern.to_csv(out / "kernels.csv")
    traj = dynamics.mean_trajectory(kern, t.x0, t.p0, cfg.units)
    traj.to_csv(out / "trajectory.csv")
    cls = dynamics.classify_damping(kern)
    _write_json(out / "damping.json", dataclasses.asdict(cls))
    if cls.first_stationary_time is None:
        print(f"damping: {cls.damping_class} over {cls.scan_window:g}")
    else:
        print(f"damping: {cls.damping_class} "
              f"(first stationary point at t = {cls.first_stationary_time:.17g})")
    print(f"wrote {out / 'kernels.csv'}, {out / 'trajectory.csv'}, "
          f"{out / 'damping.json'}")
    return 0


def cmd_compare(cfg: RunConfig, out: Path) -> int:
    from . import oracle

    spec = _need_spectrum(cfg)
    o, tol = cfg.oracle, cfg.tolerances

    if spec.is_zero():
        from . import groundstate
        decomp = oracle.normal_modes(
            oracle.discretize(spec, cfg.units, o.N, scheme=o.scheme))
        cov = groundstate.ground_state_moments(decomp, cfg.units)
        ref = groundstate.uncoupled_summary(cfg.units)
        rel_x = abs(cov.var_x / ref.var_x - 1.0)
        rel_p = abs(cov.var_p / ref.var_p - 1.0)
        verdict = "pass" if rel_x <= tol.rel_var and rel_p <= tol.rel_var else "fail"
        doc = {"uncoupled": True, "N": o.N, "scheme": o.scheme,
               "rel_var_x": rel_x, "rel_var_p": rel_p, "verdict": verdict,
               "gates": vars(tol)}
        _write_json(out / "comparison.json", doc)
        print(f"verdict: {verdict} (uncoupled; rel_var_x={rel_x:.3e}, "
              f"rel_var_p={rel_p:.3e})")
        return 0

    from . import fano
    sol = fano.solve(spec, cfg.units)
    rep = oracle.compare_with_continuum(
        sol, cfg.units, o.N, scheme=o.scheme, bins=o.bins,
        bath_omega_max=o.bath_omega_max)
    ok = (rep.rel_var_x <= tol.rel_var and rep.rel_var_p <= tol.rel_var
          and rep.histogram_l1 <= tol.histogram_l1)
    doc = rep.to_json_dict()
    doc["verdict"] = "pass" if ok else "fail"
    doc["gates"] = vars(tol)
    _write_json(out / "comparison.json", doc)
    rep.histogram_csv(out / "histogram.csv")
    print(f"verdict: {doc['verdict']} (rel_var_x={rep.rel_var_x:.3e}, "
          f"rel_var_p={rep.rel_var_p:.3e}, histogram_l1={rep.histogram_l1:.3e})")
    print(f"wrote {out / 'comparison.json'}, {out / 'histogram.csv'}")
    return 0


def cmd_weak(cfg: RunConfig, out: Path) -> int:
    from . import fano, weakcoupling

    spec = _need_spectrum(cfg)
    sol = fano.solve(spec, cfg.units)
    rep = weakcoupling.lorentzian_fit(sol)
    (out / "weak_report.json").write_text(rep.to_json() + "\n")
    rep.overlay_csv(out / "overlay.csv")
    w0 = cfg.units.omega0
    print(f"center  = {rep.center_fit:.17g} (predicted {w0 + rep.F0:.17g})")
    print(f"hwhm    = {rep.hwhm_fit:.17g} (predicted {rep.hwhm_pred:.17g})")
    print(f"L1 residual over fit window = {rep.residual_l1:.17g}")
    print(f"wrote {out / 'weak_report.json'}, {out / 'overlay.csv'}")
    return 0


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "groundstate": cmd_groundstate,
    "dynamics": cmd_dynamics,
    "compare": cmd_compare,
    "weak": cmd_weak,
}


# ---------------------------------------------------------------------------
# entry point

class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the exit-code contract says 1."""

    def error(self, message):
        self.exit(_fail(UsageError(message)))


@functools.cache
def _build_parser() -> _Parser:
    """Built once per process; parsing leaves the parser unchanged (the
    ``append`` action copies its default list before appending)."""
    parser = _Parser(
        prog="dosc",
        description="Exact diagonalisation of a damped oscillator: "
                    "frequency density, ground state, dynamics, oracle checks.")
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="COMMAND")
    for name, help_text in (
        ("spectrum", "solve for the frequency density; write pi.csv"),
        ("groundstate", "reduced ground-state observables"),
        ("dynamics", "evolution kernels, mean trajectory, damping class"),
        ("compare", "finite-bath oracle vs continuum, with verdict"),
        ("weak", "Lorentzian fit of the density against the weak limit"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", metavar="PATH",
                       help="JSON run configuration")
        p.add_argument("--out", metavar="DIR",
                       help="output directory (overrides config out_dir)")
        p.add_argument("--override", metavar="KEY=VALUE", action="append",
                       default=[],
                       help="override a config entry by dotted path; "
                            "value parsed as JSON, else taken as a string")
    return parser


def _fail(exc: Exception) -> int:
    """Report ``exc`` on stderr; return its class's exit code (1 if it has none)."""
    code = getattr(exc, "exit_code", 1)
    doc = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    detail = getattr(exc, "detail", None)
    if detail:
        doc["detail"] = detail
    print(json.dumps(doc, sort_keys=True, default=str), file=sys.stderr)
    return code


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _cap_threads()
        cfg = load_config(args.config, args.override)
        out_dir = args.out if args.out is not None else cfg.out_dir
        if out_dir is None:
            raise UsageError(
                "no output directory: set out_dir in the config or pass --out DIR")
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.cmd](cfg, out)
    except DoscError as exc:
        return _fail(exc)
    except MemoryError as exc:
        # numpy raises a subclass for an allocation it cannot make
        return _fail(MemoryError(str(exc)))


if __name__ == "__main__":
    sys.exit(main())
