"""Per-layer spans for the traced run, installed from outside the package.

``Tracer.install`` replaces the public functions of each ``dosc`` layer
with timing wrappers.  Where a layer calls another through a name it
imported (``fano`` -> ``quadrature.integrate``/``cauchy_pv``,
``compare_with_continuum`` -> ``normal_modes``), the wrapper goes on the
caller's module attribute, so only calls that cross a layer boundary are
recorded.  A name the package no longer has, or a result a counter
cannot read, raises: the traced run fails instead of reporting 0 for a
layer that was renamed or merged.

Spans stay in memory as (name, start, end, parent, op) and are written
out once the run ends.  A span's self time is its duration minus that of
its children.  Each operation is a root span named ``op``; its self time
is the operation time no layer span covers (``cli.other.s``), so the
self times of all spans add up to the traced wall time.
"""

from __future__ import annotations

import gzip
import os
import time
import types
from collections import defaultdict

# per-layer metrics, in the order they are reported: name -> unit
LAYER_METRICS = {
    "quadrature.calls": "count",
    "quadrature.evals": "count",
    "quadrature.s": "s",
    "fano.build_grid.s": "s",
    "fano.compute_pi.s": "s",
    "fano.compute_pi.nodes": "count",
    "fano.compute_pi.rounds": "count",
    "fano.evals_per_node": "evals/node",
    "fano.refine_for_times.s": "s",
    "fano.refine_for_times.nodes_added": "count",
    "dynamics.kernels.s": "s",
    "dynamics.kernels.points": "count",
    "dynamics.classify_damping.s": "s",
    "spectra.require_admissible.s": "s",
    "groundstate.s": "s",
    "weakcoupling.lorentzian_fit.s": "s",
    "oracle.discretize.s": "s",
    "oracle.normal_modes.s": "s",
    "oracle.normal_modes.bytes": "B",
    "oracle.compare_with_continuum.s": "s",
    "oracle.evolve_reduced.s": "s",
    "oracle.evolve_reduced.matvecs": "count",
    "cli.load_config.s": "s",
    "cli.write.s": "s",
    "cli.write.bytes": "B",
    "cli.other.s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


# counters read from a wrapped call: (counts, args, kwargs, result) on
# success, (counts, args, kwargs, exception) on failure

def _quad_counters(*keys):
    """Sum IntegrationResult.evaluations under each key, also from the
    partial result a QuadratureError carries."""
    from dosc.errors import QuadratureError

    def ok(c, a, k, r):
        for key in keys:
            c[key] += r.evaluations

    def err(c, a, k, e):
        if isinstance(e, QuadratureError):
            for key in keys:
                c[key] += e.partial.evaluations
    return ok, err


def _compute_pi_ok(c, a, k, r):
    c["fano.compute_pi.nodes"] += r.meta["nodes"]
    c["fano.compute_pi.rounds"] += r.meta["rounds"]


def _compute_pi_err(c, a, k, e):
    # the refinement budget ran out, and the error says where it stopped.
    # A refused model (PositivityError) or a failed integral
    # (QuadratureError, a subclass) stops before any round
    from dosc.errors import ConvergenceError
    if type(e) is ConvergenceError:
        c["fano.compute_pi.nodes"] += e.detail["nodes"]
        c["fano.compute_pi.rounds"] += e.detail["rounds"]


def _refine_ok(c, a, k, r):
    c["fano.refine_for_times.nodes_added"] += r.omegas.size - a[0].omegas.size


def _kernels_ok(c, a, k, r):
    from dosc.oracle import NormalModeDecomposition
    src = r.source
    nodes = src.Omegas.size if isinstance(src, NormalModeDecomposition) else src.omegas.size
    c["dynamics.kernels.points"] += r.times.size * nodes


def _normal_modes_ok(c, a, k, r):
    n = r.eigenvectors.shape[0]
    c["oracle.normal_modes.bytes"] += 2 * n * n * 8   # K and its eigenvectors


def _evolve_ok(c, a, k, r):
    c["oracle.evolve_reduced.matvecs"] += 3 * r.times.size


def _file_written(path_index):
    """Bytes of the file a writer wrote at its path argument."""
    def ok(c, a, k, r):
        c["cli.write.bytes"] += os.path.getsize(a[path_index])
    return ok


def _text_returned(c, a, k, r):
    """Bytes of the JSON text a to_json() returned."""
    c["cli.write.bytes"] += len(r.encode())


class CounterError(BaseException):
    """A counter could not read a wrapped call's arguments or result: the
    package changed under the tracer.  Not an ``Exception``, so that no
    operation's error handling turns it into one more failed operation;
    it ends the traced run."""


class Tracer:
    def __init__(self):
        self.spans: list = []     # (name, start, end, parent index, op id)
        self.counts: defaultdict = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list = []
        self.op = ""

    # -- spans ---------------------------------------------------------

    def _open(self, name: str) -> tuple[int, float]:
        idx = len(self.spans)
        self.spans.append(None)
        self._stack.append(idx)
        return idx, time.perf_counter()

    def _close(self, idx: int, name: str, start: float) -> None:
        end = time.perf_counter()
        self._stack.pop()
        parent = self._stack[-1] if self._stack else -1
        self.spans[idx] = (name, start, end, parent, self.op)

    def run_op(self, op_id: str, fn):
        """Run one operation as a root span; returns its duration."""
        self.op = op_id
        idx, start = self._open("op")
        try:
            fn()
        finally:
            self._close(idx, "op", start)
        return self.spans[idx][2] - start

    def wrap(self, fn, name: str, on_ok=None, on_err=None):
        tracer = self

        def count(counter, args, kwargs, outcome):
            try:
                counter(tracer.counts, args, kwargs, outcome)
            except Exception as exc:
                raise CounterError(f"{name}: {exc!r}") from exc

        def wrapper(*args, **kwargs):
            idx, start = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._close(idx, name, start)
                if on_err is not None:
                    count(on_err, args, kwargs, exc)
                raise
            tracer._close(idx, name, start)
            if on_ok is not None:
                count(on_ok, args, kwargs, result)
            return result

        return wrapper

    # -- installation --------------------------------------------------

    def _patch(self, owner, attr: str, name: str, on_ok=None, on_err=None) -> None:
        fn = getattr(owner, attr)
        self._restore.append((owner, attr, fn))
        setattr(owner, attr, self.wrap(fn, name, on_ok, on_err))

    def install(self) -> None:
        from dosc import (cli, dynamics, fano, groundstate, oracle, quadrature,
                          spectra, weakcoupling)

        quad = ("quadrature", *_quad_counters("quadrature.evals"))
        fano_quad = ("quadrature", *_quad_counters("quadrature.evals", "fano.evals"))
        self._patch(fano, "integrate", *fano_quad)
        self._patch(fano, "cauchy_pv", *fano_quad)
        self._patch(spectra, "integrate", *quad)
        # weakcoupling reaches quadrature as a module attribute: give it a
        # copy of the namespace with the entry points wrapped
        proxy = types.SimpleNamespace(**vars(quadrature))
        self._restore.append((weakcoupling, "quadrature", quadrature))
        weakcoupling.quadrature = proxy
        self._patch(proxy, "integrate", *quad)
        self._patch(proxy, "cauchy_pv", *quad)

        for owner in (fano, oracle, weakcoupling):
            self._patch(owner, "require_admissible", "spectra.require_admissible")
        self._patch(fano, "build_grid", "fano.build_grid")
        self._patch(fano, "compute_pi", "fano.compute_pi", _compute_pi_ok, _compute_pi_err)
        self._patch(fano, "refine_for_times", "fano.refine_for_times", _refine_ok)
        self._patch(dynamics, "kernels", "dynamics.kernels", _kernels_ok)
        self._patch(dynamics, "classify_damping", "dynamics.classify_damping")
        for attr in ("ground_state_moments", "interpretation_identities",
                     "uncoupled_summary"):
            self._patch(groundstate, attr, "groundstate")
        self._patch(weakcoupling, "lorentzian_fit", "weakcoupling.lorentzian_fit")
        self._patch(oracle, "discretize", "oracle.discretize")
        self._patch(oracle, "normal_modes", "oracle.normal_modes", _normal_modes_ok)
        self._patch(oracle, "compare_with_continuum", "oracle.compare_with_continuum")
        self._patch(oracle, "evolve_reduced", "oracle.evolve_reduced", _evolve_ok)
        self._patch(cli, "load_config", "cli.load_config")
        self._patch(cli, "_write_json", "cli.write", _file_written(0))
        for owner, attr in ((fano.SpectralSolution, "to_csv"),
                            (dynamics.DynamicsKernels, "to_csv"),
                            (dynamics.MeanTrajectory, "to_csv"),
                            (weakcoupling.WeakCouplingReport, "overlay_csv"),
                            (oracle.ComparisonReport, "histogram_csv")):
            self._patch(owner, attr, "cli.write", _file_written(1))
        for owner in (groundstate.GroundStateSummary, weakcoupling.WeakCouplingReport):
            self._patch(owner, "to_json", "cli.write", _text_returned)

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()

    # -- results -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start) - child[i]
        return out

    def metrics(self, untraced_wall_s: float) -> dict[str, float]:
        selfs = self.self_times()
        wall = sum(end - start for name, start, end, parent, _ in self.spans
                   if parent < 0)
        c = self.counts
        values = {
            "quadrature.calls": sum(1 for s in self.spans if s[0] == "quadrature"),
            "quadrature.evals": c["quadrature.evals"],
            "quadrature.s": selfs["quadrature"],
            "cli.other.s": selfs["op"],
            "trace.wall_s": wall,
            "trace.untraced_wall_s": untraced_wall_s,
            "trace.overhead_s": wall - untraced_wall_s,
        }
        nodes = c["fano.compute_pi.nodes"] + c["fano.refine_for_times.nodes_added"]
        # quadrature evaluations spent by fano per grid node it evaluated
        values["fano.evals_per_node"] = c["fano.evals"] / nodes if nodes else 0.0
        for name in LAYER_METRICS:
            if name in values:
                continue
            if name.endswith(".s"):
                values[name] = selfs[name[:-2]]
            else:
                values[name] = c[name]
        return {name: float(values[name]) for name in LAYER_METRICS}

    def write(self, path) -> None:
        with gzip.open(path, "wt") as fh:
            fh.write("name,start_s,end_s,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")
