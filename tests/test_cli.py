"""End-to-end checks of the batch front door: configs, files, exit codes."""

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dosc.cli import main

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

TM_VAR_X = 0.25 * (1.5 ** -0.5 + 0.5 ** -0.5)
TM_VAR_P = 0.25 * (1.5 ** 0.5 + 0.5 ** 0.5)


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def write_config(tmp_path, doc, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def stderr_doc(err: str) -> dict:
    return json.loads(err.strip().splitlines()[-1])


class TestArgumentHandling:
    def test_no_command_exits_one_with_json(self, capsys):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 1
        doc = stderr_doc(capsys.readouterr().err)
        assert doc["exit_code"] == 1 and doc["error"] == "UsageError"

    @pytest.mark.parametrize("command,override", [("compare", "oracle.N=1e18"),
                                                   ("dynamics", "time.n_times=1e18")])
    def test_allocation_failure_exits_one_with_json(self, capsys, tmp_path,
                                                    command, override):
        # numpy refuses an array of 1e18 elements before allocating it
        rc, _, err = run(capsys, command, "--config", str(CONFIGS / "flat_band.json"),
                         "--override", override, "--out", str(tmp_path))
        assert rc == 1
        doc = stderr_doc(err)
        assert doc["error"] == "MemoryError" and doc["exit_code"] == 1
        assert "allocate" in doc["message"]

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert "spectrum" in capsys.readouterr().out

    def test_missing_config_flag(self, capsys):
        rc, _, err = run(capsys, "spectrum")
        assert rc == 1
        assert "--config" in stderr_doc(err)["message"]

    def test_config_file_not_found(self, capsys):
        rc, _, err = run(capsys, "spectrum", "--config", "/nope/missing.json")
        assert rc == 1
        assert "missing.json" in stderr_doc(err)["message"]

    def test_json_syntax_diagnostics(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"units": }')
        rc, _, err = run(capsys, "spectrum", "--config", str(path))
        assert rc == 1
        msg = stderr_doc(err)["message"]
        assert "line" in msg and "column" in msg

    def test_override_must_be_key_value(self, capsys):
        rc, _, err = run(capsys, "spectrum",
                         "--config", str(CONFIGS / "flat_band.json"),
                         "--override", "oracle.N")
        assert rc == 1
        assert "key=value" in stderr_doc(err)["message"]

    def test_shared_parser_keeps_calls_apart(self, capsys, tmp_path):
        # one parser per process: no call's --override may reach the next
        from dosc import cli

        assert cli._build_parser() is cli._build_parser()
        for i, omega0 in enumerate((2.0, None, 3.0, None)):
            extra = [] if omega0 is None else ["--override", f"units.omega0={omega0}"]
            rc, _, _ = run(capsys, "groundstate",
                           "--config", str(CONFIGS / "uncoupled.json"),
                           *extra, "--out", str(tmp_path / str(i)))
            assert rc == 0
            doc = json.loads((tmp_path / str(i) / "groundstate.json").read_text())
            assert doc["omega_c"] == (omega0 or 1.0)
        assert cli._build_parser().parse_args(["groundstate"]).override == []


class TestConfigValidation:
    def base(self):
        return {
            "units": {"omega0": 1.0, "mass": 1.0, "hbar": 1.0},
            "spectrum": {"family": "flat_band", "level": 0.2,
                         "lower": 0.1, "upper": 2.0},
        }

    def test_unknown_top_level_key(self, capsys, tmp_path):
        doc = self.base()
        doc["spectrun"] = {}
        rc, _, err = run(capsys, "spectrum", "--config",
                         write_config(tmp_path, doc), "--out", str(tmp_path))
        assert rc == 1
        assert "spectrun" in stderr_doc(err)["message"]

    def test_unknown_nested_key_names_block(self, capsys, tmp_path):
        doc = self.base()
        doc["spectrum"]["cutof"] = 5.0
        rc, _, err = run(capsys, "spectrum", "--config",
                         write_config(tmp_path, doc), "--out", str(tmp_path))
        assert rc == 1
        msg = stderr_doc(err)["message"]
        assert "cutof" in msg and "spectrum" in msg

    def test_unknown_family(self, capsys, tmp_path):
        doc = self.base()
        doc["spectrum"] = {"family": "lorentz_bath"}
        rc, _, err = run(capsys, "spectrum", "--config",
                         write_config(tmp_path, doc), "--out", str(tmp_path))
        assert rc == 1
        assert "lorentz_bath" in stderr_doc(err)["message"]

    def test_spectrum_and_model_conflict(self, capsys, tmp_path):
        doc = self.base()
        doc["model"] = {"bath_freqs": [1.0], "couplings": [0.5]}
        rc, _, err = run(capsys, "groundstate", "--config",
                         write_config(tmp_path, doc), "--out", str(tmp_path))
        assert rc == 1
        assert "not both" in stderr_doc(err)["message"]

    def test_missing_out_dir(self, capsys, tmp_path):
        rc, _, err = run(capsys, "spectrum", "--config",
                         write_config(tmp_path, self.base()))
        assert rc == 1
        assert "output directory" in stderr_doc(err)["message"]

    def test_bad_spectrum_value_is_usage_error(self, capsys, tmp_path):
        doc = self.base()
        doc["spectrum"]["level"] = -0.2
        rc, _, err = run(capsys, "spectrum", "--config",
                         write_config(tmp_path, doc), "--out", str(tmp_path))
        assert rc == 1
        assert "spectrum" in stderr_doc(err)["message"]


    @pytest.mark.parametrize("item", [
        'time.t_max="abc"', "time.t_max=NaN", 'time.t_min="abc"',
        'time.x0="abc"', "time.x0=null", "time.p0=Infinity",
        'time.scan_window="abc"', "time.scan_window=0", "time.scan_window=-1",
        "time.resolution=-1",
        'time.resolution="abc"', "time.alias_mass_tol=-1",
        "tolerances.rel_var=-0.1", 'tolerances.rel_var="abc"',
        "tolerances.histogram_l1=NaN", 'oracle.bath_omega_max="abc"',
        "oracle.bath_omega_max=-Infinity", "oracle.bath_omega_max=0",
        "oracle.bath_omega_max=-3", "fit.jitter_seed=-1",
        "grid.max_nodes=1e400", "grid.max_nodes=0", "grid.max_rounds=-3",
        "grid.max_rounds=2.5", "grid.norm_tol=NaN",
        "grid.norm_tol=0", "grid.sum_tol=-1e-6", "grid.sum_tol=Infinity",
        "oracle.N=2.5", "oracle.N=true", "oracle.bins=0", "time.n_times=1",
        "time.n_times=Infinity", "fit.jitter_seed=1.5", "time.spacing=true",
        'oracle.scheme="gauss"', "units.omega0=true", "units.mass=0",
        "spectrum.level=true", "spectrum.lower=NaN", "spectrum.omega_max=1.0",
    ])
    def test_numeric_fields_refused(self, capsys, tmp_path, item):
        # each once gave a traceback or an accepted nonsense run
        # (units.omega0=true ran with omega0 = True, spectrum.level=true
        # with level 1)
        command = {"tolerances": "compare", "oracle": "compare", "fit": "weak",
                   "grid": "spectrum", "units": "groundstate",
                   "spectrum": "groundstate"}.get(item.split(".")[0], "dynamics")
        rc, _, err = run(capsys, command, "--config", str(CONFIGS / "flat_band.json"),
                         "--override", item, "--out", str(tmp_path))
        assert rc == 1
        doc = stderr_doc(err)
        assert doc["error"] == "UsageError"
        assert item.split("=")[0] in doc["message"]
        assert not any(tmp_path.iterdir())

    def test_model_refusal_keeps_family_label(self, capsys, tmp_path):
        # a refusal that is not about one field names the family instead
        rc, _, err = run(capsys, "groundstate", "--config", str(CONFIGS / "flat_band.json"),
                         "--override", "spectrum.lower=3", "--out", str(tmp_path))
        assert rc == 1
        assert stderr_doc(err)["message"].startswith(
            "spectrum (flat_band): need lower < upper")


    @pytest.mark.parametrize("bad", ["null", '"0.5"', "true", '"a"'])
    @pytest.mark.parametrize("field,config", [
        ("model.bath_freqs", "two_mode"), ("model.couplings", "two_mode"),
        ("spectrum.omegas", "uncoupled"), ("spectrum.values", "uncoupled"),
    ])
    def test_list_entries_must_be_numbers(self, capsys, tmp_path, field, config, bad):
        # a traceback or a string silently taken as a number before
        doc = json.loads((CONFIGS / f"{config}.json").read_text())
        block, key = field.split(".")
        entries = [*doc[block][key][:-1], "BAD"]
        item = f"{field}={json.dumps(entries)}".replace('"BAD"', bad)
        rc, _, err = run(capsys, "groundstate",
                         "--config", str(CONFIGS / f"{config}.json"),
                         "--override", item, "--out", str(tmp_path))
        assert rc == 1
        doc = stderr_doc(err)
        assert doc["error"] == "UsageError"
        assert field in doc["message"]
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("item,value", [
        ("oracle.N=1e3", 1000), ("time.n_times=401.0", 401),
        ("fit.jitter_seed=3.0", 3), ("grid.max_nodes=3e4", 30000),
    ])
    def test_integral_numbers_pass_as_int(self, item, value):
        from dosc.cli import load_config

        cfg = load_config(str(CONFIGS / "flat_band.json"), [item])
        block, key = item.split("=")[0].split(".")
        got = cfg.grid[key] if block == "grid" else getattr(getattr(cfg, block), key)
        assert type(got) is int and got == value

    def test_integral_float_writes_same_bytes(self, capsys, tmp_path):
        for sub, n in (("int", "1000"), ("float", "1e3")):
            rc, _, err = run(capsys, "compare",
                             "--config", str(CONFIGS / "flat_band.json"),
                             "--override", f"oracle.N={n}",
                             "--out", str(tmp_path / sub))
            assert rc == 0, err
        for name in ("comparison.json", "histogram.csv"):
            assert ((tmp_path / "int" / name).read_bytes()
                    == (tmp_path / "float" / name).read_bytes())

    def test_defaults_match_readme(self, tmp_path):
        import dataclasses
        import inspect

        from dosc import dynamics, fano
        from dosc.cli import load_config

        cfg = load_config(write_config(tmp_path, self.base()), [])
        assert vars(cfg.time) == {
            "t_max": None, "n_times": 600, "spacing": "linear", "t_min": None,
            "x0": 1.0, "p0": 0.0, "alias_mass_tol": 1e-6, "scan_window": None,
            "resolution": 1e-3}
        assert vars(cfg.oracle) == {"N": 800, "scheme": "uniform", "bins": 160,
                                    "bath_omega_max": None}
        assert vars(cfg.tolerances) == {"rel_var": 0.005, "histogram_l1": 0.02}
        assert vars(cfg.fit) == {"jitter_seed": None}
        assert cfg.model is None and cfg.out_dir is None
        # grid fields the config leaves out take fano's defaults
        assert cfg.grid == {}
        solve_defaults = {name: p.default for name, p in
                          inspect.signature(fano.compute_pi).parameters.items()
                          if p.default is not p.empty}
        assert solve_defaults == {"max_nodes": 30000, "max_rounds": 24,
                                  "norm_tol": 1e-6, "sum_tol": 1e-6}
        assert cfg.time.alias_mass_tol == fano.ALIAS_MASS_TOL
        damping = inspect.signature(dynamics.classify_damping).parameters
        assert cfg.time.resolution == damping["resolution"].default
        budget = {f.name: f.default for f in dataclasses.fields(fano.SpectralSolution)}
        assert cfg.time.alias_mass_tol == budget["alias_mass_tol"]


class TestSpectrumCommand:
    def test_run_and_summary(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "spectrum",
                         "--config", str(CONFIGS / "flat_band.json"),
                         "--out", str(tmp_path))
        assert rc == 0
        assert "norm defect" in out
        header = (tmp_path / "pi.csv").read_text().splitlines()[0]
        assert header == "omega,Y,alpha_sq,beta_ratio,pi"
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert abs(summary["norm_defect"]) <= 1e-6
        assert abs(summary["sum_rule_defect"]) <= 1e-6

    def test_outputs_rederive_bit_identically(self, capsys, tmp_path):
        # every number is a moment of the solution's measure, the Simpson
        # weights of the nodes times pi, rebuilt here from pi.csv
        from dosc import fano

        rc, _, _ = run(capsys, "spectrum",
                       "--config", str(CONFIGS / "flat_band.json"),
                       "--out", str(tmp_path))
        assert rc == 0
        data = np.loadtxt(tmp_path / "pi.csv", delimiter=",", skiprows=1)
        w, pi = data[:, 0], data[:, 4]
        weights = fano.simpson_weights(w) * pi
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert weights @ w ** 0 - 1.0 == summary["norm_defect"]
        assert weights @ w ** 2 - 1.0 == summary["sum_rule_defect"]
        assert weights @ w ** 1 == summary["mean_frequency"]
        assert weights @ w ** -1 == summary["mean_inverse_frequency"]

    @pytest.mark.parametrize("config", ["flat_band", "near_critical",
                                        "ohmic_reference", "weak_line"])
    def test_summary_moments_are_the_groundstate_moments(self, capsys, tmp_path,
                                                         config):
        # the certified numbers and the observables built on them come
        # from one measure: with hbar = m = 1, var_x = <<1/omega>>/2 and
        # var_p = <<omega>>/2 exactly
        path = str(CONFIGS / f"{config}.json")
        assert json.loads(Path(path).read_text())["units"] == {
            "omega0": 1.0, "mass": 1.0, "hbar": 1.0}
        for cmd in ("spectrum", "groundstate"):
            rc, _, err = run(capsys, cmd, "--config", path, "--out", str(tmp_path))
            assert rc == 0, err
        summary = json.loads((tmp_path / "summary.json").read_text())
        doc = json.loads((tmp_path / "groundstate.json").read_text())
        assert summary["mean_inverse_frequency"] == 2 * doc["var_x"]
        assert summary["mean_frequency"] == 2 * doc["var_p"]

    def test_deterministic_reruns(self, capsys, tmp_path):
        for sub in ("a", "b"):
            rc, _, _ = run(capsys, "spectrum",
                           "--config", str(CONFIGS / "flat_band.json"),
                           "--out", str(tmp_path / sub))
            assert rc == 0
        for name in ("pi.csv", "summary.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_uncoupled_exits_three_with_guidance(self, capsys, tmp_path):
        rc, _, err = run(capsys, "spectrum",
                         "--config", str(CONFIGS / "uncoupled.json"),
                         "--out", str(tmp_path))
        assert rc == 3
        doc = stderr_doc(err)
        assert doc["error"] == "ConvergenceError"
        assert "guidance" in doc.get("detail", {})

    def test_bound_state_exits_three_with_guidance(self, capsys, tmp_path):
        # a band above omega0 holds no dressed oscillator mode: its mass
        # is a point outside the support, not a tail cut off by omega_max
        cfg = write_config(tmp_path, {
            "spectrum": {"family": "flat_band", "level": 0.3,
                         "lower": 2.0, "upper": 3.0}})
        rc, _, err = run(capsys, "spectrum", "--config", cfg,
                         "--out", str(tmp_path / "out"))
        assert rc == 3
        doc = stderr_doc(err)
        assert doc["error"] == "ConvergenceError"
        assert "bound state" in doc["detail"]["guidance"]

    def test_positivity_rejection_exits_two(self, capsys, tmp_path):
        rc, _, err = run(capsys, "spectrum",
                         "--config", str(CONFIGS / "ohmic_reference.json"),
                         "--override", "spectrum.amplitude=0.44944410108488464",
                         "--out", str(tmp_path))
        assert rc == 2
        doc = stderr_doc(err)
        assert doc["error"] == "PositivityError"
        assert doc["detail"]["margin"] < 0


class TestGroundstateCommand:
    def test_two_mode_model_matches_closed_forms(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "groundstate",
                         "--config", str(CONFIGS / "two_mode.json"),
                         "--out", str(tmp_path))
        assert rc == 0
        doc = json.loads((tmp_path / "groundstate.json").read_text())
        assert doc["var_x"] == pytest.approx(TM_VAR_X, abs=1e-12)
        assert doc["var_p"] == pytest.approx(TM_VAR_P, abs=1e-12)
        assert doc["mutual_info"] == pytest.approx(2 * doc["entropy"], abs=1e-15)
        assert "mutual info" in out

    def test_unstable_model_exits_two(self, capsys, tmp_path):
        # sum V_k^2/omega_k = 1.0201 > omega0: K is not positive definite
        doc = json.loads((CONFIGS / "two_mode.json").read_text())
        doc["model"] = {"bath_freqs": [1.0], "couplings": [1.01]}
        rc, _, err = run(capsys, "groundstate", "--config", write_config(tmp_path, doc),
                         "--out", str(tmp_path / "out"))
        assert rc == 2
        err_doc = stderr_doc(err)
        assert err_doc["error"] == "PositivityError"
        assert err_doc["detail"]["discrete_margin"] == pytest.approx(1.0 - 1.01**2, abs=1e-15)

    def test_uncoupled_textbook_values(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "groundstate",
                         "--config", str(CONFIGS / "uncoupled.json"),
                         "--out", str(tmp_path))
        assert rc == 0
        doc = json.loads((tmp_path / "groundstate.json").read_text())
        assert doc["var_x"] == 0.5 and doc["var_p"] == 0.5
        assert doc["n_bar_c"] == 0.0 and doc["omega_c"] == 1.0
        assert "closed forms" in (tmp_path / "report.txt").read_text()

    def test_sum_rule_gated_by_the_solve(self, capsys, tmp_path):
        # a solve certified at the configured sum_tol is not refused
        # again by a fixed tolerance of its own
        doc = {"spectrum": {"family": "flat_band", "level": 0.3366640024438383,
                            "lower": 0.35876554587960435, "upper": 2.7718563786207255},
               "grid": {"sum_tol": 1e-4, "norm_tol": 1e-4}}
        config = write_config(tmp_path, doc)
        for cmd in ("spectrum", "groundstate"):
            rc, _, err = run(capsys, cmd, "--config", config, "--out", str(tmp_path / cmd))
            assert rc == 0, err
        summary = json.loads((tmp_path / "spectrum" / "summary.json").read_text())
        assert summary["sum_rule_defect"] == pytest.approx(-3.637e-6, rel=1e-3)
        report = (tmp_path / "groundstate" / "report.txt").read_text()
        assert "sum rule           = 3.637e-06" in report
        assert "ok                 = True" in report

    def test_continuum_run_reports_identities(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "groundstate",
                       "--config", str(CONFIGS / "flat_band.json"),
                       "--out", str(tmp_path))
        assert rc == 0
        report = (tmp_path / "report.txt").read_text()
        assert "algebraic identity defects" in report
        assert "ok                 = True" in report


class TestDynamicsCommand:
    def test_outputs_and_zero_time_row(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "dynamics",
                         "--config", str(CONFIGS / "flat_band.json"),
                         "--out", str(tmp_path))
        assert rc == 0
        lines = (tmp_path / "kernels.csv").read_text().splitlines()
        assert lines[0] == "t,k_cos,k_sin_over,k_sin_times"
        t0, kc, ks, kt = lines[1].split(",")
        assert t0 == "0" and ks == "0" and kt == "0"
        assert abs(float(kc) - 1.0) <= 1e-6
        assert len((tmp_path / "trajectory.csv").read_text().splitlines()) == 402
        damping = json.loads((tmp_path / "damping.json").read_text())
        assert damping["damping_class"] == "underdamped"
        assert 2.5 < damping["first_stationary_time"] < 3.7
        assert "underdamped" in out

    @pytest.mark.parametrize("config", ["flat_band", "near_critical", "ohmic_reference"])
    def test_fourier_route_matches_direct_sums(self, config, capsys, tmp_path, monkeypatch):
        # as shipped (kernels and damping scan by the Fourier route), then
        # with every kernel sum taken directly; the kernels spread their
        # three strength rows, the scan only k_sin_times' one
        from dosc import dynamics

        fourier, calls = dynamics._fourier_sums, []
        monkeypatch.setattr(dynamics, "_fourier_sums",
                            lambda *a: calls.append(len(a[1])) or fourier(*a))
        outs = [tmp_path / "shipped", tmp_path / "direct"]
        for out in outs:
            rc, _, _ = run(capsys, "dynamics", "--config", str(CONFIGS / f"{config}.json"),
                           "--out", str(out))
            assert rc == 0
            monkeypatch.setattr(dynamics, "_evaluate", dynamics._direct_sums)
        assert calls == [3, 1]
        assert ((outs[0] / "damping.json").read_bytes()
                == (outs[1] / "damping.json").read_bytes())
        for name in ("kernels.csv", "trajectory.csv"):
            shipped, direct = (np.loadtxt(out / name, delimiter=",", skiprows=1)
                               for out in outs)
            assert np.array_equal(shipped[:, 0], direct[:, 0])
            assert np.max(np.abs(shipped - direct)) <= 1e-12

    def test_scan_window_past_t_max(self, capsys, tmp_path):
        # the kernels refine the grid for t_max = 30, and the damping scan
        # refines it further for its own window of 60
        rc, _, err = run(capsys, "dynamics",
                         "--config", str(CONFIGS / "ohmic_reference.json"),
                         "--override", "time.scan_window=60", "--out", str(tmp_path))
        assert rc == 0, err
        damping = json.loads((tmp_path / "damping.json").read_text())
        assert damping["scan_window"] == 60

    def test_requires_t_max(self, capsys, tmp_path):
        rc, _, err = run(capsys, "dynamics",
                         "--config", str(CONFIGS / "weak_line.json"),
                         "--out", str(tmp_path))
        assert rc == 1
        assert "t_max" in stderr_doc(err)["message"]


class TestCompareCommand:
    def test_verdict_pass_under_configured_gates(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "compare",
                         "--config", str(CONFIGS / "flat_band.json"),
                         "--out", str(tmp_path))
        assert rc == 0
        doc = json.loads((tmp_path / "comparison.json").read_text())
        assert doc["verdict"] == "pass"
        assert doc["gates"] == {"rel_var": 0.005, "histogram_l1": 0.05}
        assert doc["rel_var_x"] <= 0.005 and doc["histogram_l1"] <= 0.05
        header = (tmp_path / "histogram.csv").read_text().splitlines()[0]
        assert header == "bin_lo,bin_hi,density_discrete,density_continuum"
        assert "verdict: pass" in out

    def test_coarse_run_fails_gates_without_crashing(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "compare",
                         "--config", str(CONFIGS / "flat_band.json"),
                         "--override", "oracle.N=50",
                         "--out", str(tmp_path))
        assert rc == 0
        doc = json.loads((tmp_path / "comparison.json").read_text())
        assert doc["verdict"] == "fail"
        assert doc["histogram_l1"] > 0.05

    def test_uncoupled_comparison_exact(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "compare",
                       "--config", str(CONFIGS / "uncoupled.json"),
                       "--out", str(tmp_path))
        assert rc == 0
        doc = json.loads((tmp_path / "comparison.json").read_text())
        assert doc["uncoupled"] is True
        assert doc["rel_var_x"] == 0.0 and doc["rel_var_p"] == 0.0
        assert doc["verdict"] == "pass"


class TestWeakCommand:
    def test_report_and_overlay(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "weak",
                         "--config", str(CONFIGS / "weak_line.json"),
                         "--out", str(tmp_path))
        assert rc == 0
        doc = json.loads((tmp_path / "weak_report.json").read_text())
        assert doc["hwhm_fit"] == pytest.approx(doc["hwhm_pred"], rel=0.05)
        assert doc["fwhm_pred"] == 2 * doc["hwhm_pred"]
        header = (tmp_path / "overlay.csv").read_text().splitlines()[0]
        assert header == "omega,pi_exact,pi_lorentz"
        assert "hwhm" in out

    def test_jitter_seed_reproducible(self, capsys, tmp_path):
        for sub in ("a", "b"):
            rc, _, _ = run(capsys, "weak",
                           "--config", str(CONFIGS / "weak_line.json"),
                           "--override", "fit.jitter_seed=7",
                           "--out", str(tmp_path / sub))
            assert rc == 0
        assert ((tmp_path / "a" / "weak_report.json").read_bytes()
                == (tmp_path / "b" / "weak_report.json").read_bytes())


class TestTablesMatchSavetxt:
    @pytest.mark.parametrize("config", sorted(p.stem for p in CONFIGS.glob("*.json")))
    def test_every_table_is_savetxt_bytes(self, config, capsys, tmp_path, monkeypatch):
        # each table a command writes, against np.savetxt of the same columns
        from dosc import csvio, dynamics, fano, oracle, weakcoupling

        written = {}

        def write_csv(path, header, columns):
            csvio.write_csv(path, header, columns)
            ref = io.BytesIO()
            np.savetxt(ref, np.column_stack(columns), fmt="%.17g", delimiter=",",
                       header=header, comments="")
            written[Path(path)] = ref.getvalue()

        for module in (fano, dynamics, oracle, weakcoupling):
            monkeypatch.setattr(module, "write_csv", write_csv)
        for command in ("spectrum", "dynamics", "compare", "weak"):
            run(capsys, command, "--config", str(CONFIGS / f"{config}.json"),
                "--out", str(tmp_path / command))
        assert set(tmp_path.glob("*/*.csv")) == set(written)
        for path, ref in written.items():
            assert path.read_bytes() == ref, path


class TestNoQuadpackOnRunPaths:
    # a weak Gaussian peak: every integral a command needs, the Gaussian
    # stability integral included, is closed-form
    GAUSS_WEAK = {
        "units": {"omega0": 1.0, "mass": 1.0, "hbar": 1.0},
        "spectrum": {"family": "gaussian_peak", "amplitude": 0.141,
                     "center": 1.0, "width": 0.1},
        "time": {"t_max": 20.0, "n_times": 201},
        "oracle": {"N": 800, "bins": 80},
    }

    @pytest.mark.parametrize("command", ["spectrum", "groundstate", "dynamics",
                                         "compare", "weak"])
    def test_command_runs_with_quadpack_blocked(self, command, capsys, tmp_path,
                                                monkeypatch):
        import scipy.integrate

        def blocked(*args, **kwargs):
            raise AssertionError("QUADPACK called on a run path")

        # dosc.quadrature imports quad at each call, so this reaches it
        monkeypatch.setattr(scipy.integrate, "quad", blocked)
        path = write_config(tmp_path, self.GAUSS_WEAK)
        extra = ["--override", "oracle.N=400"] if command == "compare" else []
        rc, _, err = run(capsys, command, "--config", path, *extra,
                         "--out", str(tmp_path / "out"))
        assert rc == 0, err


class TestImportPath:
    def test_commands_load_neither_optimize_nor_integrate(self, tmp_path):
        # a fresh interpreter, so no other test's imports count; a module
        # loaded here is paid by every command's start-up.  No command
        # loads any of scipy: the special functions are numpy ports and
        # the oracle solves its secular equation in numpy.  A gaussian_peak and a
        # nonzero tabulated model run every family's port.
        script = (
            "import json, sys\n"
            "from dosc.cli import main\n"
            "for cmd, config in json.loads(sys.argv[1]):\n"
            "    rc = main([cmd, '--config', config, '--out', sys.argv[2] + '/' + cmd])\n"
            "    assert rc == 0, (cmd, config, rc)\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))\n"
        )
        spectra = {
            "gaussian_peak": {"family": "gaussian_peak", "amplitude": 0.1,
                              "center": 1.5, "width": 0.1},
            "tabulated": {"family": "tabulated", "omegas": [0.0, 1.0, 2.0, 3.0],
                          "values": [0.0, 0.2, 0.1, 0.0]},
        }
        for name, spectrum in spectra.items():
            (tmp_path / f"{name}.json").write_text(json.dumps({"spectrum": spectrum}))
        runs = [["spectrum", CONFIGS / "weak_line.json"],
                ["spectrum", tmp_path / "gaussian_peak.json"],
                ["groundstate", tmp_path / "tabulated.json"],
                ["groundstate", CONFIGS / "flat_band.json"],
                ["dynamics", CONFIGS / "flat_band.json"],
                ["compare", CONFIGS / "flat_band.json"],
                ["weak", CONFIGS / "weak_line.json"]]
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, DOSC_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps([[c, str(f)] for c, f in runs]),
             str(tmp_path / "out")],
            capture_output=True, text=True, env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == []
        assert all((tmp_path / "out" / cmd).is_dir() for cmd, _ in runs)


    def test_cli_import_loads_no_numpy(self):
        # DOSC_THREADS must reach the environment before numpy first loads
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ,
                   PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys, dosc.cli; print('numpy' in sys.modules)"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"


class TestEnvironment:
    def test_dosc_threads_must_be_positive_int(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("DOSC_THREADS", "many")
        rc, _, err = run(capsys, "groundstate",
                         "--config", str(CONFIGS / "uncoupled.json"),
                         "--out", str(tmp_path))
        assert rc == 1
        assert "DOSC_THREADS" in stderr_doc(err)["message"]

    def test_dosc_threads_caps_blas_pools(self, capsys, tmp_path, monkeypatch):
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("DOSC_THREADS", "2")
        rc, _, _ = run(capsys, "groundstate",
                       "--config", str(CONFIGS / "uncoupled.json"),
                       "--out", str(tmp_path))
        assert rc == 0
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_module_entry_point(self, tmp_path):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, DOSC_THREADS="1",
                   PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.run(
            [sys.executable, "-m", "dosc", "groundstate",
             "--config", str(CONFIGS / "uncoupled.json"),
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "groundstate.json").exists()
