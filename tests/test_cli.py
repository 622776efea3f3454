"""End-to-end checks of the batch front door: configs, files, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import simpson

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
        rc, _, _ = run(capsys, "spectrum",
                       "--config", str(CONFIGS / "flat_band.json"),
                       "--out", str(tmp_path))
        assert rc == 0
        data = np.loadtxt(tmp_path / "pi.csv", delimiter=",", skiprows=1)
        w, pi = data[:, 0], data[:, 4]
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert float(simpson(pi, x=w)) - 1.0 == summary["norm_defect"]
        assert float(simpson((w ** 2) * pi, x=w)) - 1.0 == summary["sum_rule_defect"]
        assert float(simpson(w * pi, x=w)) == summary["mean_frequency"]
        assert float(simpson((w ** -1) * pi, x=w)) == summary["mean_inverse_frequency"]

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

    def test_uncoupled_textbook_values(self, capsys, tmp_path):
        rc, out, _ = run(capsys, "groundstate",
                         "--config", str(CONFIGS / "uncoupled.json"),
                         "--out", str(tmp_path))
        assert rc == 0
        doc = json.loads((tmp_path / "groundstate.json").read_text())
        assert doc["var_x"] == 0.5 and doc["var_p"] == 0.5
        assert doc["n_bar_c"] == 0.0 and doc["omega_c"] == 1.0
        assert "closed forms" in (tmp_path / "report.txt").read_text()

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
        env = dict(os.environ, DOSC_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "dosc", "groundstate",
             "--config", str(CONFIGS / "uncoupled.json"),
             "--out", str(tmp_path)],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "groundstate.json").exists()
