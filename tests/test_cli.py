"""CLI wiring: exit codes, CSV schemas, determinism, fault injection."""

import json
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dnlslab
from dnlslab import DataSpec, SimConfig, TorusGrid, build, cli, harness, simulate
from dnlslab.cli import main
from dnlslab.config import load_config
from dnlslab.dynamics import BlowupGuardError, NonFiniteError, Trajectory
from dnlslab.harness import EXIT_CODES, EXIT_CONFIG, first_failure
from dnlslab.runio import _row_template, fmt_value, write_csv

from conftest import write_reference_csv
from test_gn import reference_rows

TWO_PI = 2 * math.pi


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def base_doc(out_dir, **overrides):
    doc = {
        "grid": {"L": TWO_PI, "N": 64},
        "sim": {"dt": 1e-3, "T": 0.05, "record_stride": 10},
        # mode 2 keeps every conserved value away from zero, so the relative
        # drift columns are all meaningful
        "data": {"kind": "plane_wave", "amplitude": 1.0, "mode": 2},
        "outputs": {"dir": out_dir, "formats": ["csv", "json"]},
    }
    doc.update(overrides)
    return doc


def all_formats_doc(out_dir):
    """A tiny config of every command, with every output format requested."""
    doc = base_doc(out_dir)
    doc["outputs"]["formats"] = ["csv", "json", "frames", "plot"]
    doc["data"] = {"kind": "multimode", "modes": [1, 2, -1],
                   "amplitudes": [1.0, 0.4, 0.3], "seed": 5,
                   "target_mass": 4.0}
    doc["gn_audit"] = {"num_fields": 2, "L_values": [1.0],
                       "delta_values": [0.5, 2.0], "N": 32}
    doc["threshold_scan"] = {"mass_fractions": [0.5, 0.9],
                             "pairs": [{"L": TWO_PI, "delta": 1.0}]}
    return doc


# builds the zero field at L = 2 pi, N = 32: every sample underflows to 0
NARROW_BUMP = {"kind": "bump", "width": 1e-4, "center": 0.1}


def reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def no_stepping(*args, **kwargs):
    raise AssertionError("a member was stepped")


def forbid_stepping(monkeypatch):
    """Make every command fail if it steps: simulate and the scan both step
    through simulate_batch."""
    monkeypatch.setattr("dnlslab.dynamics.simulate_batch", no_stepping)
    monkeypatch.setattr("dnlslab.harness.simulate_batch", no_stepping)


def stop_flow(monkeypatch, equation, frames=None, reason="blowup-guard"):
    """Make each run of equation that harness steps stop for reason, a guard
    hit or a non-finite sample, after its first frames frames (all of them by
    default): the run steps in full, and its trajectory is cut to them."""
    run = harness.simulate

    def stopped(u0, sim):
        traj = run(u0, sim)
        if sim.equation != equation:
            return traj
        partial = Trajectory(traj.grid, traj.times[:frames], traj.values[:frames])
        t = float(traj.times[-1])
        if reason == "blowup-guard":
            raise BlowupGuardError("stopped by the test", t, math.inf, partial)
        raise NonFiniteError("stopped by the test", t, partial)

    monkeypatch.setattr(harness, "simulate", stopped)


class TestSimulateCommand:
    def test_plane_wave_run(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        cfg = write_config(tmp_path, base_doc(out))
        assert main(["simulate", "--config", cfg]) == 0
        lines = (tmp_path / "out" / "conserved.csv").read_text().splitlines()
        assert lines[0] == "t,M,H,E,P,mu,Ecal"
        assert len(lines) == 1 + 6  # frames at 0, .01, ..., .05
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["exit_reason"] == "ok"
        assert max(summary["max_drifts"].values()) < 1e-8
        assert "content_hash" in summary and len(summary["content_hash"]) == 64

    def test_byte_identical_reruns(self, tmp_path):
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        cfg1 = write_config(tmp_path, base_doc(out1), "c1.json")
        cfg2 = write_config(tmp_path, base_doc(out2), "c2.json")
        assert main(["simulate", "--config", cfg1, "--quiet"]) == 0
        assert main(["simulate", "--config", cfg2, "--quiet"]) == 0
        a = (tmp_path / "a" / "conserved.csv").read_bytes()
        b = (tmp_path / "b" / "conserved.csv").read_bytes()
        assert a == b

    def test_config_error_exit_code(self, tmp_path, capsys):
        doc = base_doc(str(tmp_path / "out"))
        doc["sim"]["dt"] = 10.0  # dt > T
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg]) == 1
        assert "config error" in capsys.readouterr().err

    def test_zero_data_with_target_mass_is_a_config_error(self, tmp_path, capsys):
        doc = base_doc(str(tmp_path / "out"))
        doc["data"] = {"kind": "plane_wave", "amplitude": 0.0, "target_mass": 1.0}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "config error: data: cannot rescale the zero field")
        assert not (tmp_path / "out").exists()

    def test_narrow_bump_with_target_mass_is_a_config_error(self, tmp_path, capsys,
                                                            monkeypatch):
        monkeypatch.setattr("dnlslab.harness.simulate_batch", no_stepping)
        doc = base_doc(str(tmp_path / "out"), grid={"L": TWO_PI, "N": 32})
        doc["data"] = {**NARROW_BUMP, "target_mass": 1.0}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(
            "config error: data: cannot rescale the zero field")
        assert not (tmp_path / "out").exists()

    def test_unknown_key_exit_code(self, tmp_path, capsys):
        doc = base_doc(str(tmp_path / "out"))
        doc["simulation"] = {}
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg]) == 1

    def test_blowup_guard_exit_code(self, tmp_path):
        out = str(tmp_path / "out")
        doc = base_doc(out)
        doc["data"] = {"kind": "multimode", "modes": [1, 2], "amplitudes": [1.0, 0.5],
                       "seed": 1}
        doc["sim"]["guard_factor"] = 1e-6
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--quiet"]) == 2
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["exit_reason"] == "blowup-guard"
        assert summary["guard_time"] > 0

    def test_nonfinite_exit_code(self, tmp_path):
        out = str(tmp_path / "out")
        doc = base_doc(out)
        doc["data"] = {"kind": "multimode", "modes": [20, -3],
                       "amplitudes": [30.0, 10.0], "seed": 1}
        doc["sim"] = {"dt": 0.5, "T": 5.0, "guard_factor": 1e30}
        cfg = write_config(tmp_path, doc)
        with pytest.warns(Warning):
            assert main(["simulate", "--config", cfg, "--quiet"]) == 3

    @pytest.mark.parametrize("equation, amplitude", [("dnls1", 1e20), ("dnls2", 1e30)])
    def test_overflow_in_a_step_prints_no_numpy_warning(self, tmp_path, equation,
                                                        amplitude):
        # the first step overflows: exit 3 at its time, reported by the run,
        # not by numpy (only the CFL heuristic warns)
        doc = base_doc(str(tmp_path / "out"), sim={"dt": 1e-3, "T": 0.01,
                                                   "equation": equation})
        doc["data"]["amplitude"] = amplitude
        cfg = write_config(tmp_path, doc)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", cfg, "--quiet"]) == 3
        assert [w.category.__name__ for w in caught] == ["CflWarning"]
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["exit_reason"] == "non-finite"
        assert summary["guard_time"] == 1e-3

    def test_frames_and_plot_formats(self, tmp_path):
        out = str(tmp_path / "out")
        doc = base_doc(out)
        doc["outputs"]["formats"] = ["csv", "json", "frames", "plot"]
        cfg = write_config(tmp_path, doc)
        assert main(["simulate", "--config", cfg, "--quiet"]) == 0
        grid = TorusGrid(TWO_PI, 64)
        traj = simulate(build(DataSpec(**doc["data"]), grid), SimConfig(**doc["sim"]))
        data = np.load(tmp_path / "out" / "frames.npz")
        assert data["values"].shape == (6, 64)
        for key, want in (("t", traj.times), ("values", traj.values),
                          ("L", np.float64(TWO_PI)), ("N", np.int64(64))):
            assert data[key].dtype == want.dtype
            assert data[key].tobytes() == want.tobytes(), key
        assert (tmp_path / "out" / "plot_drift.py").exists()

    def test_out_override(self, tmp_path):
        cfg = write_config(tmp_path, base_doc(str(tmp_path / "ignored")))
        override = str(tmp_path / "actual")
        assert main(["simulate", "--config", cfg, "--out", override, "--quiet"]) == 0
        assert os.path.exists(os.path.join(override, "conserved.csv"))


class TestGaugeCheckCommand:
    def test_plane_wave_consistent(self, tmp_path):
        out = str(tmp_path / "out")
        doc = base_doc(out, gauge_check={"beta": 0.75, "tolerance": 1e-8})
        cfg = write_config(tmp_path, doc)
        assert main(["gauge-check", "--config", cfg, "--quiet"]) == 0
        lines = (tmp_path / "out" / "gauge_check.csv").read_text().splitlines()
        assert lines[0] == "t,discrepancy,residual"
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["max_discrepancy"] < 1e-8

    def test_beta_zero_discrepancy_identically_zero(self, tmp_path):
        out = str(tmp_path / "out")
        doc = base_doc(out, gauge_check={"beta": 0.0, "tolerance": 1e-300})
        cfg = write_config(tmp_path, doc)
        assert main(["gauge-check", "--config", cfg, "--quiet"]) == 0
        summary = json.loads((tmp_path / "out" / "summary.json").read_text())
        assert summary["max_discrepancy"] == 0.0

    def test_tolerance_failure_exit_code(self, tmp_path):
        out = str(tmp_path / "out")
        doc = base_doc(out)
        doc["data"] = {"kind": "multimode", "modes": [1, -1],
                       "amplitudes": [0.7, 0.4], "seed": 2}
        doc["gauge_check"] = {"beta": 0.75, "tolerance": 1e-300}
        cfg = write_config(tmp_path, doc)
        assert main(["gauge-check", "--config", cfg, "--quiet"]) == 5

    def test_stride_not_dividing_step_count(self, tmp_path):
        shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                               "gauge_check.json")
        with open(shipped) as fh:
            doc = json.load(fh)
        doc["sim"].update(T=0.0105, record_stride=10)  # 105 steps
        doc["outputs"]["dir"] = str(tmp_path / "out")
        cfg = write_config(tmp_path, doc)
        assert main(["gauge-check", "--config", cfg, "--quiet"]) == 0
        lines = (tmp_path / "out" / "gauge_check.csv").read_text().splitlines()
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 12  # t = 0, 0.001, ..., 0.01, 0.0105
        residuals = [r[2] for r in rows]
        assert residuals[0] == residuals[-2] == residuals[-1] == ""
        assert all(residuals[1:-2])

    def test_guard_stop_writes_strict_json(self, tmp_path, capsys):
        # both flows stop at the guard near t = 0.115: the 12 frames recorded
        # before the stop are compared, and the residual is empty at the last
        shipped = os.path.join(os.path.dirname(__file__), os.pardir, "configs",
                               "gauge_check.json")
        with open(shipped) as fh:
            doc = json.load(fh)
        doc["sim"].update(T=0.2, guard_factor=1.05)
        doc["outputs"]["dir"] = str(tmp_path / "out")
        cfg = write_config(tmp_path, doc)
        assert main(["gauge-check", "--config", cfg]) == 2
        text = (tmp_path / "out" / "summary.json").read_text()
        summary = json.loads(text, parse_constant=reject_constant)
        assert summary["exit_reason"] == "blowup-guard"
        lines = (tmp_path / "out" / "gauge_check.csv").read_text().splitlines()
        rows = [[float(x) if x else None for x in line.split(",")] for line in lines[1:]]
        assert [t for t, _, _ in rows] == pytest.approx([0.01 * i for i in range(12)])
        assert rows[0][2] is None and rows[-1][2] is None
        assert all(r is not None for _, _, r in rows[1:-1])
        discrepancies = [d for _, d, _ in rows]
        assert 0 < summary["max_discrepancy"] == max(discrepancies) < 1e-12
        assert summary["max_residual"] == max(r for _, _, r in rows[1:-1])
        shown = f"max discrepancy {summary['max_discrepancy']:.3e} (tolerance 1e-06)"
        assert capsys.readouterr().out == f"gauge-check: blowup-guard, {shown}\n"

    @pytest.mark.parametrize("stops, reason", [("dnls1", "blowup-guard"),
                                               ("dnls2", "blowup-guard"),
                                               ("dnls2", "non-finite")])
    def test_one_flow_stopped_compares_the_common_prefix(self, tmp_path, monkeypatch,
                                                         stops, reason):
        doc = base_doc(str(tmp_path / "full"),
                       data={"kind": "multimode", "modes": [1, -1],
                             "amplitudes": [0.7, 0.4], "seed": 2})
        full_cfg = write_config(tmp_path, doc, "full.json")
        assert main(["gauge-check", "--config", full_cfg, "--quiet"]) == 0
        stop_flow(monkeypatch, stops, 4, reason)
        cfg = write_config(tmp_path, {**doc, "outputs": {"dir": str(tmp_path / "out")}})
        assert main(["gauge-check", "--config", cfg, "--quiet"]) == EXIT_CODES[reason]
        full = (tmp_path / "full" / "gauge_check.csv").read_text().splitlines()
        lines = (tmp_path / "out" / "gauge_check.csv").read_text().splitlines()
        assert len(full) == 1 + 6 and len(lines) == 1 + 4
        # the same frames, compared as in the full run; the residual needs the
        # next frame, so the last one recorded has none
        assert lines[:-1] == full[:-3]
        assert lines[-1] == full[-3].rsplit(",", 1)[0] + ","
        summary = json.loads((tmp_path / "out" / "summary.json").read_text(),
                             parse_constant=reject_constant)
        assert summary["exit_reason"] == reason
        assert summary["max_discrepancy"] == max(
            float(line.split(",")[1]) for line in lines[1:])


class TestGnAuditCommand:
    def test_small_audit_passes(self, tmp_path):
        out = str(tmp_path / "out")
        doc = {
            "outputs": {"dir": out},
            "gn_audit": {"num_fields": 10, "L_values": [1.0, TWO_PI],
                         "delta_values": [0.5, 2.0], "N": 64, "seed": 3},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["gn-audit", "--config", cfg, "--quiet"]) == 0
        lines = (tmp_path / "out" / "gn_audit.csv").read_text().splitlines()
        assert lines[0] == ("field_id,L,delta,lhs,rhs,slack,satisfied,"
                            "flap_l2grad,flap_l4,flap_l6")
        assert len(lines) == 1 + 11 * 2 * 2  # zero field included
        zero_rows = [l for l in lines[1:] if l.startswith("0,")]
        assert zero_rows and all(",true," in l for l in zero_rows)

    def test_corrupted_constant_exit_code(self, tmp_path):
        out = str(tmp_path / "out")
        doc = {
            "outputs": {"dir": out},
            "gn_audit": {"num_fields": 5, "L_values": [1.0],
                         "delta_values": [0.5], "N": 64, "seed": 3,
                         "corrupt_constant": 0.5},
        }
        cfg = write_config(tmp_path, doc)
        assert main(["gn-audit", "--config", cfg, "--quiet"]) == 4


class TestGnAuditUnderflow:
    """A (L, delta) whose delta*sqrt(L), the product the audit divides by,
    underflows to 0 is a config error: exit 1 with one line, before the
    corpus is built, and no output directory."""

    def test_rejected_with_one_line(self, tmp_path, capsys, monkeypatch):
        def no_corpus(block):
            raise AssertionError("the audit corpus was built")

        monkeypatch.setattr("dnlslab.harness.audit_coefficients", no_corpus)
        out = tmp_path / "out"
        doc = base_doc(str(out), gn_audit={"num_fields": 2, "L_values": [1.0, 1e-300],
                                           "delta_values": [1.0, 1e-200], "N": 32})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["gn-audit", "--config", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: gn_audit: delta * sqrt(L) underflows to 0 "
                       "at L = 1e-300, delta = 1e-200"]
        assert not out.exists()


class TestThresholdScanCommand:
    def _doc(self, out, jobs_safe=True):
        return {
            "grid": {"L": TWO_PI, "N": 64},
            "sim": {"dt": 1e-3, "T": 0.05},
            "data": {"kind": "multimode", "modes": [1, 2, -1],
                     "amplitudes": [1.0, 0.4, 0.3], "seed": 5},
            "outputs": {"dir": out},
            "threshold_scan": {"mass_fractions": [0.5, 0.9],
                               "pairs": [{"L": TWO_PI, "delta": 1.0}]},
        }

    def test_scan_passes_and_reports(self, tmp_path):
        out = str(tmp_path / "out")
        cfg = write_config(tmp_path, self._doc(out))
        assert main(["threshold-scan", "--config", cfg, "--quiet"]) == 0
        lines = (tmp_path / "out" / "scan_summary.csv").read_text().splitlines()
        assert lines[0].startswith("L,delta,mass_fraction,mass,threshold")
        assert len(lines) == 3
        diag = [p for p in os.listdir(out) if p.startswith("diagnostics_")]
        assert len(diag) == 2

    def test_zero_data_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dnlslab.harness.simulate_batch", no_stepping)
        out = tmp_path / "out"
        doc = self._doc(str(out))
        doc["grid"]["N"] = 32
        doc["data"] = {"kind": "plane_wave", "amplitude": 0.0}
        cfg = write_config(tmp_path, doc)
        assert main(["threshold-scan", "--config", cfg, "--jobs", "2"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: data:")
        assert not out.exists()

    def test_narrow_bump_is_a_config_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("dnlslab.harness.simulate_batch", no_stepping)
        out = tmp_path / "out"
        doc = self._doc(str(out))
        doc["grid"]["N"] = 32
        doc["data"] = NARROW_BUMP
        cfg = write_config(tmp_path, doc)
        assert main(["threshold-scan", "--config", cfg, "--jobs", "2"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("config error: data:")
        assert "threshold_scan.pairs[0]" in err[0]
        assert not out.exists()

    def test_parallel_rows_identical_to_serial(self, tmp_path):
        out1, out2 = str(tmp_path / "s"), str(tmp_path / "p")
        cfg1 = write_config(tmp_path, self._doc(out1), "s.json")
        cfg2 = write_config(tmp_path, self._doc(out2), "p.json")
        assert main(["threshold-scan", "--config", cfg1, "--quiet"]) == 0
        assert main(["threshold-scan", "--config", cfg2, "--quiet", "--jobs", "2"]) == 0
        a = (tmp_path / "s" / "scan_summary.csv").read_bytes()
        b = (tmp_path / "p" / "scan_summary.csv").read_bytes()
        assert a == b


class TestDiagnoseCommand:
    def test_diagnose_writes_schema(self, tmp_path):
        out = str(tmp_path / "out")
        doc = base_doc(out)
        doc["data"] = {"kind": "multimode", "modes": [1, 2, -1],
                       "amplitudes": [1.0, 0.4, 0.3], "seed": 5,
                       "target_mass": 4.0}
        cfg = write_config(tmp_path, doc)
        assert main(["diagnose", "--config", cfg, "--quiet"]) == 0
        lines = (tmp_path / "out" / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == ("t,l4,l6,h1dot,f,gamma,eta,lower_bound_f,"
                            "holder_upper,alpha,case_tag")
        assert len(lines) >= 3
        assert (tmp_path / "out" / "conserved.csv").exists()


ZERO_DATA = "config error: data: cannot rescale the zero field"


class TestDataCheckedWhereBuilt:
    """A data spec is checked by the command that builds it, on the grids that
    command uses, before anything is stepped or written."""

    @pytest.mark.parametrize("command, overrides, message", [
        pytest.param(
            "threshold-scan",
            {"threshold_scan": {"pairs": [{"L": 1.0, "delta": 0.1, "dt": 2.0}]}},
            "config error: threshold_scan.pairs[0].dt: must be in (0, sim.T]",
            id="scan-pair-dt-above-T"),
        pytest.param(
            "diagnose", {"grid": {"N": 64}, "data": {"kind": "plane_wave", "mode": 40}},
            "config error: data: mode 40 outside the dealiasing band",
            id="diagnose-mode-outside-band"),
        pytest.param(
            "threshold-scan",
            {"data": {"kind": "plane_wave", "mode": 30},
             "threshold_scan": {"pairs": [{"L": 1.0, "delta": 0.1, "N": 64}]}},
            "config error: data: mode 30 outside the dealiasing band",
            id="scan-mode-outside-pair-band"),
        pytest.param(
            "simulate",
            {"data": {"kind": "plane_wave", "amplitude": 0.0, "target_mass": 1.0}},
            ZERO_DATA, id="simulate-zero-plane-wave"),
        pytest.param(
            "gauge-check",
            {"data": {"kind": "bump", "amplitude": 0.0, "target_mass": 1.0}},
            ZERO_DATA, id="gauge-check-zero-bump"),
        pytest.param(
            "diagnose",
            {"data": {"kind": "multimode", "modes": [1, 2], "amplitudes": [0.0, 0.0],
                      "target_mass": 1.0}},
            ZERO_DATA, id="diagnose-zero-multimode"),
        pytest.param(
            "simulate", {"data": {"kind": "bump", "width": 1e-300}},
            "config error: data: bump width 1e-300 is too narrow",
            id="simulate-bump-scale-overflow"),
        pytest.param(
            "simulate", {"data": {"kind": "bump", "width": 1e-300, "target_mass": 1.0}},
            "config error: data: bump width 1e-300 is too narrow",
            id="simulate-bump-scale-overflow-target-mass"),
        pytest.param(
            "threshold-scan", {"data": {"kind": "bump", "width": 1e-300}},
            "config error: data: bump width 1e-300 is too narrow",
            id="scan-bump-scale-overflow"),
        *[pytest.param(
            command, {"data": {"kind": "plane_wave", "amplitude": 1e200}},
            "config error: data: the mass of the built field overflows",
            id=f"{command}-mass-overflow")
          for command in ("simulate", "gauge-check", "diagnose", "threshold-scan")],
        # delta/L overflows, so the threshold and every target mass are 0
        pytest.param(
            "threshold-scan",
            {"threshold_scan": {"pairs": [{"L": 1e-10, "delta": 1e300}]}},
            "config error: data: target_mass must be positive, got 0.0",
            id="scan-threshold-underflow"),
        # diagnostics file names format L, delta and the fraction with :g,
        # so these members would overwrite each other's file
        pytest.param(
            "threshold-scan",
            {"threshold_scan": {"mass_fractions": [0.5, 0.5000001],
                                "pairs": [{"L": 1.0, "delta": 0.1, "N": 32},
                                          {"L": 1.0000001, "delta": 0.1},
                                          {"L": 1.0, "delta": 0.1, "N": 64}]}},
            "config error: threshold_scan.pairs[0] at mass fraction 0.5 and "
            "threshold_scan.pairs[0] at mass fraction 0.5000001 both write "
            "diagnostics_L1_d0.1_f0.5.csv",
            id="scan-fractions-share-a-file-name"),
        pytest.param(
            "threshold-scan",
            {"threshold_scan": {"mass_fractions": [0.5],
                                "pairs": [{"L": 1.0, "delta": 0.1, "N": 32},
                                          {"L": 1.0000001, "delta": 0.1}]}},
            "config error: threshold_scan.pairs[0] at mass fraction 0.5 and "
            "threshold_scan.pairs[1] at mass fraction 0.5 both write "
            "diagnostics_L1_d0.1_f0.5.csv",
            id="scan-pairs-share-a-file-name"),
        pytest.param(
            "threshold-scan",
            {"threshold_scan": {"mass_fractions": [0.5, 0.5],
                                "pairs": [{"L": 1.0, "delta": 0.1}]}},
            "config error: threshold_scan.pairs[0] at mass fraction 0.5 and "
            "threshold_scan.pairs[0] at mass fraction 0.5 both write "
            "diagnostics_L1_d0.1_f0.5.csv",
            id="scan-repeated-fraction"),
    ])
    def test_rejected_before_stepping(self, tmp_path, capsys, monkeypatch, command,
                                      overrides, message):
        forbid_stepping(monkeypatch)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(str(out), **overrides))
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        if command == "threshold-scan":
            assert "threshold_scan.pairs[0]" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("command, overrides", [
        # the default scan pairs' dt and N are not read by simulate
        pytest.param("simulate", {"sim": {"dt": 1e-5, "T": 1e-4}},
                     id="simulate-T-below-default-pair-dt"),
        pytest.param("simulate", {"grid": {"N": 256}, "sim": {"dt": 1e-3, "T": 0.005},
                                  "data": {"kind": "plane_wave", "mode": 50}},
                     id="simulate-mode-outside-default-pair-band"),
        # gn-audit builds no data
        pytest.param("gn-audit", {"data": {"kind": "plane_wave", "mode": 40},
                                  "gn_audit": {"num_fields": 2, "L_values": [1.0],
                                               "delta_values": [0.5], "N": 32}},
                     id="gn-audit-data-outside-band"),
    ])
    def test_blocks_a_command_does_not_read_are_not_checked(self, tmp_path, command,
                                                            overrides):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(str(out), **overrides))
        assert main([command, "--config", cfg, "--quiet"]) == 0
        assert (out / "summary.json").exists()


class TestOutputDirectory:
    """An output directory that cannot be created is a config error found
    before the command runs, not a traceback after it."""

    @pytest.mark.parametrize("command", ["simulate", "threshold-scan"])
    def test_empty_dir_in_config(self, tmp_path, capsys, monkeypatch, command):
        forbid_stepping(monkeypatch)
        cfg = write_config(tmp_path, base_doc(""))
        assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: outputs: dir must not be empty"]

    def test_empty_out_is_not_ignored(self, tmp_path, capsys, monkeypatch):
        forbid_stepping(monkeypatch)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(str(out)))
        assert main(["simulate", "--config", cfg, "--out", ""]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == ["config error: --out: dir must not be empty"]
        assert not out.exists()

    @pytest.mark.parametrize("via_out", [True, False])
    @pytest.mark.parametrize("below", ["", "sub"])
    def test_dir_at_a_file(self, tmp_path, capsys, monkeypatch, via_out, below):
        forbid_stepping(monkeypatch)
        blocker = tmp_path / "blocker"
        blocker.write_text("keep")
        target = str(blocker / below) if below else str(blocker)
        cfg_dir, extra = ((str(tmp_path / "out"), ["--out", target]) if via_out
                          else (target, []))
        cfg = write_config(tmp_path, base_doc(cfg_dir))
        assert main(["gauge-check", "--config", cfg, *extra]) == 1
        err = capsys.readouterr().err.splitlines()
        assert err == [f"config error: output directory {target!r} cannot be "
                       f"created: {str(blocker)!r} is not a directory"]
        assert blocker.read_text() == "keep"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("via_out", [True, False])
    def test_name_too_long(self, tmp_path, capsys, monkeypatch, via_out):
        # refused by os.makedirs with nothing in the way; the missing parent
        # made while finding that out is removed again
        forbid_stepping(monkeypatch)
        target = str(tmp_path / "out" / ("x" * 300))
        cfg_dir, extra = ((str(tmp_path / "out"), ["--out", target]) if via_out
                          else (target, []))
        cfg = write_config(tmp_path, base_doc(cfg_dir))
        assert main(["simulate", "--config", cfg, *extra]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"config error: output directory {target!r} "
                                 "cannot be created: ")
        assert os.listdir(tmp_path) == ["config.json"]


class TestNothingToRun:
    """A list that would leave a command nothing to audit or scan is a config
    error, not a run that exits 0 having done nothing."""

    @pytest.mark.parametrize("command, block, key", [
        ("gn-audit", "gn_audit", "L_values"),
        ("gn-audit", "gn_audit", "delta_values"),
        ("threshold-scan", "threshold_scan", "mass_fractions"),
        ("threshold-scan", "threshold_scan", "pairs"),
    ])
    def test_empty_list_exits_1(self, tmp_path, capsys, monkeypatch, command,
                                block, key):
        forbid_stepping(monkeypatch)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(str(out), **{block: {key: []}}))
        assert main([command, "--config", cfg]) == 1
        assert capsys.readouterr().err == (
            f"config error: {block}: {key} must not be empty\n")
        assert not out.exists()


class TestGridRule:
    """A period whose largest wavenumber (2 pi/L)*(N/2) overflows breaks the
    one grid rule wherever a grid is named: exit 1 with one config error
    line, no numpy warning, nothing stepped or written."""

    @pytest.mark.parametrize("command, overrides, message", [
        pytest.param("simulate", {"grid": {"L": 5e-324, "N": 64}},
                     "config error: grid: period L = 5e-324 is too small",
                     id="simulate-grid-L"),
        *[pytest.param("gn-audit", {"gn_audit": {"num_fields": 2, "L_values": [L],
                                                 "delta_values": [1.0], "N": 32}},
                       f"config error: gn_audit: period L = {L} is too small",
                       id=f"gn-audit-L_values-{L}")
          for L in (5e-324, 2e-308)],
        # 2 pi/L is finite, so the pair parses; at the grid's N it is not
        pytest.param("threshold-scan",
                     {"threshold_scan": {"mass_fractions": [0.5],
                                         "pairs": [{"L": 1e-307, "delta": 1.0}]}},
                     "config error: threshold_scan.pairs[0]: period L = 1e-307 "
                     "is too small: the largest wavenumber (2*pi/L)*(N/2) at N = 64",
                     id="scan-pair-at-resolved-N"),
    ])
    def test_rejected_with_one_line(self, tmp_path, capsys, monkeypatch, command,
                                    overrides, message):
        forbid_stepping(monkeypatch)
        out = tmp_path / "out"
        cfg = write_config(tmp_path, base_doc(str(out), **overrides))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([command, "--config", cfg]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(message)
        assert not out.exists()


class TestLateNumericTrouble:
    """Periods so large or small that the numbers overflow or underflow after
    the data is built: the run ends with an exit code, strict JSON and no
    traceback."""

    @staticmethod
    def _run(tmp_path, command, L):
        out = tmp_path / "out"
        doc = base_doc(str(out), grid={"L": L, "N": 32}, sim={"dt": 1e-4, "T": 3e-4})
        cfg = write_config(tmp_path, doc)
        code = main([command, "--config", cfg])
        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=reject_constant)
        return code, summary, out

    def test_simulate_writes_non_finite_values_as_null(self, tmp_path):
        code, summary, _ = self._run(tmp_path, "simulate", 1e-300)
        assert code == 3 and summary["exit_reason"] == "non-finite"
        assert summary["max_drifts"]["E"] is None

    def test_gauge_check_writes_infinite_discrepancy_as_null(self, tmp_path, capsys):
        code, summary, _ = self._run(tmp_path, "gauge-check", 1e308)
        assert code == 5 and summary["exit_reason"] == "verification-failed"
        assert "max discrepancy inf" in capsys.readouterr().out
        assert summary["max_discrepancy"] is None

    @pytest.mark.parametrize("L", [1e308, 1e-300])
    def test_diagnose_bound_chain_trouble_exits_3(self, tmp_path, capsys, L):
        code, summary, out = self._run(tmp_path, "diagnose", L)
        assert code == 3 and summary["exit_reason"] == "non-finite"
        assert capsys.readouterr().out.startswith("diagnose: non-finite, ")
        assert len((out / "diagnostics.csv").read_text().splitlines()) == 1
        assert len((out / "conserved.csv").read_text().splitlines()) > 1

    def test_diagnose_whose_flap_scale_divides_by_zero_exits_3(self, tmp_path, capsys):
        # delta sqrt(L) underflows to 0, so gamma's 2/(delta sqrt(L)) raises
        # ZeroDivisionError: no frame is analysed, and numpy does not warn
        out = tmp_path / "out"
        doc = base_doc(str(out), grid={"L": 0.25, "N": 32},
                       sim={"dt": 1e-7, "T": 3e-7}, delta=5e-324)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["diagnose", "--config", write_config(tmp_path, doc)])
        assert code == 3
        assert capsys.readouterr().out.startswith("diagnose: non-finite, ")
        assert len((out / "diagnostics.csv").read_text().splitlines()) == 1
        assert len((out / "conserved.csv").read_text().splitlines()) == 3

    @pytest.mark.parametrize("L", [1e308, 1e-300])
    def test_gn_audit_with_overflowing_norms_exits_3(self, tmp_path, capsys, L):
        # at 1e308 lhs and rhs are both inf; at 1e-300 only rhs is: neither
        # row audits anything, so neither is a violation nor ok
        out = tmp_path / "out"
        doc = base_doc(str(out), gn_audit={"num_fields": 2, "L_values": [L],
                                           "delta_values": [1.0], "N": 32})
        code = main(["gn-audit", "--config", write_config(tmp_path, doc)])
        assert code == 3
        assert capsys.readouterr().out.startswith("gn-audit: non-finite, 3 rows, 0 violations")
        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=reject_constant)
        assert summary["exit_reason"] == "non-finite"
        assert (summary["rows"], summary["violations"]) == (3, 0)

    @pytest.mark.parametrize("L", [1e308, 1e-300])
    def test_gn_audit_overflow_prints_no_numpy_warning(self, tmp_path, L):
        # the overflow is reported by the exit code, not by numpy
        doc = base_doc(str(tmp_path / "out"), gn_audit={
            "num_fields": 1, "L_values": [L], "delta_values": [1.0], "N": 8})
        cfg = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["gn-audit", "--config", cfg, "--quiet"]) == 3

    # the data of configs/diagnose.json: at L = 1e-300 its amplitude is about
    # 2e150, so i k F overflows in the derivative of the analysed frames
    DIAGNOSE_DATA = {"kind": "multimode", "modes": [1, 2, 3, -1],
                     "amplitudes": [1.0, 0.5, 0.25, 0.3], "target_mass": 4.0, "seed": 4}

    @pytest.mark.parametrize("command", ["simulate", "diagnose"])
    def test_overflowing_derivative_exits_3_with_no_numpy_warning(
            self, tmp_path, capsys, command):
        out = tmp_path / "out"
        doc = base_doc(str(out), grid={"L": 1e-300, "N": 32},
                       sim={"dt": 1e-4, "T": 3e-4}, data=self.DIAGNOSE_DATA)
        cfg = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([command, "--config", cfg])
        assert code == 3
        assert capsys.readouterr().out.startswith(f"{command}: non-finite, ")
        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=reject_constant)
        assert summary["exit_reason"] == "non-finite"
        assert len((out / "conserved.csv").read_text().splitlines()) > 1
        if command == "diagnose":
            assert len((out / "diagnostics.csv").read_text().splitlines()) == 1

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_scan_member_with_overflowing_derivative_exits_3(self, tmp_path, capsys,
                                                             jobs):
        # delta sqrt(L) underflows to 0 as well; the second pair makes a
        # second batch, so that two jobs use the process pool
        out = tmp_path / "out"
        doc = base_doc(str(out), grid={"L": 1e-300, "N": 32},
                       sim={"dt": 1e-4, "T": 3e-4}, data=self.DIAGNOSE_DATA,
                       threshold_scan={"mass_fractions": [0.5], "pairs": [
                           {"L": 1e-300, "delta": 1e-301, "N": 32},
                           {"L": 2e-300, "delta": 1e-301, "N": 32}]})
        cfg = write_config(tmp_path, doc)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main(["threshold-scan", "--config", cfg, "--jobs", str(jobs)])
        assert code == 3
        assert capsys.readouterr().out.startswith("threshold-scan: non-finite, 2 runs")
        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=reject_constant)
        assert summary["exit_reason"] == "non-finite"
        rows = (out / "scan_summary.csv").read_text().splitlines()
        assert len(rows) == 3 and all(row.endswith(",non-finite") for row in rows[1:])
        diagnostics = sorted(out.glob("diagnostics_*.csv"))
        assert len(diagnostics) == 2
        assert all(len(p.read_text().splitlines()) == 1 for p in diagnostics)

    @pytest.mark.parametrize("L", [1e308, 1e200])
    def test_scan_member_with_underflowing_norms_exits_3(self, tmp_path, capsys, L):
        # rescaled to a mass near 4 pi, the member's max|u|^2 is so small
        # that the CFL rate and its L6 norm underflow to 0
        out = tmp_path / "out"
        doc = base_doc(str(out), grid={"L": L, "N": 32}, sim={"dt": 1e-4, "T": 3e-4},
                       threshold_scan={"mass_fractions": [0.5],
                                       "pairs": [{"L": L, "delta": 1.0}]})
        code = main(["threshold-scan", "--config", write_config(tmp_path, doc)])
        assert code == 3
        assert capsys.readouterr().out.startswith("threshold-scan: non-finite, ")
        summary = json.loads((out / "summary.json").read_text(),
                             parse_constant=reject_constant)
        assert summary["exit_reason"] == "non-finite"
        rows = (out / "scan_summary.csv").read_text().splitlines()
        assert len(rows) == 2 and rows[1].endswith(",non-finite")


MULTIMODE = {"kind": "multimode", "modes": [1, 2, -1], "amplitudes": [1.0, 0.4, 0.3],
             "seed": 5, "target_mass": 4.0}
GUARD_SIM = {"dt": 1e-3, "T": 0.05, "record_stride": 10, "guard_factor": 1e-6}
# the grid of TestLateNumericTrouble: at L = 1e-300 a step overflows, at
# 1e308 the bound-chain analysis does
TINY_L = {"grid": {"L": 1e-300, "N": 32}, "sim": {"dt": 1e-4, "T": 3e-4}}
HUGE_L = {"grid": {"L": 1e308, "N": 32}, "sim": {"dt": 1e-4, "T": 3e-4}}
SMALL_AUDIT = {"num_fields": 5, "L_values": [1.0], "delta_values": [0.5], "N": 64,
               "seed": 3}
ONE_MEMBER = {"mass_fractions": [0.5], "pairs": [{"L": TWO_PI, "delta": 1.0}]}


def flag_every_frame(monkeypatch):
    """No config reaches a bound-chain violation: a Hoelder bound with the
    tolerance -1, so zero, flags every frame below the threshold."""
    monkeypatch.setattr("dnlslab.diagnostics.HOLDER_TOL", -1.0)


def run_outcome(monkeypatch, tmp_path, command, doc):
    """main's exit code for command on doc, and the Outcome it wrote."""
    outcomes = []
    write = cli._write_outcome
    monkeypatch.setattr(cli, "_write_outcome", lambda command, cfg, quiet, outcome:
                        outcomes.append(outcome) or write(command, cfg, quiet, outcome))
    code = main([command, "--config", write_config(tmp_path, doc), "--quiet"])
    (outcome,) = outcomes
    summary = json.loads((tmp_path / "out" / "summary.json").read_text(),
                         parse_constant=reject_constant)
    assert summary["exit_reason"] == outcome.exit_reason
    return code, outcome


class TestExitTable:
    """One table gives every exit code from its exit reason, and a run's
    reason is its first that is not ok, in the order its driver lists them."""

    def test_table_is_the_one_in_the_docs(self):
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme) as fh:
            readme_rows = re.findall(r"^\| (\d) \| `([a-z-]+)` \|", fh.read(), re.M)
        docstring_rows = re.findall(r"\b(\d) ([a-z-]+)", cli.__doc__)
        docstring_rows.remove((str(EXIT_CONFIG), "config"))
        for rows in (docstring_rows, readme_rows):
            assert len(rows) == len(EXIT_CODES)
            assert {reason: int(code) for code, reason in rows} == EXIT_CODES
        assert EXIT_CONFIG == 1 and EXIT_CONFIG not in EXIT_CODES.values()

    def test_first_failure(self):
        assert first_failure() == first_failure("ok", "ok") == "ok"
        assert first_failure("ok", "non-finite", "gn-violations") == "non-finite"
        assert first_failure("blowup-guard", "non-finite",
                             "bound-chain-violation") == "blowup-guard"

    @pytest.mark.parametrize("command, overrides, flagged, reason", [
        ("simulate", {}, False, "ok"),
        ("simulate", {"data": MULTIMODE, "sim": GUARD_SIM}, False, "blowup-guard"),
        ("simulate", TINY_L, False, "non-finite"),
        ("gauge-check", {}, False, "ok"),
        ("gauge-check", {"data": MULTIMODE, "sim": GUARD_SIM}, False, "blowup-guard"),
        ("gauge-check", TINY_L, False, "non-finite"),
        ("gauge-check", {"data": MULTIMODE, "gauge_check": {"tolerance": 1e-300}},
         False, "verification-failed"),
        ("gn-audit", {"gn_audit": SMALL_AUDIT}, False, "ok"),
        ("gn-audit", {"gn_audit": {**SMALL_AUDIT, "corrupt_constant": 0.5}}, False,
         "gn-violations"),
        ("gn-audit", {"gn_audit": {**SMALL_AUDIT, "L_values": [1e308]}}, False,
         "non-finite"),
        ("threshold-scan", {"data": MULTIMODE, "threshold_scan": ONE_MEMBER}, False,
         "ok"),
        ("threshold-scan", {"data": MULTIMODE, "sim": GUARD_SIM,
                            "threshold_scan": ONE_MEMBER}, False, "blowup-guard"),
        ("threshold-scan", {**HUGE_L, "threshold_scan": {
            "mass_fractions": [0.5], "pairs": [{"L": 1e308, "delta": 1.0}]}}, False,
         "non-finite"),
        ("threshold-scan", {"data": MULTIMODE, "threshold_scan": ONE_MEMBER}, True,
         "bound-chain-violation"),
        ("diagnose", {"data": MULTIMODE}, False, "ok"),
        ("diagnose", {"data": MULTIMODE, "sim": GUARD_SIM}, False, "blowup-guard"),
        ("diagnose", TINY_L, False, "non-finite"),
        ("diagnose", {"data": MULTIMODE}, True, "bound-chain-violation"),
    ])
    def test_each_reason_of_each_command_exits_with_its_code(
            self, tmp_path, monkeypatch, command, overrides, flagged, reason):
        if flagged:
            flag_every_frame(monkeypatch)
        doc = base_doc(str(tmp_path / "out"), **overrides)
        code, outcome = run_outcome(monkeypatch, tmp_path, command, doc)
        assert outcome.exit_reason == reason
        assert code == outcome.exit_code == EXIT_CODES[reason]

    @pytest.mark.parametrize("overrides, flagged, stopped, reason, n_rows", [
        # a stop outranks an analysis that fails, and that writes no rows
        (HUGE_L, False, True, "blowup-guard", 0),
        # a stop outranks flagged frames
        ({"data": MULTIMODE}, True, True, "blowup-guard", 6),
        # an analysis that fails writes no rows, so it flags no frame
        (HUGE_L, True, False, "non-finite", 0),
    ])
    def test_diagnose_order(self, tmp_path, monkeypatch, overrides, flagged, stopped,
                            reason, n_rows):
        if flagged:
            flag_every_frame(monkeypatch)
        if stopped:
            stop_flow(monkeypatch, "dnls1")
        doc = base_doc(str(tmp_path / "out"), **overrides)
        code, outcome = run_outcome(monkeypatch, tmp_path, "diagnose", doc)
        assert (outcome.exit_reason, code) == (reason, EXIT_CODES[reason])
        assert len(outcome.tables["diagnostics.csv"][1]) == n_rows
        assert outcome.summary["violations"] == (n_rows if flagged else 0)

    def test_non_finite_audit_rows_outrank_violations(self, tmp_path, monkeypatch):
        doc = base_doc(str(tmp_path / "out"), gn_audit={
            **SMALL_AUDIT, "L_values": [1.0, 1e308], "corrupt_constant": 0.5})
        code, outcome = run_outcome(monkeypatch, tmp_path, "gn-audit", doc)
        assert (outcome.exit_reason, code) == ("non-finite", 3)
        assert outcome.summary["violations"] > 0

    def test_only_below_threshold_scan_members_gate(self, tmp_path, monkeypatch):
        # both members stop; only the one below the threshold gates, and
        # alone above the threshold a stopped member exits 0
        doc = base_doc(str(tmp_path / "out"), data=MULTIMODE, sim=GUARD_SIM,
                       threshold_scan={"mass_fractions": [1.5, 0.5], "pairs": [
                           {"L": TWO_PI, "delta": 1.0}]})
        code, outcome = run_outcome(monkeypatch, tmp_path, "threshold-scan", doc)
        rows = outcome.tables["scan_summary.csv"][1]
        assert [(row[2], row[5], row[-1]) for row in rows] == [
            (1.5, False, "blowup-guard"), (0.5, True, "blowup-guard")]
        assert (outcome.exit_reason, code) == ("blowup-guard", 2)
        doc["threshold_scan"]["mass_fractions"] = [1.5]
        code, outcome = run_outcome(monkeypatch, tmp_path, "threshold-scan", doc)
        assert outcome.tables["scan_summary.csv"][1][0][-1] == "blowup-guard"
        assert (outcome.exit_reason, code) == ("ok", 0)


def assert_writes_as_reference(tmp_path, header, rows):
    write_csv(str(tmp_path / "fast.csv"), header, rows)
    write_reference_csv(tmp_path / "ref.csv", header, rows)
    assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# values of every exact type write_csv formats, a few that need csv quoting,
# and the float and int extremes
CSV_VALUES = (st.floats() | st.sampled_from([-0.0, 5e-324, 1e308, math.inf])
              | st.floats().map(np.float64) | st.floats(width=32).map(np.float32)
              | st.integers() | st.sampled_from([2 ** 200, -(10 ** 300)])
              | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
              | st.booleans() | st.sampled_from([np.True_, np.False_])
              | st.none() | st.text(alphabet='a,"\n\r 1.e-'))
NUMBER_VALUES = (st.floats() | st.floats().map(np.float64) | st.integers()
                 | st.booleans())


@st.composite
def bool_tables(draw):
    """Rows of one tuple of template types with two or more bools, at
    positions drawn once, and bool values drawn per row."""
    numbers = draw(st.lists(st.floats() | st.integers(), max_size=5))
    positions = sorted(draw(st.lists(st.integers(0, len(numbers)), min_size=2,
                                     max_size=4)))
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        row = list(numbers)
        for i, position in enumerate(positions):
            row.insert(position + i, draw(st.booleans()))
        rows.append(row)
    return rows


# a table of rows of any values, of number rows, or of bool_tables, each row
# a list or a tuple
CSV_TABLES = (st.lists(st.lists(NUMBER_VALUES, max_size=6)
                       | st.lists(CSV_VALUES, max_size=6), max_size=8)
              | bool_tables()).flatmap(
    lambda rows: st.tuples(*[st.sampled_from([row, tuple(row)]) for row in rows])
    .map(list))


class TestFloatFormat:
    def test_seventeen_significant_digits(self):
        assert fmt_value(math.pi) == f"{math.pi:.17g}"
        assert fmt_value(None) == ""
        assert fmt_value(True) == "true"
        assert fmt_value(np.float64(0.1)) == "0.10000000000000001"

    def test_write_csv_formats_every_value_as_fmt_value(self, tmp_path):
        values = [math.pi, -0.0, 5e-324, 1e308, math.nan, math.inf, -math.inf,
                  np.float64(0.1), np.float64(math.nan), np.float64(-math.inf),
                  np.float32(0.1), np.float32(math.inf), 3, -7, np.int64(42),
                  True, False, np.True_, np.False_, None, "ok", "a,b", ""]
        rows = [tuple(values), tuple(reversed(values)), ()]
        assert_writes_as_reference(tmp_path, ("a", "b"), rows)

    def test_rows_of_numbers_take_the_template(self, tmp_path):
        numbers = [math.pi, -0.0, 5e-324, 1e308, -1e308, math.nan, math.inf,
                   -math.inf, np.float64(0.1), np.float64(-math.inf), 0, -7,
                   2 ** 200, -(10 ** 300), True, False]
        rows = [
            tuple(numbers),                       # every template type
            (1.5, 2.5), (3, -4), (True, False),   # one type per row
            (True, 1.0, False, 2, True),          # bools in several columns
            (math.nan,), (-0.0,), (10 ** 30,), (False,),  # one value
            (0.1, 2), (None, 2), (0.1, 2),        # a None between number rows
            (np.float64(0.1), 2),                 # np.float64 in a float column
            ("x", 2), (), (0.25, 3),              # str and empty rows between
            (np.float32(0.5), 2), (np.int64(3),),  # numpy types other than float64
        ]
        takes_template = [_row_template(tuple(map(type, row))) is not None
                          for row in rows]
        assert takes_template == [True] * 9 + [True] * 5 + [False, True, False, False]
        assert_writes_as_reference(tmp_path, ("a", "b"), rows)

    @pytest.mark.parametrize("text", ["a,b", 'say "hi"', "line\nbreak", "cr\rhere",
                                      "100%", "%d%%s", "{}", "{0}{x}%.0s", " ", ""])
    def test_text_cells_take_the_template_as_csv_writer_quotes_them(self, tmp_path,
                                                                     text):
        # each text cell is baked into the template: its quoting, a % sign
        # (the template is a %-format) and a brace (the slots are filled by
        # str.format) must come out as csv.writer writes the cell
        rows = [(text,), (text, 1.5), (1.5, text, None), (None, text, True, text),
                (text, "other"), (text,), (None,), ("",), (None, None), ("", 2)]
        assert all(_row_template(tuple(map(type, row))) is not None for row in rows)
        assert_writes_as_reference(tmp_path, ("a", "b"), rows)

    def test_a_lone_empty_cell_is_quoted(self, tmp_path):
        # csv.writer writes a row of one empty cell as "", to tell it from
        # an empty row, and a row of several empty cells without quotes
        write_csv(str(tmp_path / "t.csv"), ("a",),
                  [("",), (None,), (None, ""), (), (None,)])
        assert (tmp_path / "t.csv").read_bytes() == b'a\n""\n""\n,\n\n""\n'

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(rows=CSV_TABLES)
    def test_write_csv_matches_csv_writer_property(self, tmp_path_factory, rows):
        assert_writes_as_reference(tmp_path_factory.mktemp("csv"), ("a", "b"), rows)

    def test_str_rows_are_written_verbatim_among_value_rows(self, tmp_path):
        lines = ["1,2.5,true\n", 'x,"a,b",\n', "\n", "no newline, no quotes"]
        values = [(True, None, 0.1), (math.nan, "a,b", 'say "hi"'), (1.5, 2),
                  (False, -0.0), ("line\nbreak", None), (), (np.float64(0.1), 3)]
        rows = [lines[0], values[0], values[1], lines[1], lines[2], values[2],
                values[3], values[4], values[5], lines[3], values[6]]
        write_csv(str(tmp_path / "mixed.csv"), ("a", "b"), rows)
        # each value row as csv.writer writes it: the reference file of that
        # row alone, without its header line
        want = b"a,b\n"
        for row in rows:
            if type(row) is str:
                want += row.encode()
            else:
                write_reference_csv(tmp_path / "one.csv", ("a", "b"), [row])
                want += (tmp_path / "one.csv").read_bytes().removeprefix(b"a,b\n")
        assert (tmp_path / "mixed.csv").read_bytes() == want
        assert b'"a,b"' in want and b'"say ""hi"""' in want and b'"line\nbreak"' in want

    @pytest.mark.parametrize("command", ["simulate", "gauge-check", "gn-audit",
                                         "threshold-scan", "diagnose"])
    def test_command_tables_match_csv_writer(self, tmp_path, monkeypatch, command):
        written = []
        cfg = write_config(tmp_path, all_formats_doc(str(tmp_path / "out")))

        def both_ways(path, header, rows):
            ref = str(tmp_path / ("ref_" + os.path.basename(path)))
            write_csv(path, header, rows)
            if os.path.basename(path) == "gn_audit.csv":
                # the audit's rows are its own text lines: its reference is
                # the table of the frozen formulas
                rows, _, _ = reference_rows(load_config(cfg).gn_audit)
            write_reference_csv(ref, header, rows)
            written.append((path, ref))

        monkeypatch.setattr("dnlslab.cli.write_csv", both_ways)
        assert main([command, "--config", cfg, "--quiet"]) == 0
        assert written
        for path, ref in written:
            with open(path, "rb") as fast, open(ref, "rb") as slow:
                assert fast.read() == slow.read(), path

    def test_jobs_validation(self, tmp_path, capsys):
        cfg = write_config(tmp_path, base_doc(str(tmp_path / "o")))
        assert main(["simulate", "--config", cfg, "--jobs", "0"]) == 1
        assert capsys.readouterr().err == "config error: --jobs must be >= 1\n"
        assert not (tmp_path / "o").exists()


class TestOutputFiles:
    """The files each command writes and the first words of its status line,
    with every output format requested."""

    SCAN_FILES = {"scan_summary.csv", "diagnostics_L6.28319_d1_f0.5.csv",
                  "diagnostics_L6.28319_d1_f0.9.csv"}

    @pytest.mark.parametrize("command, files, status", [
        ("simulate", {"conserved.csv", "frames.npz", "plot_drift.py"},
         "simulate: ok, max drifts {"),
        ("gauge-check", {"gauge_check.csv"}, "gauge-check: ok, max discrepancy "),
        ("gn-audit", {"gn_audit.csv"}, "gn-audit: ok, 6 rows, 0 violations"),
        ("threshold-scan", SCAN_FILES, "threshold-scan: ok, 2 runs"),
        ("diagnose", {"diagnostics.csv", "conserved.csv"},
         "diagnose: ok, 0 flagged frames"),
    ])
    def test_files_and_status_line(self, tmp_path, capsys, command, files, status):
        out = tmp_path / "out"
        cfg = write_config(tmp_path, all_formats_doc(str(out)))
        assert main([command, "--config", cfg]) == 0
        assert set(os.listdir(out)) == files | {"summary.json"}
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 1 and lines[0].startswith(status)


def test_importing_the_cli_leaves_out_the_process_pool():
    # only a scan that starts workers imports concurrent.futures.process
    code = ("import sys, dnlslab.cli; "
            "sys.exit(int('concurrent.futures.process' in sys.modules))")
    src = os.path.dirname(os.path.dirname(dnlslab.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
