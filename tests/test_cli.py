"""End-to-end runs of the command line driver.

Every command is invoked in-process through main(argv) so exit codes
and report bytes can be asserted without spawning interpreters.
"""

import json
import math
from pathlib import Path

import pytest

import equimin.cli as cli
from equimin.cli import (EXIT_INFEASIBLE, EXIT_IO, EXIT_NEWTON, EXIT_OK,
                         EXIT_VERIFY, main)


def write_config(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def cat_config(tmp_path):
    return write_config(tmp_path / "cat.json",
                        {"surface": "catenoid", "params": {"k": 3},
                         "seed": 7})


def run(command, config, out, *extra):
    return main([command, "--config", config, "--out", str(out), *extra])


def test_generate_solve_verify_export_succeed(cat_config, tmp_path):
    out = tmp_path / "out"
    assert run("generate", cat_config, out) == EXIT_OK
    assert run("solve", cat_config, out) == EXIT_OK
    assert run("verify", cat_config, out) == EXIT_OK
    assert run("export", cat_config, out) == EXIT_OK
    names = {p.name for p in out.iterdir()}
    assert {"generate_report.json", "solve_report.json",
            "verify_report.json", "export_report.json"} <= names
    assert any(n.endswith(".obj") for n in names)
    assert any(n.endswith(".ply") for n in names)


def test_solve_report_contents(cat_config, tmp_path):
    out = tmp_path / "out"
    assert run("solve", cat_config, out) == EXIT_OK
    report = json.loads((out / "solve_report.json").read_text())
    assert report["schema"] == "equimin/1"
    assert report["surface"] == "catenoid_3"
    assert report["converged"] is True
    assert report["iterations"] == 0
    assert len(report["config_hash"]) == 64
    battery = report["verification"]
    assert battery["ok"] is True
    assert battery["nullity"]["value"] < battery["nullity"]["gate"]
    assert battery["equivariance_F"]["value"] < 1e-9


def test_solve_is_byte_deterministic(cat_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("solve", cat_config, out1) == EXIT_OK
    assert run("solve", cat_config, out2) == EXIT_OK
    assert (out1 / "solve_report.json").read_bytes() == \
        (out2 / "solve_report.json").read_bytes()


def test_export_is_byte_deterministic(cat_config, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run("export", cat_config, out1, "--mesh", "24x24") == EXIT_OK
    assert run("export", cat_config, out2, "--mesh", "24x24") == EXIT_OK
    for name in ("catenoid_3.obj", "catenoid_3.ply", "export_report.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_flux_target_reaches_requested_period(tmp_path):
    cfg = write_config(tmp_path / "flux.json", {
        "surface": "catenoid", "params": {"k": 3}, "seed": 7,
        "flux": {"loop:0": [0.0, 0.0, 4 * math.pi]}})
    out = tmp_path / "out"
    assert run("solve", cfg, out) == EXIT_OK
    report = json.loads((out / "solve_report.json").read_text())
    assert report["iterations"] > 0
    assert report["verification"]["flux_residual"]["value"] < 1e-9
    # the correction is a pure dilation: every bump coefficient is zero
    assert any(abs(t) > 0.1 for t in report["t_real"])


def test_infeasible_surface_exits_2(tmp_path):
    cfg = write_config(tmp_path / "flat.json",
                       {"surface": "flat_plane", "seed": 1})
    out = tmp_path / "out"
    assert run("solve", cfg, out) == EXIT_INFEASIBLE


def test_unreachable_tolerance_exits_3(cat_config, tmp_path):
    out = tmp_path / "out"
    assert run("solve", cat_config, out, "--tol", "1e-300") == EXIT_NEWTON
    report = json.loads((out / "solve_report.json").read_text())
    assert report["converged"] is False
    assert "history" in report


def test_failed_gate_exits_4(cat_config, tmp_path, monkeypatch):
    # force the verification gate shut: any nonnegative residual now fails
    monkeypatch.setattr(cli, "PERIOD_GATE", -1.0)
    out = tmp_path / "out"
    assert run("solve", cat_config, out) == EXIT_VERIFY


def test_path_dependent_surface_fails_verify(cat_config, tmp_path,
                                             monkeypatch):
    # a two-path discrepancy above the period gate means the integrand
    # is not holomorphic: verify must fail even with every other check green
    monkeypatch.setattr(cli.ImmersionField, "two_path_residual",
                        lambda self, z: 1e-6)
    out = tmp_path / "out"
    assert run("verify", cat_config, out) == EXIT_VERIFY
    report = json.loads((out / "verify_report.json").read_text())
    assert report["verification"]["ok"] is True
    assert report["null_curve"]["path_residual"] == 1e-6


def test_unknown_config_key_exits_5(tmp_path):
    cfg = write_config(tmp_path / "bad.json",
                       {"surface": "catenoid", "wobble": 3})
    assert run("solve", cfg, tmp_path / "out") == EXIT_IO


def test_missing_config_exits_5(tmp_path):
    assert run("solve", str(tmp_path / "nope.json"),
               tmp_path / "out") == EXIT_IO


def test_output_collision_exits_5(cat_config, tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("occupied")
    assert run("solve", cat_config, blocker) == EXIT_IO
    assert run("solve", cat_config, blocker / "sub") == EXIT_IO


def test_seed_and_tol_overrides_are_recorded(cat_config, tmp_path):
    out = tmp_path / "out"
    assert run("solve", cat_config, out, "--seed", "99",
               "--tol", "1e-8") == EXIT_OK
    report = json.loads((out / "solve_report.json").read_text())
    assert report["config"]["seed"] == 99
    assert report["config"]["tol"] == 1e-8


def test_mesh_override_changes_export(cat_config, tmp_path):
    out = tmp_path / "out"
    assert run("export", cat_config, out, "--mesh", "12x10") == EXIT_OK
    report = json.loads((out / "export_report.json").read_text())
    assert report["config"]["mesh"] == [12, 10]
    sidecar = json.loads((out / "catenoid_3.diag.json").read_text())
    assert sidecar["vertices"] == 120


def test_config_hash_tracks_config_not_command(cat_config, tmp_path):
    out = tmp_path / "out"
    assert run("generate", cat_config, out) == EXIT_OK
    assert run("solve", cat_config, out) == EXIT_OK
    gen = json.loads((out / "generate_report.json").read_text())
    sol = json.loads((out / "solve_report.json").read_text())
    assert gen["config_hash"] == sol["config_hash"]


def test_generate_reports_model_and_residuals(tmp_path):
    cfg = write_config(tmp_path / "enn.json",
                       {"surface": "enneper", "params": {"m": 2}, "seed": 3})
    out = tmp_path / "out"
    assert run("generate", cfg, out) == EXIT_OK
    report = json.loads((out / "generate_report.json").read_text())
    assert report["feasible"] is True
    assert report["cancellation_ok"] is True
    assert report["nullity"] < 1e-12
    assert report["equivariance_f"] < 1e-10
    assert report["local_models"], "fixed point should carry a local model"


def test_helicoid_pipeline(tmp_path):
    cfg = write_config(tmp_path / "hel.json", {
        "surface": "helicoid", "params": {"pitch": 2 * math.pi}, "seed": 5})
    out = tmp_path / "out"
    assert run("solve", cfg, out) == EXIT_OK
    assert run("verify", cfg, out) == EXIT_OK
    report = json.loads((out / "verify_report.json").read_text())
    assert report["verification"]["ok"] is True
    fd = report["fd_checks"]
    assert fd["conformal_residual"] < fd["tolerance"]
    assert fd["harmonic_residual"] < fd["tolerance"]
    # screw motion has a translation part: axis alignment is skipped
    assert report["fixed_points"]["applies"] is False


def test_verify_checks_fixed_point_axis_alignment(tmp_path):
    cfg = write_config(tmp_path / "enn.json", {
        "surface": "enneper", "params": {"m": 2}, "seed": 3})
    out = tmp_path / "out"
    assert run("solve", cfg, out) == EXIT_OK
    assert run("verify", cfg, out) == EXIT_OK
    report = json.loads((out / "verify_report.json").read_text())
    fp = report["fixed_points"]
    assert fp["applies"] is True
    assert fp["samples"] == 1
    assert fp["residual"] <= fp["tolerance"]


def test_verify_runs_feasibility_check_once(cat_config, tmp_path, monkeypatch):
    # verify reuses the solve pipeline's feasibility report for the
    # fixed-point alignment instead of recomputing it
    calls = []
    real = cli.feasibility_check

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "feasibility_check", counting)
    assert run("verify", cat_config, tmp_path / "out") == EXIT_OK
    assert len(calls) == 1
