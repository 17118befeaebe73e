"""Fast self-check of the harness: one tiny untraced and one tiny traced
pass per workload.

It fails when a wrapper is not installed at a by-name import site, is
not restored afterwards, records no span where the workload must reach
it, when an output check never runs, or when a contract metric is
missing or not finite.  Program failures are listed but do not fail
the self-check: they are what the benchmark measures, not a broken
harness.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
from pathlib import Path

from tracer import NAME, OP, Tracer, leftover_wrappers
from workloads import TINY, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent

COMMON_SPANS = ("periods.integrate_form", "periods.integrate_vector",
                "wdata.f_theta")
EXPECTED_SPANS = {
    "gallery_pipeline": COMMON_SPANS + (
        "cli.main", "cli.cmd_solve", "cli.cmd_verify", "cli.cmd_export",
        "cli.residual_battery", "cli.write_report", "cli.load_config",
        "gallery.catenoid", "gallery.enneper", "gallery.helicoid",
        "gallery.flat_plane", "solver.feasibility_check",
        "solver.build_period_spray", "solver.newton_correct",
        "solver.period_jacobian", "solver.jacobian_columns",
        "solver.periods_at", "solver.dependencies",
        "wdata.nullity_residual", "wdata.equivariance_residual_f",
        "surface.evaluate", "surface.evaluate_many",
        "surface.equivariance_residual_F", "surface.build_mesh",
        "surface.curvature", "surface.mesh_export",
        "surface.conformality_and_harmonicity", "surface.nondegeneracy_check",
        "surface.null_curve", "surface.fixed_point_alignment",
        "domain.build_path_system", "symgroup.find_invariant_rotation_plane"),
    "perturbed_newton": COMMON_SPANS + (
        "solver.build_period_spray", "solver.newton_correct",
        "solver.interpolate_values", "solver.jacobian_columns",
        "solver.periods_at", "solver.dependencies"),
    "dense_surface": COMMON_SPANS + (
        "surface.equivariance_residual_F", "surface.evaluate_many",
        "surface.mesh_export", "surface.build_mesh"),
}
EXPECTED_CHECKS = {
    "gallery_pipeline": ("exit_code", "verification_ok", "fd_checks",
                         "nondegenerate", "sidecar_sha256",
                         "vertices_vs_closed_form",
                         "byte_identical_to_first_pass"),
    "perturbed_newton": ("converged", "period_residuals", "pinned_value",
                         "equivariance_F"),
    "dense_surface": ("sample_count", "equivariance_F", "vertex_count",
                      "sidecar_sha256", "vertices_vs_closed_form"),
}
# Names looked up somewhere other than their defining module.
BY_NAME_SITES = (("equimin.cli", "newton_correct"),
                 ("equimin.cli", "feasibility_check"),
                 ("equimin.cli", "build_path_system"),
                 ("equimin.surface", "integrate_form"),
                 ("equimin.solver", "integrate_form"),
                 ("equimin", "newton_correct"))


def _sites():
    mods = sys.modules
    out = {f"{m}.{a}": getattr(mods[m], a, None) for m, a in BY_NAME_SITES}
    out["equimin.gallery.GALLERY['catenoid']"] = \
        mods["equimin.gallery"].GALLERY.get("catenoid")
    out["equimin.surface.ImmersionField.evaluate"] = \
        vars(mods["equimin.surface"].ImmersionField).get("evaluate")
    return out


def _check_install(problems):
    before = _sites()
    tracer = Tracer()
    tracer.install()
    try:
        during = _sites()
    finally:
        tracer.uninstall()
    for key, fn in during.items():
        if fn is None:
            problems.append(f"lookup site gone from the program: {key}")
        elif not hasattr(fn, "perfbench_span"):
            problems.append(f"not wrapped while tracing: {key}")
    for key, fn in _sites().items():
        if fn is not before[key]:
            problems.append(f"not restored after tracing: {key}")


def run(run_workload, build_report, contract_metrics) -> int:
    problems = []
    program = []
    workdir = ROOT / ".bench_work" / f"selfcheck-{os.getpid()}"
    try:
        for name, wl in WORKLOADS.items():
            raw = run_workload(wl, 1, 0.0, True, TINY, str(workdir / name))
            if name == "gallery_pipeline":
                _check_install(problems)
            left = leftover_wrappers()
            if left:
                problems.append(f"{name}: wrappers left installed: {left}")
            spans, ops = raw["tracer"].spans, raw["tracer"].ops
            seen = {s[NAME] for s in spans}
            if not any(ops[s[OP]]["kind"] == "setup" for s in spans
                       if s[OP] >= 0):
                problems.append(f"{name}: the traced set-up recorded no span")
            for span in EXPECTED_SPANS[name]:
                if span not in seen:
                    problems.append(f"{name}: no span recorded for {span}")
            report = build_report(wl, raw, {"seed": 1})
            ran = {key.rsplit(":", 1)[1] for key in report["checks"]}
            for check in EXPECTED_CHECKS[name]:
                if check not in ran:
                    problems.append(f"{name}: output check {check} never ran")
            for metric, value in contract_metrics(report).items():
                if not (isinstance(value, (int, float))
                        and math.isfinite(value)):
                    problems.append(f"{name}: metric {metric} = {value!r}")
            program += [f"{name}: {line}"
                        for line in report["unexpected_failures"]]
            known = sum(row["failed"] for row in report["checks"].values()
                        if row["known_defect"])
            print(f"self-check {name}: {len(seen)} span names, "
                  f"{len(ran)} checks, {report['attempted']} ops, "
                  f"{report['failed']} failed ({known} known defect)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for line in program:
        print(f"program failure (not a harness fault): {line}")
    for line in problems:
        print(f"HARNESS FAULT: {line}")
    print("self-check: harness " + ("BROKEN" if problems else "ok"))
    return 1 if problems else 0
