"""Command-line pipeline: generate, solve, verify, export.

Reports are byte-stable JSON (sorted keys, no timestamps) tagged with
the schema string "equimin/1" and a hash of the effective config, so a
rerun with the same config reproduces identical bytes.

Exit codes: 0 success, 2 infeasible data or spray construction failure,
3 correction failure, 4 verification failure, 5 config or I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from .domain import DomainError, PathError, build_path_system
from .gallery import GALLERY
from .periods import (PeriodTarget, compute_periods, period_residuals,
                      QuadratureError)
from .solver import (NewtonConfig, NewtonError, SprayError, build_period_spray,
                     feasibility_check, newton_correct)
from .surface import (ImmersionField, PolarGrid, RectGrid, SurfaceError,
                      conformality_and_harmonicity, curvature,
                      equivariance_residual_F, fixed_point_alignment,
                      mesh_export, null_curve, nondegeneracy_check)
from .symgroup import PlaneRotationCertificate
from .wdata import (DataError, cancellation_check, equivariance_residual_f,
                    local_model_at_fixed_point, nullity_residual,
                    sample_domain_points)

SCHEMA = "equimin/1"

# verification thresholds (fixed; --tol tunes the correction itself)
NULLITY_GATE = 1e-12
EQUIV_F_GATE = 1e-10
EQUIV_IMM_GATE = 1e-9
PERIOD_GATE = 1e-9
FAR_TRANSLATES = (-50, 50)   # generator powers of the far equivariance check

EXIT_OK = 0
EXIT_INFEASIBLE = 2
EXIT_NEWTON = 3
EXIT_VERIFY = 4
EXIT_IO = 5


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    surface: str
    params: dict
    flux: dict | None = None
    tol: float = 1e-10
    mesh: tuple = (64, 64)
    seed: int = 7

    _KNOWN = frozenset({"surface", "params", "flux", "tol", "mesh", "seed"})

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - cls._KNOWN
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        surface = raw.get("surface")
        if surface not in GALLERY:
            raise ConfigError(
                f"surface must be one of {sorted(GALLERY)}, got {surface!r}")
        params = raw.get("params", {})
        if not isinstance(params, dict):
            raise ConfigError("params must be an object")
        flux = raw.get("flux")
        if flux is not None:
            if not isinstance(flux, dict):
                raise ConfigError("flux must map loop keys to 3-vectors")
            flux = {str(k): [float(x) for x in v] for k, v in flux.items()}
        tol = float(raw.get("tol", 1e-10))
        if tol <= 0:
            raise ConfigError("tol must be positive")
        mesh = raw.get("mesh", [64, 64])
        if (not isinstance(mesh, (list, tuple)) or len(mesh) != 2
                or any(int(x) < 2 for x in mesh)):
            raise ConfigError("mesh must be [rows, cols] with entries >= 2")
        seed = int(raw.get("seed", 7))
        return cls(surface=surface, params=dict(params), flux=flux,
                   tol=tol, mesh=(int(mesh[0]), int(mesh[1])), seed=seed)

    def canonical(self) -> dict:
        return {"surface": self.surface, "params": self.params,
                "flux": self.flux, "tol": self.tol,
                "mesh": list(self.mesh), "seed": self.seed}

    def digest(self) -> str:
        blob = json.dumps(self.canonical(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()


def _entry(cfg: RunConfig):
    try:
        return GALLERY[cfg.surface](**cfg.params)
    except TypeError as exc:
        raise ConfigError(f"bad params for {cfg.surface}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, np.ndarray):
        return _jsonable(x.tolist())
    if isinstance(x, complex):
        return {"re": float(x.real), "im": float(x.imag)}
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, float) and x != x:
        return None
    return x


def write_report(out_dir: str, name: str, payload: dict) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    blob = json.dumps(_jsonable(payload), sort_keys=True, indent=2).encode() + b"\n"
    with open(path, "wb") as fh:
        fh.write(blob)
    return path


def _target(cfg: RunConfig, entry, data, paths) -> PeriodTarget:
    flux = cfg.flux if cfg.flux is not None else {
        k: v for k, v in entry.flux_loops.items()}
    flux = {k: np.asarray(v, dtype=float) for k, v in flux.items()}
    return PeriodTarget(flux=flux).validated(data, paths)


def residual_battery(data, paths, target, seed: int, n_samples: int = 2048) -> dict:
    """Independent residual figures on fresh sample clouds."""
    cloud = sample_domain_points(data.domain, n_samples, seed)
    out = {
        "nullity": {"value": nullity_residual(data, cloud),
                    "samples": n_samples, "gate": NULLITY_GATE},
        "equivariance_f": {"value": equivariance_residual_f(data, n_samples, seed + 1),
                           "samples": n_samples, "gate": EQUIV_F_GATE},
    }
    field = ImmersionField(data)
    eq = equivariance_residual_F(field, n_samples=256, seed=seed + 2)
    out["equivariance_F"] = {"value": eq["residual"], "samples": eq["samples"],
                             "gate": EQUIV_IMM_GATE}
    if not data.domain_action.is_finite:
        # deformations reach every translate; so must the check
        far = equivariance_residual_F(field, n_samples=16, seed=seed + 3,
                                      powers=FAR_TRANSLATES)
        out["equivariance_F_far"] = {"value": far["residual"],
                                     "samples": far["samples"],
                                     "powers": list(FAR_TRANSLATES),
                                     "gate": EQUIV_IMM_GATE}
    periods = compute_periods(data, paths)
    res = period_residuals(data, paths, periods, target, v=data.v)
    for key in ("real_period_residual", "orbit_closure_residual",
                "marked_residual", "flux_residual"):
        out[key] = {"value": res[key], "gate": PERIOD_GATE}
    out["ok"] = bool(all(v["value"] <= v["gate"] for v in out.values()
                         if isinstance(v, dict)))
    return out


def _solve_pipeline(cfg: RunConfig, entry):
    """Feasibility, spray, gate, correction.  Raises on failure."""
    data = entry.data
    feas = feasibility_check(data.domain_action, data.space_action)
    if not feas.feasible:
        return None, None, None, feas
    paths = build_path_system(data.domain, data.domain_action, data.basepoint)
    target = _target(cfg, entry, data, paths)
    spray = build_period_spray(data, paths)
    result = newton_correct(spray, target=target,
                            config=NewtonConfig(tol=cfg.tol))
    return paths, target, result, feas


def cmd_generate(cfg: RunConfig, out_dir: str) -> int:
    entry = _entry(cfg)
    data = entry.data
    feas = feasibility_check(data.domain_action, data.space_action)
    cancel = cancellation_check(data)
    models = []
    for record, cert in feas.entries:
        if isinstance(cert, PlaneRotationCertificate):
            lm = local_model_at_fixed_point(record, cert)
            models.append({"point": complex(record.point), "order": record.order,
                           "y0": lm.y0, "k": lm.k})
    report = {
        "schema": SCHEMA, "command": "generate", "config": cfg.canonical(),
        "config_hash": cfg.digest(), "surface": entry.name,
        "feasible": feas.feasible, "feasibility": feas.to_json(),
        "cancellation_ok": cancel.ok,
        "local_models": models,
        "nullity": nullity_residual(
            data, sample_domain_points(data.domain, 2048, cfg.seed)),
        "equivariance_f": equivariance_residual_f(data, 2048, cfg.seed + 1),
        "theta_pullback": data.theta.pullback_residual(data.domain_action),
    }
    write_report(out_dir, "generate_report.json", report)
    print(f"generate {entry.name}: feasible={feas.feasible} "
          f"cancellation_ok={cancel.ok}")
    if not feas.feasible or not cancel.ok:
        return EXIT_INFEASIBLE
    return EXIT_OK


def cmd_solve(cfg: RunConfig, out_dir: str) -> int:
    entry = _entry(cfg)
    try:
        paths, target, result, feas = _solve_pipeline(cfg, entry)
    except NewtonError as exc:
        write_report(out_dir, "solve_report.json", {
            "schema": SCHEMA, "command": "solve", "config": cfg.canonical(),
            "config_hash": cfg.digest(), "surface": entry.name,
            "converged": False, "error": str(exc),
            "history": list(getattr(exc, "history", []))})
        print(f"solve {entry.name}: correction failed: {exc}")
        return EXIT_NEWTON
    if result is None:
        write_report(out_dir, "solve_report.json", {
            "schema": SCHEMA, "command": "solve", "config": cfg.canonical(),
            "config_hash": cfg.digest(), "surface": entry.name,
            "converged": False, "feasible": False,
            "feasibility": feas.to_json()})
        print(f"solve {entry.name}: infeasible")
        return EXIT_INFEASIBLE
    battery = residual_battery(result.data, paths, target, cfg.seed)
    report = {
        "schema": SCHEMA, "command": "solve", "config": cfg.canonical(),
        "config_hash": cfg.digest(), "surface": entry.name,
        "converged": result.converged, "iterations": result.iterations,
        "sigma_min": result.sigma_min,
        "t_real": [float(x.real) for x in result.t],
        "t_imag": [float(x.imag) for x in result.t],
        "v": result.v, "residuals": result.residuals,
        "residual_history": list(result.residual_history),
        "verification": battery,
    }
    write_report(out_dir, "solve_report.json", report)
    print(f"solve {entry.name}: converged={result.converged} "
          f"iterations={result.iterations} verification_ok={battery['ok']}")
    if not battery["ok"]:
        return EXIT_VERIFY
    return EXIT_OK


def _solved_data(cfg: RunConfig, entry):
    """Recompute the corrected data deterministically from the config."""
    paths, target, result, feas = _solve_pipeline(cfg, entry)
    if result is None:
        raise SprayError("infeasible data")
    return paths, target, result, feas


def cmd_verify(cfg: RunConfig, out_dir: str) -> int:
    entry = _entry(cfg)
    paths, target, result, feas = _solved_data(cfg, entry)
    # fresh seed offset: verification never reuses the solve's samples
    battery = residual_battery(result.data, paths, target, cfg.seed + 1000)
    field = ImmersionField(result.data)
    pts = _probe_points(entry)
    fd = conformality_and_harmonicity(field, pts)
    nd = nondegeneracy_check(field, seed=cfg.seed + 2000)
    nc = null_curve(field, seed=cfg.seed + 3000)
    data = result.data
    # axis alignment applies only under orthogonal actions; screw
    # motions shift the axis, so the value need not sit on it
    pairs = ()
    if data.space_action.orthogonal:
        pairs = tuple((r, c) for r, c in feas.entries
                      if isinstance(c, PlaneRotationCertificate))
    fp = fixed_point_alignment(field, pairs)
    fp["applies"] = bool(pairs)
    report = {
        "schema": SCHEMA, "command": "verify", "config": cfg.canonical(),
        "config_hash": cfg.digest(), "surface": entry.name,
        "verification": battery,
        "fd_checks": {k: fd[k] for k in ("conformal_residual",
                                         "harmonic_residual",
                                         "weierstrass_residual",
                                         "tolerance")},
        "nondegeneracy": {"rank": nd["rank"],
                          "nondegenerate": nd["nondegenerate"]},
        "null_curve": {"re_residual": nc["re_residual"],
                       "path_residual": nc["path_residual"],
                       "path_gate": PERIOD_GATE,
                       "flux": nc["flux"],
                       "flux_obstruction": nc["flux_obstruction"]},
        "fixed_points": fp,
    }
    write_report(out_dir, "verify_report.json", report)
    fd_ok = all(fd[k] <= fd["tolerance"] for k in
                ("conformal_residual", "harmonic_residual",
                 "weierstrass_residual"))
    fp_ok = fp["residual"] <= fp["tolerance"]
    path_ok = nc["path_residual"] <= PERIOD_GATE
    ok = battery["ok"] and fd_ok and nd["nondegenerate"] and fp_ok and path_ok
    print(f"verify {entry.name}: ok={ok}")
    return EXIT_OK if ok else EXIT_VERIFY


def _probe_points(entry):
    grid = entry.default_grid
    if isinstance(grid, PolarGrid):
        radii = np.geomspace(max(grid.r_in * 2, 0.3), grid.r_out * 0.8, 4)
        return [r * np.exp(1j * t) for r in radii
                for t in np.linspace(0.2, 5.9, 5)]
    us = np.linspace(grid.u0 * 0.8, grid.u1 * 0.8, 4)
    vs = np.linspace(grid.v0 + 0.1 * (grid.v1 - grid.v0),
                     grid.v1 - 0.1 * (grid.v1 - grid.v0), 4)
    return [complex(u, v) for u in us for v in vs]


def cmd_export(cfg: RunConfig, out_dir: str) -> int:
    entry = _entry(cfg)
    _, _, result, _ = _solved_data(cfg, entry)
    field = ImmersionField(result.data)
    grid = entry.default_grid
    if isinstance(grid, PolarGrid):
        grid = PolarGrid(grid.r_in, grid.r_out, cfg.mesh[0], cfg.mesh[1])
    else:
        grid = RectGrid(grid.u0, grid.u1, grid.v0, grid.v1,
                        cfg.mesh[0], cfg.mesh[1])
    ex = mesh_export(field, grid, out_dir, stem=entry.name)
    cur = curvature(field, grid)
    report = {
        "schema": SCHEMA, "command": "export", "config": cfg.canonical(),
        "config_hash": cfg.digest(), "surface": entry.name,
        "files": ex["files"], "vertices": ex["sidecar"]["vertices"],
        "faces": ex["sidecar"]["faces"],
        "total_curvature": cur["total_curvature"],
        "richardson_error": cur["richardson_error"],
        "max_K": cur["max_K"],
    }
    write_report(out_dir, "export_report.json", report)
    print(f"export {entry.name}: {ex['sidecar']['vertices']} vertices, "
          f"{ex['sidecar']['faces']} faces")
    return EXIT_OK


def load_config(path: str, tol=None, mesh=None, seed=None) -> RunConfig:
    with open(path, "rb") as fh:
        raw = json.load(fh)
    if tol is not None:
        raw["tol"] = tol
    if mesh is not None:
        try:
            rows, cols = mesh.lower().split("x")
            raw["mesh"] = [int(rows), int(cols)]
        except ValueError as exc:
            raise ConfigError(f"bad --mesh value {mesh!r}, want NxM") from exc
    if seed is not None:
        raw["seed"] = seed
    return RunConfig.from_dict(raw)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="equimin",
        description="equivariant minimal surface pipeline")
    parser.add_argument("command",
                        choices=["generate", "solve", "verify", "export"])
    parser.add_argument("--config", required=True, help="JSON config file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--tol", type=float, default=None,
                        help="override correction tolerance")
    parser.add_argument("--mesh", default=None, help="override mesh as NxM")
    parser.add_argument("--seed", type=int, default=None,
                        help="override sampling seed")
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config, tol=args.tol, mesh=args.mesh,
                          seed=args.seed)
    except (OSError, json.JSONDecodeError, ConfigError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_IO

    handler = {"generate": cmd_generate, "solve": cmd_solve,
               "verify": cmd_verify, "export": cmd_export}[args.command]
    try:
        return handler(cfg, args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (SprayError, DataError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except NewtonError as exc:
        print(f"correction failed: {exc}", file=sys.stderr)
        return EXIT_NEWTON
    except (PathError, DomainError, QuadratureError, SurfaceError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
