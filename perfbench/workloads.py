"""The three benchmark workloads and their output checks.

Each workload is a closed loop: one client, and each operation starts
only after the previous one ends.  A pass runs every operation of the
workload once.  Only the operations themselves are timed; the output
checks run after the pass.  All inputs are drawn from the workload
seed, so one seed always gives the same inputs.

Why these three (see BENCHMARK.json):

* gallery_pipeline is the path users run.  It is the only workload that
  writes reports and meshes, and it re-solves inside verify and export.
* perturbed_newton is the only workload where bump slots are non-zero,
  so the finite-difference Jacobian sweeps over deformed integrands
  dominate and the surface layer is nearly idle.
* dense_surface leaves the solver idle and splits surface evaluation
  three ways: Laurent integrands, bump integrands and the mesh writer.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import shutil
import time
from dataclasses import dataclass, field

import numpy as np

# Gates of the output checks.  They are the benchmark's own copies of the
# verification gates in equimin.cli (EQUIV_IMM_GATE, PERIOD_GATE), so an
# edit of the program cannot loosen the benchmark's checks.
EQUIV_GATE = 1e-9
PERIOD_GATE = 1e-9
PIN_GATE = 1e-9
CLOSED_FORM_GATE = 1e-9

# Deformed data fails the immersion equivariance gate: bump sprays are
# mollifiers in |z - c|, so the integrand is not holomorphic inside a
# bump.  The check still runs and the operation still counts as failed;
# the label only says the failure is the documented one.
KNOWN_DEFECT = ("deformed-data equivariance: bump sprays are not holomorphic "
                "(ROADMAP.md, holomorphic sprays)")


@dataclass(frozen=True)
class Sizes:
    mesh: tuple | None          # gallery CLI mesh override; None keeps 64x64
    core_samples: int           # equivariance samples on core data
    deformed_samples: int       # equivariance samples on deformed data
    dense_grid: int             # n x n polar grid of the dense mesh export
    check_samples: int          # equivariance samples in the Newton checks


FULL = Sizes(mesh=None, core_samples=2000, deformed_samples=200,
             dense_grid=128, check_samples=16)
TINY = Sizes(mesh=(8, 8), core_samples=40, deformed_samples=4,
             dense_grid=12, check_samples=4)


@dataclass
class Check:
    name: str
    ok: bool
    value: float | None = None
    gate: float | None = None
    known_defect: str | None = None


@dataclass
class Op:
    kind: str
    label: str
    seconds: float = 0.0        # wall time
    norm_s: float = 0.0         # wall time scaled to the nominal host speed
    error: str | None = None
    result: object = None
    ctx: dict = field(default_factory=dict)    # inputs the checks need
    checks: list = field(default_factory=list)

    def check(self, name, ok, value=None, gate=None, known_defect=None):
        self.checks.append(Check(name, bool(ok), None if value is None
                                 else float(value), gate, known_defect))

    @property
    def failed(self) -> bool:
        return self.error is not None or not all(c.ok for c in self.checks)

    @property
    def unexpected(self) -> bool:
        """Failed for a reason other than the documented defect."""
        return self.error is not None or any(
            not c.ok and c.known_defect is None for c in self.checks)


def run_timed(op: Op, fn) -> Op:
    """Run one operation, timing only the call.  Any exception counts as
    a failed operation and the loop goes on with the next one."""
    start = time.perf_counter()
    try:
        op.result = fn()
    except Exception as exc:  # noqa: BLE001 - a failed op must not end the run
        op.error = f"{type(exc).__name__}: {exc}"
    op.seconds = time.perf_counter() - start
    return op


def _rng(*key) -> np.random.Generator:
    return np.random.default_rng([int(k) for k in key])


def _start_direction(rng, n_slots: int, norm: float = 0.1) -> np.ndarray:
    t0 = rng.normal(size=n_slots) + 1j * rng.normal(size=n_slots)
    return t0 * (norm / np.linalg.norm(t0))


def _grid_like(eq, grid, n_rows, n_cols):
    if isinstance(grid, eq.surface.PolarGrid):
        return eq.surface.PolarGrid(grid.r_in, grid.r_out, n_rows, n_cols)
    return eq.surface.RectGrid(grid.u0, grid.u1, grid.v0, grid.v1,
                               n_rows, n_cols)


def _obj_vertices(path: str) -> np.ndarray:
    with open(path) as fh:
        rows = [line.split()[1:4] for line in fh if line.startswith("v ")]
    return np.asarray(rows, dtype=float)


def _closed_form_error(entry, grid, obj_path: str) -> float:
    got = _obj_vertices(obj_path)
    want = np.array([entry.closed_form_F(z) for z in grid.points().ravel()])
    if got.shape != want.shape:
        return math.inf
    return float(np.max(np.abs(got - want)))


def _sidecar_ok(out_dir: str, stem: str) -> bool:
    with open(os.path.join(out_dir, f"{stem}.diag.json")) as fh:
        files = json.load(fh)["files"]
    for name, digest in files.items():
        with open(os.path.join(out_dir, name), "rb") as fh:
            if hashlib.sha256(fh.read()).hexdigest() != digest:
                return False
    return bool(files)


def _dir_digest(path: str) -> dict:
    out = {}
    if os.path.isdir(path):
        for name in sorted(os.listdir(path)):
            with open(os.path.join(path, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


class Workload:
    """`setup` builds the inputs of a pass, `plan_pass` lists its
    operations as (Op, callable) pairs for the runner to time, and
    `check_op` inspects one finished operation; `memo` carries what the
    checks compare across passes."""

    name = ""

    @staticmethod
    def end_pass(state, pass_index):
        """Drop the pass's output files once they are checked."""
        shutil.rmtree(os.path.join(state["workdir"], f"pass{pass_index}"),
                      ignore_errors=True)


# ---------------------------------------------------------------------------
# gallery_pipeline


class GalleryPipeline(Workload):
    """solve, verify and export through equimin.cli.main on five configs."""

    name = "gallery_pipeline"
    COMMANDS = ("solve", "verify", "export")

    def setup(self, eq, seed, sizes, workdir):
        rng = _rng(seed, 0)
        cfg_seeds = [int(s) for s in rng.integers(1, 2 ** 31, size=5)]
        specs = [
            ("catenoid_3", {"surface": "catenoid", "params": {"k": 3}}, True),
            ("catenoid_3_flux", {"surface": "catenoid", "params": {"k": 3},
                                 "flux": {"loop:0": [0.0, 0.0, 4 * math.pi]}},
             False),
            ("enneper_2", {"surface": "enneper", "params": {"m": 2}}, True),
            ("helicoid", {"surface": "helicoid", "params": {}}, True),
            ("flat_plane", {"surface": "flat_plane", "params": {}}, False),
        ]
        cfg_dir = os.path.join(workdir, "configs")
        os.makedirs(cfg_dir, exist_ok=True)
        configs = []
        for (label, raw, core), s in zip(specs, cfg_seeds):
            raw = dict(raw, seed=s)
            if sizes.mesh is not None:
                raw["mesh"] = list(sizes.mesh)
            path = os.path.join(cfg_dir, f"{label}.json")
            with open(path, "w") as fh:
                json.dump(raw, fh, sort_keys=True)
            entry = eq.gallery.GALLERY[raw["surface"]](**raw["params"])
            mesh = raw.get("mesh", (64, 64))
            configs.append({"label": label, "path": path, "entry": entry,
                            "core": core, "grid": _grid_like(
                                eq, entry.default_grid, mesh[0], mesh[1]),
                            "expect": 2 if raw["surface"] == "flat_plane"
                            else 0})
        return {"configs": configs, "workdir": workdir}

    def plan_pass(self, eq, state, pass_index):
        plan = []
        root = os.path.join(state["workdir"], f"pass{pass_index}")
        for cfg in state["configs"]:
            for cmd in self.COMMANDS:
                out = os.path.join(root, f"{cfg['label']}-{cmd}")
                argv = [cmd, "--config", cfg["path"], "--out", out]

                def call(argv=argv):
                    sink = io.StringIO()
                    with contextlib.redirect_stdout(sink), \
                            contextlib.redirect_stderr(sink):
                        return eq.cli.main(argv)

                plan.append((Op(kind=cmd, label=cfg["label"],
                                ctx={"out": out, "cfg": cfg}), call))
        return plan

    def check_op(self, eq, state, op, memo):
        cfg, out = op.ctx["cfg"], op.ctx["out"]
        op.check("exit_code", op.result == cfg["expect"], op.result,
                 cfg["expect"])
        if cfg["expect"] == 0:
            self._check_outputs(op, cfg, out)
        digest = _dir_digest(out)
        first = memo.setdefault((cfg["label"], op.kind), digest)
        op.check("byte_identical_to_first_pass", digest == first)

    @staticmethod
    def _check_outputs(op, cfg, out):
        with open(os.path.join(out, f"{op.kind}_report.json")) as fh:
            report = json.load(fh)
        if op.kind in ("solve", "verify"):
            op.check("verification_ok", report["verification"]["ok"])
        if op.kind == "verify":
            fd = report["fd_checks"]
            worst = max(fd[k] for k in ("conformal_residual",
                                        "harmonic_residual",
                                        "weierstrass_residual"))
            op.check("fd_checks", worst <= fd["tolerance"], worst,
                     fd["tolerance"])
            op.check("nondegenerate", report["nondegeneracy"]["nondegenerate"])
        if op.kind == "export":
            stem = report["surface"]
            op.check("sidecar_sha256", _sidecar_ok(out, stem))
            if cfg["core"]:
                err = _closed_form_error(cfg["entry"], cfg["grid"],
                                         os.path.join(out, f"{stem}.obj"))
                op.check("vertices_vs_closed_form", err <= CLOSED_FORM_GATE,
                         err, CLOSED_FORM_GATE)

    @staticmethod
    def pass_metrics(ops):
        return {f"{cmd}_s": sum(op.norm_s for op in ops if op.kind == cmd)
                for cmd in GalleryPipeline.COMMANDS}


# ---------------------------------------------------------------------------
# perturbed_newton


class PerturbedNewton(Workload):
    """Newton from seeded perturbed starts, plus marked-value interpolation."""

    name = "perturbed_newton"
    Z0 = 1.4 + 0.3j

    def setup(self, eq, seed, sizes, workdir):
        cases = []
        for label, entry in (("catenoid_3", eq.gallery.catenoid(3)),
                             ("helicoid", eq.gallery.helicoid())):
            data = entry.data
            paths = eq.domain.build_path_system(data.domain, data.domain_action,
                                                data.basepoint)
            n_slots = eq.solver.build_period_spray(data, paths).n_slots
            cases.append({"label": label, "data": data, "paths": paths,
                          "n_slots": n_slots})
        data = eq.gallery.catenoid(2).data
        paths = eq.domain.build_path_system(data.domain, data.domain_action,
                                            data.basepoint)
        want = eq.surface.ImmersionField(data).evaluate(self.Z0) + \
            np.array([0.0, 0.0, 0.05])
        cases.append({"label": "interpolate_catenoid_2", "data": data,
                      "paths": paths, "want": want})
        return {"cases": cases, "seed": seed, "sizes": sizes,
                "workdir": workdir}

    def plan_pass(self, eq, state, pass_index):
        plan = []
        solver = eq.solver
        for i, case in enumerate(state["cases"]):
            data, paths = case["data"], case["paths"]
            if "want" in case:
                want = case["want"]

                def call(data=data, paths=paths, want=want):
                    spray = solver.build_period_spray(data, paths)
                    spray, target = solver.interpolate_values(
                        spray, [self.Z0], [want])
                    return solver.newton_correct(spray, target)
            else:
                t0 = _start_direction(_rng(state["seed"], 1, pass_index, i),
                                      case["n_slots"])

                def call(data=data, paths=paths, t0=t0):
                    spray = solver.build_period_spray(data, paths)
                    return solver.newton_correct(spray, t_init=t0)
            check_seed = int(_rng(state["seed"], 2, pass_index, i)
                             .integers(2 ** 31))
            plan.append((Op(kind="solve", label=case["label"],
                            ctx={"case": case, "check_seed": check_seed}),
                         call))
        return plan

    def check_op(self, eq, state, op, memo):
        res = op.result
        op.check("converged", res.converged)
        worst = max(res.residuals.values())
        op.check("period_residuals", worst <= PERIOD_GATE, worst, PERIOD_GATE)
        field_ = eq.surface.ImmersionField(res.data)
        case = op.ctx["case"]
        if "want" in case:
            err = float(np.max(np.abs(field_.evaluate(self.Z0) - case["want"])))
            op.check("pinned_value", err <= PIN_GATE, err, PIN_GATE)
        eqv = eq.surface.equivariance_residual_F(
            field_, n_samples=state["sizes"].check_samples,
            seed=op.ctx["check_seed"])
        op.check("equivariance_F", eqv["residual"] <= EQUIV_GATE,
                 eqv["residual"], EQUIV_GATE, KNOWN_DEFECT)

    @staticmethod
    def pass_metrics(ops):
        out = {"time_to_solution_s": sum(op.norm_s for op in ops)}
        for op in ops:
            out[f"time_to_solution_s.{op.label}"] = op.norm_s
            if op.error is None:
                out[f"newton_iterations.{op.label}"] = op.result.iterations
        return out


# ---------------------------------------------------------------------------
# dense_surface


class DenseSurface(Workload):
    """Immersion equivariance at many samples, and a fine mesh export."""

    name = "dense_surface"

    def setup(self, eq, seed, sizes, workdir):
        g = eq.gallery
        core = [(e.name, e.data) for e in (g.catenoid(6), g.enneper(2),
                                           g.helicoid())]
        # The deformed data are the reproducer solutions (start direction
        # from default_rng(1), as in the Newton-recovery tests), not
        # seed-drawn ones: evaluation cost depends strongly on the solution
        # (1.7-2.9 s on catenoid(3) and 2.5-4.4 s on the helicoid for 200
        # samples over six start directions), which would swamp the run
        # medians.  The seed draws the sample clouds; perturbed_newton
        # covers seed-drawn start directions.
        deformed = []
        for entry in (g.catenoid(3), g.helicoid()):
            data = entry.data
            paths = eq.domain.build_path_system(data.domain, data.domain_action,
                                                data.basepoint)
            spray = eq.solver.build_period_spray(data, paths)
            t0 = _start_direction(np.random.default_rng(1), spray.n_slots)
            res = eq.solver.newton_correct(spray, t_init=t0)
            deformed.append((f"{entry.name}_perturbed", res.data))
        cat = g.catenoid(3)
        grid = _grid_like(eq, cat.default_grid, sizes.dense_grid,
                          sizes.dense_grid)
        return {"core": core, "deformed": deformed, "mesh_entry": cat,
                "grid": grid, "seed": seed, "sizes": sizes,
                "workdir": workdir}

    def plan_pass(self, eq, state, pass_index):
        plan = []
        surface = eq.surface
        sizes = state["sizes"]
        jobs = [("core", name, data, sizes.core_samples)
                for name, data in state["core"]]
        jobs += [("deformed", name, data, sizes.deformed_samples)
                 for name, data in state["deformed"]]
        for i, (kind, name, data, n) in enumerate(jobs):
            seed = int(_rng(state["seed"], 4, pass_index, i).integers(2 ** 31))

            def call(data=data, n=n, seed=seed):
                return surface.equivariance_residual_F(
                    surface.ImmersionField(data), n_samples=n, seed=seed)

            plan.append((Op(kind=kind, label=name, ctx={"samples": n}), call))
        out_dir = os.path.join(state["workdir"], f"pass{pass_index}", "mesh")
        entry = state["mesh_entry"]

        def mesh_call():
            return surface.mesh_export(surface.ImmersionField(entry.data),
                                       state["grid"], out_dir, stem=entry.name)

        plan.append((Op(kind="mesh", label=entry.name, ctx={"out": out_dir}),
                     mesh_call))
        return plan

    def check_op(self, eq, state, op, memo):
        if op.kind == "mesh":
            grid, out = state["grid"], op.ctx["out"]
            n = grid.points().size
            got = op.result["sidecar"]["vertices"]
            op.check("vertex_count", got == n, got, n)
            op.check("sidecar_sha256", _sidecar_ok(out, op.label))
            err = _closed_form_error(state["mesh_entry"], grid,
                                     os.path.join(out, f"{op.label}.obj"))
            op.check("vertices_vs_closed_form", err <= CLOSED_FORM_GATE, err,
                     CLOSED_FORM_GATE)
            return
        rep, n = op.result, op.ctx["samples"]
        op.check("sample_count", rep["samples"] == n, rep["samples"], n)
        op.check("equivariance_F", rep["residual"] <= EQUIV_GATE,
                 rep["residual"], EQUIV_GATE,
                 KNOWN_DEFECT if op.kind == "deformed" else None)

    @staticmethod
    def pass_metrics(ops):
        out = {}
        for kind in ("core", "deformed"):
            sel = [op for op in ops if op.kind == kind and op.error is None]
            points = sum(2 * op.ctx["samples"] * op.result["generators"]
                         for op in sel)
            secs = sum(op.norm_s for op in sel)
            if secs > 0:
                out[f"eval_points_per_s.{kind}"] = points / secs
        for op in ops:
            if op.kind == "mesh" and op.error is None:
                out["mesh_vertices_per_s"] = \
                    op.result["sidecar"]["vertices"] / op.norm_s
        return out


WORKLOADS = {w.name: w for w in (GalleryPipeline(), PerturbedNewton(),
                                 DenseSurface())}
