"""From corrected Weierstrass data to the immersion and its reports.

The surface is F(x) = v + Re of the path integral of f theta from the
basepoint.  Anchor integrals are cached along radial spines so meshes
and large sample clouds cost one short quadrature segment per point.
Finite-difference diagnostics use increment integrals from the probe
point itself, so the anchor's quadrature error cancels instead of being
amplified by the step size.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
from dataclasses import dataclass

import numpy as np

from .domain import (Segment, CircularArc, CompositePath, DomainError,
                     PathError, build_path_system)
from .periods import QUAD_TOL, integrate_form, integrate_vector, compute_periods
from .wdata import sample_domain_points

H_FD = 1e-4                 # finite-difference step for the FD diagnostics
FD_RESIDUAL_TOL = 1e-6
RANK_THRESHOLD = 1e-8       # relative singular-value cutoff for affine rank
LAMBDA_FLOOR = 1e-12        # below this the immersion is suspect
CURVATURE_BAND = 1e-6       # K may exceed 0 by at most this (FD noise)
FLUX_OBSTRUCTION_TOL = 1e-9
AXIS_ALIGNMENT_TOL = 1e-9   # fixed-point values must lie on the rotation axis
_DECAY_RATIO = 0.85         # stage-length decay separating finite from diverging
_INCREMENT_TOL = 1e-14      # quadrature tolerance for stencil increments


class SurfaceError(RuntimeError):
    pass


class ImmersionField:
    """Evaluator for F = v + Re integral of f theta from the basepoint.

    Punctured and bounded domains route radially along the basepoint's
    ray and then along a circular arc; plain translation domains use
    straight segments.  Radial anchor integrals are cached by radius.
    """

    def __init__(self, data, tol: float = QUAD_TOL):
        self.data = data
        self.v = np.asarray(data.v, dtype=float)
        self.basepoint = complex(data.basepoint)
        self.tol = tol
        self._anchors: dict = {}
        self._polar = bool(data.domain.punctures) or data.domain.kind != "plane"
        if self._polar and abs(self.basepoint) < 1e-12:
            raise SurfaceError("polar routing needs a basepoint off the origin")

    # -- integral plumbing -------------------------------------------------

    def _segment_integral(self, z0: complex, z1: complex, tol=None) -> np.ndarray:
        if z0 == z1:
            return np.zeros(self.data.dim, dtype=complex)
        return integrate_form(self.data, Segment(z0, z1),
                              tol=self.tol if tol is None else tol)

    def _arc_integral(self, r: float, t0: float, t1: float) -> np.ndarray:
        if abs(t1 - t0) * r < 1e-15:
            return np.zeros(self.data.dim, dtype=complex)
        return integrate_form(self.data, CircularArc(0j, r, t0, t1), tol=self.tol)

    def _anchor(self, r: float) -> np.ndarray:
        """Integral from the basepoint radially out to radius r."""
        got = self._anchors.get(r)
        if got is not None:
            return got
        b = self.basepoint
        val = self._segment_integral(b, b * (r / abs(b)))
        self._anchors[r] = val
        return val

    def integral_to(self, z, via=None) -> np.ndarray:
        """Full complex integral of f theta from the basepoint to z."""
        z = complex(z)
        if via is not None:
            return integrate_form(self.data, via, tol=self.tol)
        if z == self.basepoint:
            return np.zeros(self.data.dim, dtype=complex)
        if not self._polar:
            return self._segment_integral(self.basepoint, z)
        r = abs(z)
        t0 = cmath.phase(self.basepoint)
        dphi = cmath.phase(z) - t0
        if dphi > math.pi:
            dphi -= 2 * math.pi
        if dphi < -math.pi:
            dphi += 2 * math.pi
        return self._anchor(r) + self._arc_integral(r, t0, t0 + dphi)

    # -- public evaluation -------------------------------------------------

    def evaluate(self, z, via=None) -> np.ndarray:
        return self.v + self.integral_to(z, via=via).real

    def evaluate_complex(self, z) -> np.ndarray:
        """v + 0i plus the full complex integral (the null-curve lift)."""
        return self.v.astype(complex) + self.integral_to(z)

    def evaluate_many(self, zs) -> np.ndarray:
        """Vectorised evaluation; radial anchors are built once along the
        sorted radius spine, so each point costs one arc segment."""
        zs = np.asarray(zs, dtype=complex).ravel()
        out = np.empty((len(zs), self.data.dim), dtype=float)
        if self._polar:
            radii = np.unique(np.abs(zs))
            b = self.basepoint
            t0 = cmath.phase(b)
            prev_r = abs(b)
            acc = np.zeros(self.data.dim, dtype=complex)
            for r in radii:
                if r not in self._anchors:
                    acc = acc + self._segment_integral(
                        b * (prev_r / abs(b)), b * (r / abs(b)))
                    self._anchors[r] = acc
                else:
                    acc = self._anchors[r]
                prev_r = r
        for i, z in enumerate(zs):
            out[i] = self.evaluate(z)
        return out

    def evaluate_stencil(self, z, h: float = H_FD) -> dict:
        """Center value and the four axis-neighbour increments.

        Differences are taken between increments alone, so the anchor
        integral's error and the center's rounding never enter the
        divided differences.
        """
        z = complex(z)
        inc = {}
        for off in (h, -h, 1j * h, -1j * h):
            val = integrate_form(self.data, Segment(z, z + off),
                                 tol=_INCREMENT_TOL)
            inc[off] = val.real
        return {"center": self.evaluate(z), "h": h, "inc": inc}

    def metric_factor(self, z) -> np.ndarray:
        """Conformal factor lambda = |f theta/dz| / sqrt(2), exact."""
        vals = self.data.f_theta(np.asarray(z, dtype=complex))
        return np.linalg.norm(vals, axis=0) / math.sqrt(2.0)

    def two_path_residual(self, z) -> float:
        """Evaluate along the default route and along a detour through a
        different radius; homotopic routes must agree."""
        z = complex(z)
        if not self._polar:
            mid = self.basepoint + 1j * (z - self.basepoint) * 0.5
            via = CompositePath([Segment(self.basepoint, mid), Segment(mid, z)])
            return float(np.max(np.abs(self.evaluate(z, via=via) - self.evaluate(z))))
        r_alt = abs(z) * 1.7 + 0.3
        b = self.basepoint
        t0 = cmath.phase(b)
        t1 = cmath.phase(z)
        if t1 - t0 > math.pi:
            t1 -= 2 * math.pi
        if t1 - t0 < -math.pi:
            t1 += 2 * math.pi
        via = CompositePath([
            Segment(b, b * (r_alt / abs(b))),
            CircularArc(0j, r_alt, t0, t1),
            Segment(r_alt * cmath.exp(1j * t1), z),
        ])
        return float(np.max(np.abs(self.evaluate(z, via=via) - self.evaluate(z))))


# ---------------------------------------------------------------------------
# residual diagnostics


def equivariance_residual_F(field: ImmersionField, n_samples: int = 256,
                            seed: int = 31, powers=(1,)) -> dict:
    """max over generators g, powers j and samples of |F(g^j x) - g^j F(x)|,
    with the full rigid motion (translation part included) on the right."""
    data = field.data
    z = sample_domain_points(data.domain, n_samples, seed)
    act = data.domain_action
    worst = 0.0
    Fz = field.evaluate_many(z)
    for pos in range(len(act.generator_indices())):
        for j in powers:
            a, b = act.map_power(pos, j)
            motion = data.space_action.motion_power(pos, j)
            Fgz = field.evaluate_many(a * z + b)
            moved = Fz @ (motion.r * motion.O).T + motion.b
            worst = max(worst, float(np.max(np.linalg.norm(Fgz - moved, axis=1))))
    return {"residual": worst, "samples": int(n_samples),
            "generators": len(act.generator_indices())}


def conformality_and_harmonicity(field: ImmersionField, grid,
                                 h_fd: float = H_FD) -> dict:
    """Finite-difference conformality, harmonicity, and the defining
    relation Fu - i Fv = f theta/dz, all reported as raw maxima.

    The step shrinks with |z| on punctured domains: truncation error
    scales with derivatives of f, which grow toward the puncture.
    """
    grid = np.asarray(grid, dtype=complex).ravel()
    conf = 0.0
    harm = 0.0
    wdat = 0.0
    for z in grid:
        h = h_fd * min(1.0, abs(z) / 2) if field._polar else h_fd
        st = field.evaluate_stencil(z, h=h)
        inc = st["inc"]
        Fu = (inc[h] - inc[-h]) / (2 * h)
        Fv = (inc[1j * h] - inc[-1j * h]) / (2 * h)
        conf = max(conf, abs(float(Fu @ Fu - Fv @ Fv)), abs(float(Fu @ Fv)))
        lap = (inc[h] + inc[-h] + inc[1j * h] + inc[-1j * h]) / h ** 2
        harm = max(harm, float(np.max(np.abs(lap))))
        ft = field.data.f_theta(z)
        wdat = max(wdat, float(np.max(np.abs((Fu - 1j * Fv) - ft))))
    return {"conformal_residual": conf, "harmonic_residual": harm,
            "weierstrass_residual": wdat, "h_fd": h_fd,
            "samples": len(grid), "tolerance": FD_RESIDUAL_TOL}


def nondegeneracy_check(field: ImmersionField, n_samples: int = 96,
                        seed: int = 17) -> dict:
    """Affine rank of a sampled value cloud; full ambient rank means the
    surface lies in no affine hyperplane."""
    data = field.data
    z = sample_domain_points(data.domain, n_samples, seed)
    vals = field.evaluate_many(z)
    centered = vals - vals.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    rank = int(np.sum(sv > RANK_THRESHOLD * sv[0])) if sv[0] > 0 else 0
    return {"rank": rank, "dim": data.dim, "nondegenerate": rank == data.dim,
            "singular_values": sv.tolist(), "samples": int(n_samples),
            "threshold": RANK_THRESHOLD}


def fixed_point_alignment(field, pairs) -> dict:
    """Surface value at each interior fixed point must sit on the
    rotation axis, i.e. orthogonal to the certified invariant plane.

    Equivariance under an orthogonal action pins the value there; a
    screw motion shifts the axis, so callers skip this check for
    actions with translation parts.  ``pairs`` are (fixed point record,
    plane certificate) tuples.
    """
    worst = 0.0
    points = []
    for rec, cert in pairs:
        val = field.evaluate(complex(rec.point))
        off = max(abs(float(val @ cert.u)), abs(float(val @ cert.v)))
        worst = max(worst, off / (1.0 + float(np.linalg.norm(val))))
        points.append([float(rec.point.real), float(rec.point.imag)])
    return {"residual": worst, "points": points, "samples": len(points),
            "tolerance": AXIS_ALIGNMENT_TOL}


# ---------------------------------------------------------------------------
# curvature on chart grids


@dataclass(frozen=True)
class PolarGrid:
    """Log-polar chart w = log z over an annulus; uniform in (log r, phi).

    phi covers [0, 2 pi] inclusively, so the seam is duplicated: an
    n_r x n_phi grid meshes into (n_r - 1)(n_phi - 1) quads.
    """

    r_in: float
    r_out: float
    n_r: int = 64
    n_phi: int = 64

    def __post_init__(self):
        if not (0 < self.r_in < self.r_out):
            raise ValueError("need 0 < r_in < r_out")
        if self.n_r < 2 or self.n_phi < 2:
            raise ValueError("grid needs at least 2 nodes per direction")

    def chart_nodes(self):
        u = np.linspace(math.log(self.r_in), math.log(self.r_out), self.n_r)
        v = np.linspace(0.0, 2 * math.pi, self.n_phi)
        return u, v

    def points(self) -> np.ndarray:
        u, v = self.chart_nodes()
        return np.exp(u[:, None] + 1j * v[None, :])

    def chart_jacobian(self, z) -> np.ndarray:
        return np.abs(z)          # |dz/dw| = |z|


@dataclass(frozen=True)
class RectGrid:
    """Identity chart over a rectangle in z = u + iv."""

    u0: float
    u1: float
    v0: float
    v1: float
    n_u: int = 64
    n_v: int = 64

    def __post_init__(self):
        if self.u1 <= self.u0 or self.v1 <= self.v0:
            raise ValueError("empty rectangle")
        if self.n_u < 2 or self.n_v < 2:
            raise ValueError("grid needs at least 2 nodes per direction")

    def chart_nodes(self):
        return (np.linspace(self.u0, self.u1, self.n_u),
                np.linspace(self.v0, self.v1, self.n_v))

    def points(self) -> np.ndarray:
        u, v = self.chart_nodes()
        return u[:, None] + 1j * v[None, :]

    def chart_jacobian(self, z) -> np.ndarray:
        return np.ones_like(np.abs(z))


def _grid_curvature(field: ImmersionField, grid) -> tuple:
    """Chart lambda, FD Gauss curvature K = -Lap(log lambda)/lambda^2,
    and the total curvature over the covered cells.

    The phi direction of a polar grid is periodic (the last column
    duplicates the first), so its second differences wrap and the total
    covers the full circle; radial edge rows copy the nearest interior
    value.
    """
    u, v = grid.chart_nodes()
    z = grid.points()
    lam = field.metric_factor(z.ravel()).reshape(z.shape) * grid.chart_jacobian(z)
    hu = u[1] - u[0]
    hv = v[1] - v[0]
    log_lam = np.log(np.maximum(lam, 1e-300))
    K = np.zeros_like(lam)
    if isinstance(grid, PolarGrid):
        g = log_lam[:, :-1]
        lam_d = lam[:, :-1]
        lap = ((g[2:, :] - 2 * g[1:-1, :] + g[:-2, :]) / hu ** 2
               + (np.roll(g, -1, axis=1)[1:-1, :] - 2 * g[1:-1, :]
                  + np.roll(g, 1, axis=1)[1:-1, :]) / hv ** 2)
        Kd = np.zeros_like(g)
        Kd[1:-1, :] = -lap / lam_d[1:-1, :] ** 2
        Kd[0, :] = Kd[1, :]
        Kd[-1, :] = Kd[-2, :]
        K[:, :-1] = Kd
        K[:, -1] = Kd[:, 0]
        total = float(np.sum(Kd[1:-1, :] * lam_d[1:-1, :] ** 2) * hu * hv)
    else:
        lap = ((log_lam[2:, 1:-1] - 2 * log_lam[1:-1, 1:-1] + log_lam[:-2, 1:-1]) / hu ** 2
               + (log_lam[1:-1, 2:] - 2 * log_lam[1:-1, 1:-1] + log_lam[1:-1, :-2]) / hv ** 2)
        K[1:-1, 1:-1] = -lap / lam[1:-1, 1:-1] ** 2
        K[0, :] = K[1, :]
        K[-1, :] = K[-2, :]
        K[:, 0] = K[:, 1]
        K[:, -1] = K[:, -2]
        total = float(np.sum(K[1:-1, 1:-1] * lam[1:-1, 1:-1] ** 2) * hu * hv)
    return lam, K, hu, hv, total


def curvature(field: ImmersionField, grid) -> dict:
    """Per-vertex conformal factor and Gauss curvature plus the total
    curvature over the truncation, with a Richardson error estimate from
    the half-resolution grid."""
    lam, K, hu, hv, total = _grid_curvature(field, grid)
    half = _half_resolution(grid)
    if half is not None:
        rich = abs(total - _grid_curvature(field, half)[4]) / 3.0
    else:
        rich = math.nan
    low = lam < LAMBDA_FLOOR
    return {"lambda": lam, "K": K, "total_curvature": total,
            "richardson_error": rich, "max_K": float(np.max(K)),
            "curvature_band": CURVATURE_BAND,
            "min_lambda": float(np.min(lam)),
            "branch_point_suspects": int(np.sum(low))}


def _half_resolution(grid):
    if isinstance(grid, PolarGrid):
        if grid.n_r < 7 or grid.n_phi < 7:
            return None
        return PolarGrid(grid.r_in, grid.r_out,
                         (grid.n_r + 1) // 2, (grid.n_phi + 1) // 2)
    if isinstance(grid, RectGrid):
        if grid.n_u < 7 or grid.n_v < 7:
            return None
        return RectGrid(grid.u0, grid.u1, grid.v0, grid.v1,
                        (grid.n_u + 1) // 2, (grid.n_v + 1) // 2)
    return None


# ---------------------------------------------------------------------------
# completeness probe


def completeness_probe(field_or_metric, end: complex = 0j, rays=(0.0,),
                       d_start: float = 0.5, stages: int = 12,
                       outward: bool = False) -> dict:
    """Dyadic length table toward an end.

    Stage j integrates lambda |dz| over the j-th dyadic piece of each
    ray.  When the last four stage lengths decay by less than the factor
    0.85 the sum cannot be geometric and the verdict is "diverging";
    otherwise "finite length".  `outward` probes an end at infinity.
    """
    metric = (field_or_metric.metric_factor
              if hasattr(field_or_metric, "metric_factor") else field_or_metric)
    end = complex(end)
    table = {}
    verdicts = []
    for ray in rays:
        direction = cmath.exp(1j * float(ray))
        lengths = []
        for j in range(stages):
            if outward:
                d0, d1 = d_start * 2.0 ** j, d_start * 2.0 ** (j + 1)
            else:
                d0, d1 = d_start * 2.0 ** (-j), d_start * 2.0 ** (-j - 1)
            z0 = end + d0 * direction
            z1 = end + d1 * direction

            def h(s, z0=z0, z1=z1):
                z = z0 + (z1 - z0) * s
                lam = np.asarray(metric(z), dtype=float)
                return lam[None, :] * abs(z1 - z0)

            lengths.append(float(integrate_vector(h, tol=1e-10)[0]))
        ratios = [lengths[j + 1] / lengths[j] for j in range(len(lengths) - 1)]
        tail = ratios[-4:]
        diverging = all(r >= _DECAY_RATIO for r in tail)
        verdicts.append(diverging)
        table[float(ray)] = {"stage_lengths": lengths, "tail_ratios": tail,
                             "verdict": "diverging" if diverging else "finite length"}
    overall = "diverging" if all(verdicts) else \
        ("finite length" if not any(verdicts) else "mixed")
    return {"end": [end.real, end.imag], "rays": table, "verdict": overall,
            "stages": stages, "decay_ratio": _DECAY_RATIO}


# ---------------------------------------------------------------------------
# null curve


def null_curve(field: ImmersionField, n_samples: int = 32, seed: int = 13) -> dict:
    """The holomorphic lift H = (v + 0i) + integral of f theta.

    H shares the immersion's cached integrals, so Re H reproduces F
    identically; the reported residual is still measured, together with
    an independent two-path check.  Nonzero loop flux makes H
    multivalued and is reported as an obstruction, not an error.
    """
    data = field.data
    z = sample_domain_points(data.domain, n_samples, seed)
    re_res = 0.0
    for zz in z:
        H = field.evaluate_complex(zz)
        F = field.evaluate(zz)
        re_res = max(re_res, float(np.max(np.abs(H.real - F))))
    path_res = field.two_path_residual(complex(z[0]))
    flux = {}
    obstructed = False
    try:
        ps = build_path_system(data.domain, data.domain_action, data.basepoint)
    except (PathError, DomainError):
        ps = None
    if ps is not None and ps.loops:
        periods = compute_periods(data, ps)
        for e in ps.loops:
            fl = periods.loop(e.key).imag
            flux[e.key] = fl
            if np.max(np.abs(fl)) > FLUX_OBSTRUCTION_TOL:
                obstructed = True
    return {"H0": field.v.astype(complex), "evaluate": field.evaluate_complex,
            "re_residual": re_res, "path_residual": path_res,
            "flux": flux, "flux_obstruction": obstructed,
            "tolerance": FLUX_OBSTRUCTION_TOL, "samples": int(n_samples)}


# ---------------------------------------------------------------------------
# meshing and export


@dataclass(frozen=True, eq=False)
class SurfaceMesh:
    vertices: np.ndarray          # (N, 3)
    faces: np.ndarray             # (M, 4) int quads
    lam: np.ndarray               # (N,)
    K: np.ndarray                 # (N,)

    def __post_init__(self):
        if not np.all(np.isfinite(self.vertices)):
            raise SurfaceError("mesh has nonfinite vertices")
        if not np.all(self.lam > 0):
            raise SurfaceError("conformal factor must be positive at vertices")


def build_mesh(field: ImmersionField, grid) -> SurfaceMesh:
    """Quad mesh over the chart grid; vertex F values are accumulated
    row by row so every vertex costs one short quadrature segment."""
    if field.data.dim != 3:
        raise SurfaceError("mesh export expects surfaces in R^3")
    z = grid.points()
    n_rows, n_cols = z.shape
    verts = np.empty((n_rows, n_cols, 3), dtype=float)
    for i in range(n_rows):
        row_start = complex(z[i, 0])
        I = field.integral_to(row_start)
        verts[i, 0] = field.v + I.real
        for j in range(1, n_cols):
            I = I + integrate_form(field.data,
                                   Segment(complex(z[i, j - 1]), complex(z[i, j]))
                                   if not isinstance(grid, PolarGrid) else
                                   CircularArc(0j, abs(z[i, j]),
                                               cmath.phase(z[i, 0]) + (j - 1) * _phi_step(grid),
                                               cmath.phase(z[i, 0]) + j * _phi_step(grid)),
                                   tol=field.tol)
            verts[i, j] = field.v + I.real
    lam, K = _grid_curvature(field, grid)[:2]
    faces = []
    for i in range(n_rows - 1):
        for j in range(n_cols - 1):
            a = i * n_cols + j
            faces.append((a, a + 1, a + n_cols + 1, a + n_cols))
    return SurfaceMesh(vertices=verts.reshape(-1, 3),
                       faces=np.asarray(faces, dtype=int),
                       lam=lam.reshape(-1), K=K.reshape(-1))


def _phi_step(grid: PolarGrid) -> float:
    return 2 * math.pi / (grid.n_phi - 1)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def mesh_to_obj(mesh: SurfaceMesh) -> str:
    lines = [f"v {_fmt(p[0])} {_fmt(p[1])} {_fmt(p[2])}" for p in mesh.vertices]
    lines += ["f " + " ".join(str(i + 1) for i in q) for q in mesh.faces]
    return "\n".join(lines) + "\n"


def mesh_to_ply(mesh: SurfaceMesh) -> str:
    head = [
        "ply", "format ascii 1.0",
        f"element vertex {len(mesh.vertices)}",
        "property double x", "property double y", "property double z",
        "property double lambda", "property double curvature",
        f"element face {len(mesh.faces)}",
        "property list uchar int vertex_indices",
        "end_header",
    ]
    body = [
        " ".join(_fmt(val) for val in (*p, l, k))
        for p, l, k in zip(mesh.vertices, mesh.lam, mesh.K)
    ]
    body += ["4 " + " ".join(str(i) for i in q) for q in mesh.faces]
    return "\n".join(head + body) + "\n"


def mesh_export(field: ImmersionField, grid, out_dir, stem: str = "surface") -> dict:
    """Write OBJ, PLY, and a sidecar diagnostics JSON; returns the mesh
    plus per-file SHA-256 of the byte-deterministic outputs."""
    import os
    mesh = build_mesh(field, grid)
    os.makedirs(out_dir, exist_ok=True)
    files = {}
    for name, text in ((f"{stem}.obj", mesh_to_obj(mesh)),
                       (f"{stem}.ply", mesh_to_ply(mesh))):
        path = os.path.join(out_dir, name)
        data = text.encode()
        with open(path, "wb") as fh:
            fh.write(data)
        files[name] = hashlib.sha256(data).hexdigest()
    sidecar = {
        "schema": "equimin/1",
        "vertices": int(len(mesh.vertices)),
        "faces": int(len(mesh.faces)),
        "min_lambda": float(np.min(mesh.lam)),
        "max_K": float(np.max(mesh.K)),
        "curvature_band": CURVATURE_BAND,
        "files": files,
    }
    side_path = os.path.join(out_dir, f"{stem}.diag.json")
    side_bytes = json.dumps(sidecar, sort_keys=True, indent=2).encode() + b"\n"
    with open(side_path, "wb") as fh:
        fh.write(side_bytes)
    files[f"{stem}.diag.json"] = hashlib.sha256(side_bytes).hexdigest()
    return {"mesh": mesh, "files": files, "sidecar": sidecar}
