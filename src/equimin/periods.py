"""Path integrals of the surface integrand and the period conditions.

Integration is adaptive Gauss-Kronrod 7/15 with deterministic
worst-interval bisection, so repeated runs produce identical digits.
Periods over loops must have vanishing real part; periods over group
connectors must match the motion applied to the base value.  Imaginary
loop parts are the flux, optionally pinned to a target.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .domain import PathSystem, PathError, min_distance

QUAD_TOL = 1e-11         # absolute tolerance per path integral
MAX_INTERVALS = 4096
POLE_MARGIN = 1e-3       # paths must keep this distance from poles
RESIDUE_AGREE_TOL = 1e-9


class QuadratureError(RuntimeError):
    """Raised when an integral cannot reach the requested tolerance."""


# Kronrod 15 / Gauss 7 nodes and weights (positive half).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

GK_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
GK_WEIGHTS = np.concatenate([_WGK[:-1], _WGK[::-1]])
G_WEIGHTS = np.zeros(15)
G_WEIGHTS[[1, 13]] = _WG[0]
G_WEIGHTS[[3, 11]] = _WG[1]
G_WEIGHTS[[5, 9]] = _WG[2]
G_WEIGHTS[7] = _WG[3]


def _gk_panel(h, a: float, b: float):
    """15-point Kronrod value and |K15 - G7| error bound on [a, b]."""
    half = 0.5 * (b - a)
    s = 0.5 * (a + b) + half * GK_NODES
    vals = np.atleast_2d(h(s))
    k15 = half * (vals @ GK_WEIGHTS)
    g7 = half * (vals @ G_WEIGHTS)
    return k15, float(np.max(np.abs(k15 - g7)))


def integrate_vector(h, tol: float = QUAD_TOL,
                     max_intervals: int = MAX_INTERVALS) -> np.ndarray:
    """Integrate a vectorised map h: [0,1] -> C^n adaptively.

    The worst interval (by error bound, ties broken by insertion order)
    is bisected until the summed bound drops below tol.
    """
    val, err = _gk_panel(h, 0.0, 1.0)
    heap = [(-err, 0, 0.0, 1.0, val, err)]
    counter = 1
    total_err = err
    while total_err > tol:
        if len(heap) >= max_intervals:
            raise QuadratureError(
                f"residual error {total_err:.3e} after {len(heap)} intervals")
        _, _, a, b, v, e = heapq.heappop(heap)
        total_err -= e
        mid = 0.5 * (a + b)
        v1, e1 = _gk_panel(h, a, mid)
        v2, e2 = _gk_panel(h, mid, b)
        heapq.heappush(heap, (-e1, counter, a, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, b, v2, e2))
        counter += 2
        total_err += e1 + e2
    return sum(item[4] for item in heap)


def integrate_form(data, path, tol: float = QUAD_TOL) -> np.ndarray:
    """Integral of the surface integrand along a path.

    `data` needs a vectorised f_theta(z) and pole_points(); the path
    must clear every pole by POLE_MARGIN (checked up front).
    """
    poles = data.pole_points()
    if poles:
        d = min_distance(path, poles)
        if d < POLE_MARGIN:
            raise PathError(f"path approaches a pole to within {d:.2e}")
    pieces = list(path.pieces())
    total = None
    for piece in pieces:
        def h(s, piece=piece):
            z = piece.point(s)
            return data.f_theta(z) * piece.velocity(s)
        val = integrate_vector(h, tol=tol / max(1, len(pieces)))
        total = val if total is None else total + val
    return total


def residue_at_puncture(data, p: complex, radius: float,
                        tol: float = QUAD_TOL) -> np.ndarray:
    """Residue vector of the integrand at a puncture, cross-checked on
    two circles; disagreement means the radius hit another singularity."""
    from .domain import circle
    out = []
    for r in (radius, 0.5 * radius):
        loop = circle(complex(p), r)
        out.append(integrate_form(data, loop, tol=tol) / (2j * math.pi))
    if np.max(np.abs(out[0] - out[1])) > RESIDUE_AGREE_TOL * max(
            1.0, float(np.max(np.abs(out[0])))):
        raise QuadratureError(
            f"residue at {p} depends on the circle radius: {out[0]} vs {out[1]}")
    return out[0]


# ---------------------------------------------------------------------------
# period vectors and conditions


@dataclass(frozen=True)
class PeriodVector:
    """Complex periods over the representative loops and connectors."""

    loops: dict
    connectors: dict

    def loop(self, key: str) -> np.ndarray:
        return self.loops[key]

    def connector(self, key: str) -> np.ndarray:
        return self.connectors[key]


def compute_periods(data, paths: PathSystem, tol: float = QUAD_TOL) -> PeriodVector:
    loops = {e.key: integrate_form(data, e.path, tol=tol) for e in paths.loops}
    conns = {e.key: integrate_form(data, e.path, tol=tol) for e in paths.connectors}
    return PeriodVector(loops=loops, connectors=conns)


def orbit_loop_periods(data, paths: PathSystem, periods: PeriodVector) -> dict:
    """Periods over every loop in each orbit, derived from the
    representative by applying the motion differentials."""
    out = {}
    for entry in paths.loops:
        base = periods.loop(entry.key)
        for g in entry.orbit_elements:
            dg = data.differential(g)
            out[(entry.key, g)] = dg @ base
    return out


def translate_identity_residual(data, path, tol: float = QUAD_TOL) -> float:
    """Directly checks that integrating over a translated path equals the
    motion differential applied to the original integral, for every
    generator.  This ties the domain action to the space action through
    the integrand itself."""
    base = integrate_form(data, path, tol=tol)
    act = data.domain_action
    worst = 0.0
    for pos, gi in enumerate(act.generator_indices()):
        moved = act.translate_path(path, gi if act.is_finite else pos)
        direct = integrate_form(data, moved, tol=tol)
        if act.is_finite:
            dg = data.differential(gi)
        else:
            dg = data.space_action.generator_motion(pos).linear()
        worst = max(worst, float(np.max(np.abs(direct - dg @ base))))
    return worst


@dataclass(frozen=True)
class PeriodTarget:
    """Optional imaginary-part (flux) targets keyed by loop."""

    flux: dict = field(default_factory=dict)

    def validated(self, data, paths: PathSystem, tol: float = 1e-9) -> "PeriodTarget":
        """Reject flux targets outside the fixed space of the loop's
        stabiliser; equivariance forces the period into that subspace."""
        keys = {e.key: e for e in paths.loops}
        for key, vec in self.flux.items():
            if key not in keys:
                raise KeyError(f"no loop named {key!r}")
            entry = keys[key]
            vec = np.asarray(vec, dtype=float)
            if vec.shape != (data.dim,):
                raise ValueError(f"flux target for {key!r} has wrong shape")
            if entry.stabiliser_generator is not None:
                dh = data.differential(entry.stabiliser_generator)
                drift = np.max(np.abs(dh @ vec - vec))
                if drift > tol * max(1.0, float(np.max(np.abs(vec)))):
                    raise ValueError(
                        f"flux target for {key!r} is not fixed by the loop's "
                        f"stabiliser (moves by {drift:.2e})")
        return PeriodTarget(flux={k: np.asarray(v, dtype=float)
                                  for k, v in self.flux.items()})


def period_residuals(data, paths: PathSystem, periods: PeriodVector,
                     target: PeriodTarget | None = None,
                     v: np.ndarray | None = None) -> dict:
    """Max-norm residuals of the closing conditions.

    real_period_residual: Re of every loop period (orbit translates
    included, via the derived periods).
    orbit_closure_residual: group connectors must match g v - v.
    marked_residual: marked connectors must match the pinned value.
    flux_residual: Im of targeted loops against their targets.
    """
    v = data.v if v is None else np.asarray(v, dtype=float)
    real_res = 0.0
    derived = orbit_loop_periods(data, paths, periods)
    for P in derived.values():
        real_res = max(real_res, float(np.max(np.abs(P.real))))
    orbit_res = 0.0
    marked_res = 0.0
    for entry in paths.connectors:
        P = periods.connector(entry.key)
        if entry.kind == "group":
            motion = data.space_action.generator_motion(entry.generator)
            gap = (motion.apply(v) - v) - P.real
            orbit_res = max(orbit_res, float(np.max(np.abs(gap))))
        else:
            want = np.asarray(entry.marked_value, dtype=float) - v
            marked_res = max(marked_res, float(np.max(np.abs(P.real - want))))
    flux_res = 0.0
    if target is not None:
        for key, want in target.flux.items():
            P = periods.loop(key)
            flux_res = max(flux_res, float(np.max(np.abs(P.imag - want))))
    return {
        "real_period_residual": real_res,
        "orbit_closure_residual": orbit_res,
        "marked_residual": marked_res,
        "flux_residual": flux_res,
    }


def flux_vector(period: np.ndarray) -> np.ndarray:
    """Imaginary part of a loop period; the translational obstruction to
    lifting the surface to a null curve."""
    return np.asarray(period).imag.copy()
