"""Feasibility gate, period-dominating sprays, and the Newton correction.

Deformations act multiplicatively through null-quadric-preserving flows
weighted by smooth bumps along the integration paths.  Each bump is
extended over the group translates of its path by conjugating the flow
with the motion differentials; the translate supports are kept pairwise
disjoint, so every deformed map is exactly equivariant and exactly
null.  Flux targets additionally switch on global slots taken from
flows that commute with the whole space action; those keep the data
meromorphic, matching the fact that flux control rescales the data
rather than bending it locally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from .symgroup import PlaneRotationCertificate, Infeasible, find_invariant_rotation_plane
from .domain import (PathSystem, ConnectorEntry, fixed_point_set, path_samples,
                     route_radial_angular)
from .nullgeom import QuadricFlowGenerator, flow, standard_generators
from .wdata import WeierstrassData, cancellation_check
from .periods import (integrate_form, PeriodVector, PeriodTarget,
                      period_residuals)

SIGMA_TOL = 1e-6          # period-domination gate on the t-Jacobian
SNAP_TOL = 1e-6           # relative floor below which slot coefficients snap to 0
SUPPORT_FRACTION = 0.35   # bump radius as a fraction of the free gap
SPRAY_BALL = 0.5          # parameter ball on which spray invariants are sampled
NEWTON_BALL = 4.0         # Newton may wander this far in ||t||_2
BUMP_PENALTY = 1e4        # min-norm weighting: prefer global slots when present
FD_STEP = 1e-6            # central-difference step of the period Jacobian
DAMPING = 0.5             # line-search step shrink factor
_CENTER_PARAMS = (0.31, 0.11, 0.51, 0.71, 0.91)
_TRANSLATE_WINDOW = 8     # generator powers considered for infinite groups


class SprayError(RuntimeError):
    """Raised when no period-dominating spray can be built."""


class NewtonError(RuntimeError):
    """Raised when the correction step cannot converge."""

    def __init__(self, message, history=None):
        super().__init__(message)
        self.history = list(history or [])


# ---------------------------------------------------------------------------
# feasibility


@dataclass(frozen=True)
class FeasibilityReport:
    """Per fixed point: the rotation-plane certificate or the obstruction."""

    entries: tuple            # (FixedPointRecord, certificate or Infeasible)

    @property
    def feasible(self) -> bool:
        return all(isinstance(c, PlaneRotationCertificate) for _, c in self.entries)

    @property
    def certificates(self) -> tuple:
        return tuple(c for _, c in self.entries
                     if isinstance(c, PlaneRotationCertificate))

    @property
    def failures(self) -> tuple:
        return tuple((r, c) for r, c in self.entries if isinstance(c, Infeasible))

    def to_json(self) -> dict:
        rows = []
        for rec, c in self.entries:
            row = {"point": [rec.point.real, rec.point.imag],
                   "stabiliser_order": rec.order}
            if isinstance(c, PlaneRotationCertificate):
                row["certificate"] = {"angle": c.angle, "element": c.element_index}
            else:
                row["infeasible"] = {"reason": c.reason,
                                     "eigenvalues": [[ev.real, ev.imag]
                                                     for ev in c.eigenvalues]}
            rows.append(row)
        return {"feasible": self.feasible, "fixed_points": rows}


def feasibility_check(domain_action, space_action) -> FeasibilityReport:
    """Test each interior fixed point's stabiliser for an invariant
    rotation plane with the matching angle.  Free actions pass with an
    empty certificate list."""
    fixed = fixed_point_set(domain_action.domain, domain_action)
    entries = []
    for rec in fixed:
        res = find_invariant_rotation_plane(space_action, rec.generator, rec.order)
        entries.append((rec, res))
    return FeasibilityReport(entries=tuple(entries))


# ---------------------------------------------------------------------------
# bump-weighted deformations


def mollifier(rho):
    """Standard bump: exp(1 - 1/(1 - rho^2)) inside |rho| < 1, zero outside."""
    rho = np.asarray(rho, dtype=float)
    out = np.zeros_like(rho)
    inside = np.abs(rho) < 1.0
    r2 = rho[inside] ** 2
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2))
    return out


@dataclass(frozen=True, eq=False)
class Slot:
    """One deformation parameter: a quadric flow applied through a bump
    at `center` (conjugation-extended over `translates`), or globally
    when `global_` is set."""

    key: str
    path_key: str | None
    generator: QuadricFlowGenerator
    center: complex = 0j
    radius: float = 0.0
    global_: bool = False
    translates: tuple = ()        # ((differential matrix, translated center), ...)


class DeformedMap:
    """Core map composed with the slots' flows at parameter t.

    Outside every bump support the values equal the core exactly; inside,
    the flow angle is t_j * w(z) conjugated by the translate's motion
    differential.  Exposes the callable/pole interface Weierstrass data
    expects from a map.
    """

    def __init__(self, base_map, slots, t):
        self.base_map = base_map
        self.slots = tuple(slots)
        self.t = np.asarray(t, dtype=complex)
        if self.t.shape != (len(self.slots),):
            raise ValueError("one parameter per slot required")

    def __call__(self, z):
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        zz = np.atleast_1d(z).ravel()
        vals = np.array(self.base_map(zz), dtype=complex)
        for slot, tj in zip(self.slots, self.t):
            if tj == 0:
                continue
            if slot.global_:
                vals = flow(slot.generator, tj, vals)
                continue
            for A, c in slot.translates:
                mask = np.abs(zz - c) < slot.radius
                if not np.any(mask):
                    continue
                w = mollifier(np.abs(zz[mask] - c) / slot.radius)
                y = np.linalg.solve(A, vals[:, mask])
                y = flow(slot.generator, tj * w, y)
                vals[:, mask] = A @ y
        if scalar:
            return vals[:, 0]
        return vals.reshape((vals.shape[0],) + np.atleast_1d(z).shape)

    def pole_records(self):
        rec = getattr(self.base_map, "pole_records", None)
        return rec() if rec is not None else []


def _orbit_translates(core: WeierstrassData, center: complex) -> tuple:
    act = core.domain_action
    if act.is_finite:
        return tuple((core.differential(i), complex(act.apply(i, center)))
                     for i in range(act.group.order))
    if len(act.maps) != 1:
        raise SprayError("bump sprays support a single translation generator")
    out = []
    for k in range(-_TRANSLATE_WINDOW, _TRANSLATE_WINDOW + 1):
        a, b = act.map_power(0, k)
        dg = core.space_action.motion_power(0, k).linear()
        out.append((dg, a * center + b))
    return tuple(out)


def fixed_space_basis(M: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Orthonormal basis (columns) of the fixed space null(M - I)."""
    n = M.shape[0]
    _, s, VT = np.linalg.svd(M - np.eye(n))
    d = int(np.sum(s <= tol * max(1.0, float(s[0]) if len(s) else 1.0)))
    return VT[n - d:, :].T


# ---------------------------------------------------------------------------
# spray family


@dataclass(frozen=True, eq=False)
class SprayFamily:
    """Finite-parameter deformation family around a core dataset."""

    core: WeierstrassData
    paths: PathSystem
    slots: tuple

    @property
    def n_slots(self) -> int:
        return len(self.slots)

    def entries(self):
        """Ordered (kind, entry) pairs over loops then connectors."""
        out = [("loop", e) for e in self.paths.loops]
        out += [("conn", e) for e in self.paths.connectors]
        return out

    def data_at(self, t, v=None) -> WeierstrassData:
        t = np.asarray(t, dtype=complex)
        if self.n_slots == 0 or not np.any(t):
            return self.core if v is None else self.core.with_f(self.core.f, v=v)
        return self.core.with_f(DeformedMap(self.core.f, self.slots, t), v=v)

    def periods_at(self, t, keys=None) -> dict:
        data = self.data_at(t)
        return {e.key: integrate_form(data, e.path)
                for _, e in self.entries() if keys is None or e.key in keys}

    def dependencies(self) -> dict:
        """Slot index -> set of path keys whose periods it can move."""
        dep = {}
        for j, slot in enumerate(self.slots):
            if slot.global_:
                dep[j] = {e.key for _, e in self.entries()}
                continue
            keys = set()
            for _, e in self.entries():
                pts = path_samples(e.path, 256)
                for _, c in slot.translates:
                    if np.min(np.abs(pts - c)) < slot.radius * 1.05:
                        keys.add(e.key)
                        break
            dep[j] = keys
        return dep

    def jacobian_columns(self, t) -> dict:
        """d(period)/d(Re t_j) by central differences, as a dict
        path key -> (n, n_slots) complex block.  Periods depend
        holomorphically on t, so the Im t derivative is i times this."""
        t = np.asarray(t, dtype=complex)
        cols = {e.key: np.zeros((self.core.dim, self.n_slots), dtype=complex)
                for _, e in self.entries()}
        for j, keys in self.dependencies().items():
            if not keys:
                continue
            tp = t.copy(); tp[j] += FD_STEP
            tm = t.copy(); tm[j] -= FD_STEP
            Pp = self.periods_at(tp, keys=keys)
            Pm = self.periods_at(tm, keys=keys)
            for k in keys:
                cols[k][:, j] = (Pp[k] - Pm[k]) / (2 * FD_STEP)
        return cols

    def loop_bases(self) -> dict:
        """Loop key -> orthonormal basis of the stabiliser's fixed space
        (the subspace the loop period is confined to by equivariance)."""
        n = self.core.dim
        out = {}
        for e in self.paths.loops:
            if e.stabiliser_generator is None:
                out[e.key] = np.eye(n)
            else:
                dh = self.core.differential(e.stabiliser_generator)
                out[e.key] = fixed_space_basis(dh)
        return out


def _pick_bump_geometry(core: WeierstrassData, path, avoid) -> tuple:
    """Deterministically choose a bump center on the path and a radius
    keeping all group translates pairwise disjoint and clear of the
    avoided points."""
    best = None
    for s in _CENTER_PARAMS:
        c = complex(path.point(np.array([s]))[0])
        translates = _orbit_translates(core, c)
        centers = [tc for _, tc in translates]
        gaps = [abs(a - b) for i, a in enumerate(centers)
                for b in centers[i + 1:]]
        min_gap = min(gaps) if gaps else math.inf
        clearance = min((abs(c2 - q) for _, c2 in translates for q in avoid),
                        default=math.inf)
        radius = min(SUPPORT_FRACTION * min_gap, 0.7 * clearance)
        if not math.isfinite(radius):
            radius = 0.5
        if best is None or radius > best[2]:
            best = (c, translates, radius)
    c, translates, radius = best
    if radius < 4e-3:
        raise SprayError(f"no room for a bump near {c}")
    return c, translates, radius


def _candidate_column(core, slot, path):
    data_p = core.with_f(DeformedMap(core.f, [slot], [FD_STEP]))
    data_m = core.with_f(DeformedMap(core.f, [slot], [-FD_STEP]))
    Pp = integrate_form(data_p, path)
    Pm = integrate_form(data_m, path)
    return (Pp - Pm) / (2 * FD_STEP)


def _path_slots(core, key, path, avoid) -> list:
    """One bump on `path`, with the n flow generators whose finite-difference
    period columns rank first under pivoted QR."""
    c, translates, radius = _pick_bump_geometry(core, path, avoid)
    cands = [Slot(key=f"{key}:{gen.label()}", path_key=key, generator=gen,
                  center=c, radius=radius, translates=translates)
             for gen in standard_generators(core.dim)]
    cols = np.column_stack([_candidate_column(core, s, path) for s in cands])
    _, _, piv = scipy.linalg.qr(cols, pivoting=True)
    return [cands[j] for j in piv[:core.dim]]


def commutant_generators(core: WeierstrassData, tol: float = 1e-12) -> list:
    """Quadric flow generators commuting with every generator motion."""
    n = core.dim
    act = core.space_action
    mats = [act.generator_motion(i).linear()
            for i in range(len(act.generator_indices()) if not act.is_finite
                           else len(act.group.generators))]
    out = []
    for gen in standard_generators(n):
        G = gen.matrix(n)
        if all(np.max(np.abs(G @ M - M @ G)) <= tol for M in mats):
            out.append(gen)
    return out


def build_period_spray(core: WeierstrassData, paths: PathSystem,
                       flux_keys=()) -> SprayFamily:
    """Place bump slots on every loop and connector path.

    Per path: one bump, with flow generators ranked by pivoted QR of
    their finite-difference period columns; the first n survive.  A core
    whose image lies in a single null ray admits no independent period
    directions and is rejected.  Nonempty flux_keys add global slots
    from the commutant so flux corrections stay meromorphic.
    """
    rep = cancellation_check(core)
    if not rep.ok:
        raise SprayError(f"core fails the cancellation check: {rep.detail}")
    entries = [("loop", e) for e in paths.loops] + \
              [("conn", e) for e in paths.connectors]
    slots = []
    if entries:
        fixed = fixed_point_set(core.domain, core.domain_action)
        avoid = list(core.domain.punctures) + [r.point for r in fixed] + \
            core.pole_points()
        for kind, e in entries:
            samples = path_samples(e.path, 64)
            V = core.f_values(samples)
            sv = np.linalg.svd(V, compute_uv=False)
            if int(np.sum(sv > 1e-8 * sv[0])) < 2:
                raise SprayError(
                    "insufficient independent directions: core image along "
                    f"path {e.key} lies in a single null ray")
            slots.extend(_path_slots(core, e.key, e.path, avoid))
    for gen in (commutant_generators(core) if flux_keys else []):
        slots.append(Slot(key=f"global:{gen.label()}", path_key=None,
                          generator=gen, global_=True))
    return SprayFamily(core=core, paths=paths, slots=tuple(slots))


def validate_spray(spray: SprayFamily, ball: float = SPRAY_BALL,
                   n_samples: int = 3, seed: int = 23) -> dict:
    """Sample parameters in the ball and measure the spray invariants:
    pointwise nullity, map equivariance, and agreement with the core
    outside the bump supports (global slots are zeroed for the outside
    comparison since they deform everywhere)."""
    from .wdata import nullity_residual, equivariance_residual_f, sample_domain_points
    rng = np.random.default_rng(seed)
    pts = sample_domain_points(spray.core.domain, 128, seed=seed + 1)
    outside = np.ones(len(pts), dtype=bool)
    for slot in spray.slots:
        if slot.global_:
            continue
        for _, c in slot.translates:
            outside &= np.abs(pts - c) > slot.radius * 1.05
    report = {"nullity": 0.0, "equivariance": 0.0, "outside_support": 0.0}
    base_vals = spray.core.f_values(pts[outside])
    for _ in range(n_samples):
        t = rng.normal(size=spray.n_slots) + 1j * rng.normal(size=spray.n_slots)
        norm = np.linalg.norm(t)
        if norm > 0:
            t *= ball * rng.uniform(0.3, 1.0) / norm
        data_t = spray.data_at(t)
        report["nullity"] = max(report["nullity"], nullity_residual(data_t, pts))
        report["equivariance"] = max(report["equivariance"],
                                     equivariance_residual_f(data_t, 64, seed=seed))
        t_local = t.copy()
        for j, slot in enumerate(spray.slots):
            if slot.global_:
                t_local[j] = 0.0
        vals = spray.data_at(t_local).f_values(pts[outside])
        report["outside_support"] = max(report["outside_support"],
                                        float(np.max(np.abs(vals - base_vals)))
                                        if np.any(outside) else 0.0)
    return report


# ---------------------------------------------------------------------------
# period Jacobian


@dataclass(frozen=True, eq=False)
class PeriodJacobian:
    """Reduced complex derivative of the period map at a parameter point.

    Loop rows are projected onto the stabiliser's fixed space (where
    equivariance confines the loop periods); connector rows are kept in
    full.  sigma_min is the p-th singular value of the p-row matrix:
    positive means the period map is a submersion there.
    """

    matrix: np.ndarray
    row_labels: tuple
    col_labels: tuple
    sigma: np.ndarray
    duplicates: tuple

    @property
    def sigma_min(self) -> float:
        p = self.matrix.shape[0]
        if p == 0:
            return math.inf
        if p > len(self.sigma) or p > self.matrix.shape[1]:
            return 0.0
        return float(self.sigma[p - 1])


def period_jacobian(spray: SprayFamily, t=None) -> PeriodJacobian:
    t = np.zeros(spray.n_slots, dtype=complex) if t is None else \
        np.asarray(t, dtype=complex)
    cols = spray.jacobian_columns(t)
    bases = spray.loop_bases()
    rows = []
    labels = []
    for kind, e in spray.entries():
        block = cols[e.key]
        if kind == "loop":
            B = bases[e.key]
            block = B.T @ block
            labels += [f"{e.key}[{i}]" for i in range(B.shape[1])]
        else:
            labels += [f"{e.key}[{i}]" for i in range(block.shape[0])]
        rows.append(block)
    J = np.vstack(rows) if rows else np.zeros((0, spray.n_slots), dtype=complex)
    sigma = np.linalg.svd(J, compute_uv=False) if J.size else np.array([])
    dups = []
    for i in range(J.shape[1]):
        for j in range(i + 1, J.shape[1]):
            scale = max(1.0, float(np.max(np.abs(J[:, i]))))
            if np.max(np.abs(J[:, i] - J[:, j])) <= 1e-10 * scale:
                dups.append((spray.slots[i].key, spray.slots[j].key))
    return PeriodJacobian(matrix=J, row_labels=tuple(labels),
                          col_labels=tuple(s.key for s in spray.slots),
                          sigma=sigma, duplicates=tuple(dups))


# ---------------------------------------------------------------------------
# Newton correction


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-10
    max_iters: int = 25

    def __post_init__(self):
        for name in ("tol", "max_iters"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")


@dataclass(frozen=True, eq=False)
class NewtonResult:
    t: np.ndarray
    v: np.ndarray
    data: WeierstrassData
    iterations: int
    converged: bool
    residual_history: tuple
    residuals: dict
    sigma_min: float


def _row_plan(spray: SprayFamily, target: PeriodTarget | None) -> list:
    """Row descriptors of the real correction system."""
    bases = spray.loop_bases()
    plan = []
    flux = target.flux if target is not None else {}
    for e in spray.paths.loops:
        B = bases[e.key]
        if B.shape[1]:
            plan.append(("loop_re", e.key, B, None))
            if e.key in flux:
                plan.append(("loop_flux", e.key, B, np.asarray(flux[e.key])))
    for e in spray.paths.connectors:
        if e.kind == "group":
            motion = spray.core.space_action.generator_motion(e.generator)
            plan.append(("conn", e.key, motion, None))
        else:
            plan.append(("marked", e.key, None,
                         np.asarray(e.marked_value, dtype=float)))
    return plan


def _residual_vector(plan, periods: dict, v: np.ndarray) -> np.ndarray:
    parts = []
    for kind, key, aux, extra in plan:
        P = periods[key]
        if kind == "loop_re":
            parts.append(aux.T @ P.real)
        elif kind == "loop_flux":
            parts.append(aux.T @ (P.imag - extra))
        elif kind == "conn":
            parts.append((aux.apply(v) - v) - P.real)
        else:
            parts.append(P.real - (extra - v))
    return np.concatenate(parts) if parts else np.zeros(0)


def _jacobian_matrix(plan, cols: dict, n: int, m: int) -> np.ndarray:
    blocks = []
    I = np.eye(n)
    for kind, key, aux, extra in plan:
        C = cols[key]
        if kind == "loop_re":
            blocks.append(np.hstack([aux.T @ C.real, -(aux.T @ C.imag),
                                     np.zeros((aux.shape[1], n))]))
        elif kind == "loop_flux":
            blocks.append(np.hstack([aux.T @ C.imag, aux.T @ C.real,
                                     np.zeros((aux.shape[1], n))]))
        elif kind == "conn":
            dv = aux.r * aux.O - I
            blocks.append(np.hstack([-C.real, C.imag, dv]))
        else:
            blocks.append(np.hstack([C.real, -C.imag, I]))
    return np.vstack(blocks) if blocks else np.zeros((0, 2 * m + n))


def newton_correct(spray: SprayFamily, target: PeriodTarget | None = None,
                   config: NewtonConfig | None = None,
                   t_init=None, v_init=None) -> NewtonResult:
    """Damped Gauss-Newton on the closing conditions.

    Unknowns are the slot parameters (real and imaginary parts) and the
    base value v.  Loop rows are reduced to the stabiliser-fixed
    subspace; the final residual report is computed unreduced, so any
    component the reduction discarded would still surface there.
    """
    cfg = config or NewtonConfig()
    core = spray.core
    n = core.dim
    m = spray.n_slots
    if target is not None:
        target = target.validated(core, spray.paths)
    jac0 = period_jacobian(spray)
    if jac0.sigma_min < SIGMA_TOL:
        raise NewtonError(
            f"period domination failed: smallest singular value "
            f"{jac0.sigma_min:.3e} below {SIGMA_TOL:g}"
            + (f"; duplicate slots {jac0.duplicates}" if jac0.duplicates else ""))

    t = np.zeros(m, dtype=complex) if t_init is None else \
        np.asarray(t_init, dtype=complex).copy()
    v = core.v.copy() if v_init is None else np.asarray(v_init, dtype=float).copy()
    plan = _row_plan(spray, target)

    col_weight = np.ones(2 * m + n)
    if any(s.global_ for s in spray.slots):
        for j, slot in enumerate(spray.slots):
            if not slot.global_:
                col_weight[j] = col_weight[m + j] = 1.0 / BUMP_PENALTY

    periods = spray.periods_at(t)
    r = _residual_vector(plan, periods, v)
    history = [float(np.max(np.abs(r))) if r.size else 0.0]
    iterations = 0

    def descend(t, v, periods, r):
        nonlocal iterations
        while history[-1] > cfg.tol:
            if iterations >= cfg.max_iters:
                raise NewtonError(f"no convergence in {cfg.max_iters} iterations "
                                  f"(residual {history[-1]:.3e})", history)
            cols = spray.jacobian_columns(t)
            J = _jacobian_matrix(plan, cols, n, m)
            Jw = J * col_weight[None, :]
            y, *_ = np.linalg.lstsq(Jw, -r, rcond=None)
            delta = y * col_weight
            norm_r = float(np.linalg.norm(r))
            alpha = 1.0
            accepted = False
            for _ in range(9):
                t_new = t + alpha * (delta[:m] + 1j * delta[m:2 * m])
                v_new = v + alpha * delta[2 * m:]
                periods_new = spray.periods_at(t_new)
                r_new = _residual_vector(plan, periods_new, v_new)
                if float(np.linalg.norm(r_new)) < norm_r:
                    accepted = True
                    break
                alpha *= DAMPING
            if not accepted:
                raise NewtonError("step stalled: no damping factor reduced the "
                                  "residual", history)
            t, v, r, periods = t_new, v_new, r_new, periods_new
            if float(np.linalg.norm(t)) > NEWTON_BALL:
                raise NewtonError(f"parameter left the validity ball "
                                  f"(||t|| = {np.linalg.norm(t):.3f})", history)
            history.append(float(np.max(np.abs(r))) if r.size else 0.0)
            iterations += 1
        return t, v, periods, r

    t, v, periods, r = descend(t, v, periods, r)

    # Snap negligible bump coefficients to zero and reconverge: residual
    # junk in a bump coefficient makes the integrand non-holomorphic, so
    # loop periods pick up a radius dependence of that size.  Global
    # slots stay holomorphic and are left alone.  The column weighting
    # keeps the resumed steps from repopulating the bumps, so a couple
    # of rounds reach an exactly-sparse solution; if a resume ever
    # fails, the last converged state is restored.
    is_bump = np.array([not s.global_ for s in spray.slots], dtype=bool) \
        if m else np.zeros(0, dtype=bool)
    for _ in range(3):
        scale = max(1.0, float(np.max(np.abs(t), initial=0.0)))
        snap = (np.abs(t) < SNAP_TOL * scale) & is_bump
        if not np.any(snap & (t != 0)):
            break
        best = (t, v, periods, r)
        t_try = np.where(snap, 0.0, t)
        periods_try = spray.periods_at(t_try)
        r_try = _residual_vector(plan, periods_try, v)
        history.append(float(np.max(np.abs(r_try))) if r_try.size else 0.0)
        t, periods, r = t_try, periods_try, r_try
        if history[-1] <= cfg.tol:
            break
        try:
            t, v, periods, r = descend(t, v, periods, r)
        except NewtonError:
            t, v, periods, r = best
            history.append(float(np.max(np.abs(r))) if r.size else 0.0)
            break

    if float(np.linalg.norm(t)) < 1e-14 and np.allclose(v, core.v):
        data = core
    else:
        data = spray.data_at(t, v=v)
    pv = PeriodVector(loops={e.key: periods[e.key] for e in spray.paths.loops},
                      connectors={e.key: periods[e.key]
                                  for e in spray.paths.connectors})
    res = period_residuals(data, spray.paths, pv, target=target, v=v)
    return NewtonResult(t=t, v=v, data=data, iterations=iterations,
                        converged=True, residual_history=tuple(history),
                        residuals=res, sigma_min=jac0.sigma_min)


# ---------------------------------------------------------------------------
# value interpolation


def interpolate_values(spray: SprayFamily, marked_points, values,
                       target: PeriodTarget | None = None):
    """Pin surface values at marked points by adding marked connectors.

    Points falling in one group orbit must carry compatible values
    (value at g x equal to the motion applied to the value at x); the
    connector is attached to the first representative of each orbit.
    Returns the augmented spray and the (unchanged) target.
    """
    marked_points = [complex(p) for p in marked_points]
    values = [np.asarray(val, dtype=float) for val in values]
    if len(marked_points) != len(values):
        raise ValueError("one value per marked point required")
    if not marked_points:
        return spray, target
    core = spray.core
    act = core.domain_action
    used = [False] * len(marked_points)
    reps = []
    for i, p in enumerate(marked_points):
        if used[i]:
            continue
        used[i] = True
        reps.append((p, values[i]))
        for g, (a, b) in act.element_maps():
            img = a * p + b
            for j, q in enumerate(marked_points):
                if j == i or used[j] or abs(img - q) > 1e-9:
                    continue
                if act.is_finite:
                    motion = core.space_action.motion(g)
                else:
                    motion = core.space_action.motion_power(g[0], g[1])
                want = motion.apply(values[i])
                if np.max(np.abs(want - values[j])) > 1e-9:
                    raise ValueError(
                        f"values at {p} and {q} are inconsistent with the "
                        f"group action: expected {want}, got {values[j]}")
                used[j] = True
    fixed = fixed_point_set(core.domain, act)
    avoid = list(core.domain.punctures) + [r.point for r in fixed] + \
        core.pole_points()
    new_connectors = list(spray.paths.connectors)
    new_slots = list(spray.slots)
    for idx, (p, val) in enumerate(reps):
        path = route_radial_angular(spray.paths.basepoint, p, avoid=avoid,
                                    margin=spray.paths.margin)
        key = f"mark:{idx}"
        new_connectors.append(ConnectorEntry(key=key, path=path, generator=None,
                                             kind="marked", marked_point=p,
                                             marked_value=tuple(val)))
        new_slots.extend(_path_slots(core, key, path, avoid))
    new_paths = replace(spray.paths, connectors=tuple(new_connectors))
    new_spray = SprayFamily(core=core, paths=new_paths, slots=tuple(new_slots))
    return new_spray, target
