"""Feasibility gate, period-dominating sprays, and the Newton correction.

A spray deforms the core map as f_t = prod_j exp(t_j h_j(z) E_j) f with
E_j in so(n, C) (or the identity, for scaling) and h_j holomorphic, so f_t
is exactly null and f_t theta holomorphic: the surface is harmonic and
path independent.  E_j is an Ad(dg) eigenvector and h_j has the matching
character, h_j(g z) E_j = dg h_j(z) E_j dg^-1, so f_t is equivariant under
every group element.  Constant slots (h = 1) flow along generators that
commute with the action, the López-Ros deformations (J. Differential
Geom. 33, 1991).  Root slots pair a nilpotent root vector of a commuting
rotation (L_x +- i L_y for L_z) with h = z^p, a^p = lambda, for a domain
rotation z -> a z, or h = e^{pz}, e^{pb} = lambda, for a translation
z -> z + b; exp(t h E) is a finite Taylor sum.  Semisimple directions
get constant h only, since exp(t h E) then grows exponentially in h.
Slots are kept, lowest |p| first, while they raise the rank of the
reduced period Jacobian: the period-dominating sprays of Alarcón,
Forstnerič and López, *Minimal Surfaces from a Complex Analytic
Viewpoint* (Springer, 2021).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .symgroup import PlaneRotationCertificate, Infeasible, find_invariant_rotation_plane
from .domain import (PathSystem, ConnectorEntry, circle, fixed_point_set,
                     path_samples, route_radial_angular)
from .nullgeom import QuadricFlowGenerator, flow, standard_generators
from .wdata import WeierstrassData, cancellation_check
from .periods import (integrate_form, PeriodVector, PeriodTarget,
                      period_residuals)

SIGMA_TOL = 1e-6          # period-domination gate on the t-Jacobian
RANK_TOL = 1e-6           # rank floor for unit Jacobian columns (FD noise ~1e-10)
SPRAY_BALL = 0.5          # parameter ball on which spray invariants are sampled
NEWTON_BALL = 4.0         # Newton may wander this far in ||t||_2
FD_STEP = 1e-6            # central-difference step of the period Jacobian
DAMPING = 0.5             # line-search step shrink factor
_BRANCHES = 2             # character branches p0 + k j, |j| <= 2, per root vector


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
# character deformations


@dataclass(frozen=True, eq=False)
class Slot:
    """One deformation parameter t acting as f -> exp(t h(z) E) f.

    A constant slot (p = 0, `generator` set) flows along a quadric
    generator commuting with the action.  A root slot pairs a nilpotent
    E with h = z^p (var "z") or h = e^{pz} (var "exp").
    """

    key: str
    E: np.ndarray
    p: complex = 0
    var: str = "z"
    generator: QuadricFlowGenerator | None = None

    def apply(self, t, z, vals):
        """exp(t h(z) E) applied to the value columns at the points z."""
        if self.generator is not None:
            return flow(self.generator, t, vals)
        s = t * (np.exp(self.p * z) if self.var == "exp" else z ** self.p)
        term, out = vals, vals.copy()
        for q in range(1, vals.shape[0]):       # E^n = 0
            term = (self.E @ term) * (s / q)
            out = out + term
        return out


class DeformedMap:
    """Core map composed with the slots' factors at parameter t, with
    the callable/pole interface Weierstrass data expects from a map."""

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
            if tj != 0:
                vals = slot.apply(tj, zz, vals)
        if scalar:
            return vals[:, 0]
        return vals.reshape((vals.shape[0],) + np.atleast_1d(z).shape)

    def pole_records(self):
        rec = getattr(self.base_map, "pole_records", None)
        return rec() if rec is not None else []


def fixed_space_split(M: np.ndarray, tol: float = 1e-9) -> tuple:
    """Orthonormal bases (columns) of the fixed space null(M - I) and of
    its orthogonal complement, which is range(M - I) for orthogonal M."""
    n = M.shape[0]
    _, s, VT = np.linalg.svd(M - np.eye(n))
    d = int(np.sum(s <= tol * max(1.0, float(s[0]) if len(s) else 1.0)))
    return VT[n - d:, :].T, VT[:n - d, :].T


def commutant_generators(core: WeierstrassData, tol: float = 1e-12) -> list:
    """Quadric flow generators commuting with every generator motion."""
    n = core.dim
    act = core.space_action
    mats = [act.generator_motion(i).linear()
            for i in range(len(act.generator_indices()))]
    return [g for g in standard_generators(n)
            if all(np.max(np.abs(g.matrix(n) @ M - M @ g.matrix(n))) <= tol
                   for M in mats)]


def _character_exponents(core: WeierstrassData, lam: complex) -> tuple:
    """(var, exponents p) with h(g z) = lam h(z) for the domain
    generator g: h = z^p for a rotation z -> a z (p >= 0 when 0 lies in
    the domain), h = e^{pz} for a translation z -> z + b."""
    act = core.domain_action
    a, b = act.generator_map(0)
    js = range(-_BRANCHES, _BRANCHES + 1)
    if act.is_finite:
        k = act.group.element_order(act.group.generators[0])
        p0 = next((p for p in range(k) if abs(a ** p - lam) < 1e-9), None)
        if abs(b) > 1e-12 or p0 is None:
            return "z", []
        return "z", [p0 + k * j for j in js
                     if p0 + k * j >= 0 or not core.domain.contains(0j)]
    if abs(a - 1) > 1e-12:
        return "exp", []
    ps = [1j * (cmath.phase(lam) + 2 * math.pi * j) / b for j in js]
    return "exp", [p.real if abs(p.imag) < 1e-12 else p for p in ps]


def _candidate_slots(core: WeierstrassData) -> list:
    """Constant slots from the commutant, then root slots by |p| (at a
    tie p > 0 first: z^-p grows fastest at the sampling margin around a
    puncture at 0).  The roots are the eigenvectors E of ad(H), H the
    first commuting rotation, with nonzero eigenvalue (so E is
    nilpotent) that Ad(dg) scales by some lambda; each is paired with
    every h of the matching character."""
    n = core.dim
    commutant = commutant_generators(core)
    const = [Slot(key=f"const:{g.label()}", E=g.matrix(n), generator=g)
             for g in commutant]
    rotations = [g for g in commutant if g.kind == "rotation"]
    if not rotations or len(core.domain_action.generator_indices()) != 1:
        return const
    H = rotations[0].matrix(n)
    gens = [g for g in standard_generators(n) if g.kind == "rotation"]
    basis = [g.matrix(n) for g in gens]
    ad = np.array([[(H @ B - B @ H)[g.j, g.i] for B in basis] for g in gens])
    mu, V = np.linalg.eig(ad)
    O = core.space_action.generator_motion(0).O
    roots = []
    for i in sorted(np.flatnonzero(np.abs(mu) > 1e-9),
                    key=lambda i: round(mu[i].imag, 9)):
        E = sum(V[l, i] * B for l, B in enumerate(basis))
        flat = np.abs(E.ravel())
        E = E / E.ravel()[np.argmax(flat > 0.5 * flat.max())]
        moved = O @ E @ O.T
        lam = complex(np.vdot(E, moved) / np.vdot(E, E))
        if np.max(np.abs(moved - lam * E)) > 1e-9:
            continue
        var, ps = _character_exponents(core, lam)
        roots += [Slot(key=f"root({mu[i].imag:+.6g})*" + (
            f"z^{p}" if var == "z" else f"exp({p:.6g}z)"), E=E, p=p, var=var)
            for p in ps]
    return const + sorted(roots, key=lambda s: (abs(s.p), complex(s.p).real < 0))


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
        return [("loop", e) for e in self.paths.loops] + \
            [("conn", e) for e in self.paths.connectors]

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
        """Slot index -> set of path keys whose periods it can move: all
        of them, since every slot deforms the whole domain."""
        keys = {e.key for _, e in self.entries()}
        return {j: set(keys) for j in range(self.n_slots)}

    def jacobian_columns(self, t) -> dict:
        """d(period)/d(Re t_j) by central differences, as a dict
        path key -> (n, n_slots) complex block.  Periods depend
        holomorphically on t, so the Im t derivative is i times this."""
        t = np.asarray(t, dtype=complex)
        cols = {e.key: np.zeros((self.core.dim, self.n_slots), dtype=complex)
                for _, e in self.entries()}
        for j, keys in self.dependencies().items():
            tp = t.copy(); tp[j] += FD_STEP
            tm = t.copy(); tm[j] -= FD_STEP
            Pp = self.periods_at(tp, keys=keys)
            Pm = self.periods_at(tm, keys=keys)
            for k in keys:
                cols[k][:, j] = (Pp[k] - Pm[k]) / (2 * FD_STEP)
        return cols

    def row_bases(self) -> dict:
        """Path key -> orthonormal basis (columns) of the period
        components the reduced Jacobian keeps.

        A loop keeps its stabiliser's fixed space, where equivariance
        confines the period.  Under a finite group a group connector
        keeps range(I - dg): the orbit of its arc closes up around the
        rotation centre, so sum_j dg^j P_conn is a loop period there and
        the dg-fixed part of P_conn is already fixed by the loop rows.
        Other connectors keep every component.
        """
        n = self.core.dim
        out = {}
        for e in self.paths.loops:
            out[e.key] = np.eye(n) if e.stabiliser_generator is None else \
                fixed_space_split(self.core.differential(e.stabiliser_generator))[0]
        for e in self.paths.connectors:
            out[e.key] = np.eye(n)
            if e.kind == "group" and self.core.domain_action.is_finite:
                motion = self.core.space_action.generator_motion(e.generator)
                out[e.key] = fixed_space_split(motion.linear())[1]
        return out


def _rank(A: np.ndarray) -> int:
    """Numerical rank after normalising the columns; columns of norm at
    most RANK_TOL count as zero."""
    norms = np.linalg.norm(A, axis=0)
    keep = norms > RANK_TOL
    if not np.any(keep):
        return 0
    s = np.linalg.svd(A[:, keep] / norms[keep], compute_uv=False)
    return int(np.sum(s > RANK_TOL))


def _select_slots(core: WeierstrassData, paths: PathSystem, slots=()) -> tuple:
    """Extend `slots` by candidates, lowest |p| first, keeping each one
    only if its column raises the rank of the reduced period Jacobian,
    until there is one slot per reduced row."""
    chosen = list(slots)
    C = period_jacobian(SprayFamily(core=core, paths=paths,
                                    slots=tuple(slots))).matrix
    rows, rank = C.shape[0], _rank(C)
    keys = {s.key for s in slots}
    for slot in (s for s in _candidate_slots(core) if s.key not in keys):
        if rank == rows:
            break
        c = period_jacobian(SprayFamily(core=core, paths=paths,
                                        slots=(slot,))).matrix
        if _rank(np.hstack([C, c])) > rank:
            C, rank = np.hstack([C, c]), rank + 1
            chosen.append(slot)
    if rank < rows:
        raise SprayError(f"no period-dominating slots: rank {rank} "
                         f"of {rows} reduced period rows")
    return tuple(chosen)


def build_period_spray(core: WeierstrassData, paths: PathSystem) -> SprayFamily:
    """Choose the slots for a path system (see _select_slots).

    A core whose image along a path lies in a single null ray admits no
    independent period directions and is rejected.
    """
    rep = cancellation_check(core)
    if not rep.ok:
        raise SprayError(f"core fails the cancellation check: {rep.detail}")
    for e in list(paths.loops) + list(paths.connectors):
        V = core.f_values(path_samples(e.path, 64))
        sv = np.linalg.svd(V, compute_uv=False)
        if int(np.sum(sv > 1e-8 * sv[0])) < 2:
            raise SprayError(
                "insufficient independent directions: core image along "
                f"path {e.key} lies in a single null ray")
    return SprayFamily(core=core, paths=paths, slots=_select_slots(core, paths))


def validate_spray(spray: SprayFamily, ball: float = SPRAY_BALL,
                   n_samples: int = 3, seed: int = 23) -> dict:
    """Sample parameters in the ball and measure the spray invariants:
    pointwise nullity, map equivariance, and the Cauchy residual, the
    largest |integral of f_t theta| around circles that enclose no
    puncture, pole or fixed point (zero for a holomorphic integrand)."""
    from .wdata import nullity_residual, equivariance_residual_f, sample_domain_points
    core = spray.core
    rng = np.random.default_rng(seed)
    pts = sample_domain_points(core.domain, 128, seed=seed + 1)
    avoid = list(core.domain.punctures) + core.pole_points() + \
        [r.point for r in fixed_point_set(core.domain, core.domain_action)]
    circles = [circle(complex(c), min(0.5, 0.5 * min(
        (abs(c - q) for q in avoid), default=math.inf))) for c in pts[:4]]
    report = {"nullity": 0.0, "equivariance": 0.0, "cauchy": 0.0}
    for _ in range(n_samples):
        t = rng.normal(size=spray.n_slots) + 1j * rng.normal(size=spray.n_slots)
        norm = np.linalg.norm(t)
        if norm > 0:
            t *= ball * rng.uniform(0.3, 1.0) / norm
        data_t = spray.data_at(t)
        report["nullity"] = max(report["nullity"], nullity_residual(data_t, pts))
        report["equivariance"] = max(report["equivariance"],
                                     equivariance_residual_f(data_t, 64, seed=seed))
        for loop in circles:
            report["cauchy"] = max(report["cauchy"], float(
                np.max(np.abs(integrate_form(data_t, loop)))))
    return report


# ---------------------------------------------------------------------------
# period Jacobian


@dataclass(frozen=True, eq=False)
class PeriodJacobian:
    """Reduced complex derivative of the period map at a parameter point.

    Rows are each path's period in its row basis (SprayFamily.row_bases).
    sigma_min is the p-th singular value of the p-row matrix: positive
    means the period map is a submersion there.
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
    bases = spray.row_bases()
    rows = []
    labels = []
    for _, e in spray.entries():
        B = bases[e.key]
        rows.append(B.T @ cols[e.key])
        labels += [f"{e.key}[{i}]" for i in range(B.shape[1])]
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
    bases = spray.row_bases()
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


def _newton_step(J: np.ndarray, r: np.ndarray, slots: tuple) -> np.ndarray:
    """Min-norm Gauss-Newton step with the base value v free: range(J_v)
    is projected out of the rows, and t moves only in the lowest-degree
    tiers of slots (by |p|) that reach the projected rank, so higher
    slots stay exactly put.  v absorbs what is left."""
    m = len(slots)
    Jt, Jv = J[:, :2 * m], J[:, 2 * m:]
    U, s, _ = np.linalg.svd(Jv, full_matrices=False)
    Q = U[:, s > RANK_TOL * max(1.0, s[0])]
    A = Jt - Q @ (Q.T @ Jt)
    want = _rank(A)
    dt = np.zeros(2 * m)
    for degree in sorted({abs(slot.p) for slot in slots}):
        idx = [j for j, slot in enumerate(slots) if abs(slot.p) <= degree]
        cols = np.array(idx + [m + j for j in idx], dtype=int)
        if _rank(A[:, cols]) == want:
            dt[cols] = np.linalg.lstsq(A[:, cols], Q @ (Q.T @ r) - r,
                                       rcond=RANK_TOL)[0]
            break
    dv = np.linalg.lstsq(Jv, -(r + Jt @ dt), rcond=RANK_TOL)[0]
    return np.concatenate([dt, dv])


def newton_correct(spray: SprayFamily, target: PeriodTarget | None = None,
                   config: NewtonConfig | None = None,
                   t_init=None, v_init=None) -> NewtonResult:
    """Damped Gauss-Newton on the closing conditions.

    Unknowns are the slot parameters (real and imaginary parts) and the
    base value v.  Only the period-domination gate uses the reduced
    Jacobian; Newton's rows and the final residual report are unreduced.
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
    periods = spray.periods_at(t)
    r = _residual_vector(plan, periods, v)
    history = [float(np.max(np.abs(r))) if r.size else 0.0]
    iterations = 0
    while history[-1] > cfg.tol:
        if iterations >= cfg.max_iters:
            raise NewtonError(f"no convergence in {cfg.max_iters} iterations "
                              f"(residual {history[-1]:.3e})", history)
        J = _jacobian_matrix(plan, spray.jacobian_columns(t), n, m)
        delta = _newton_step(J, r, spray.slots)
        norm_r = float(np.linalg.norm(r))
        alpha = 1.0
        for _ in range(9):
            t_new = t + alpha * (delta[:m] + 1j * delta[m:2 * m])
            v_new = v + alpha * delta[2 * m:]
            periods_new = spray.periods_at(t_new)
            r_new = _residual_vector(plan, periods_new, v_new)
            if float(np.linalg.norm(r_new)) < norm_r:
                break
            alpha *= DAMPING
        else:
            raise NewtonError("step stalled: no damping factor reduced the "
                              "residual", history)
        t, v, r, periods = t_new, v_new, r_new, periods_new
        if float(np.linalg.norm(t)) > NEWTON_BALL:
            raise NewtonError(f"parameter left the validity ball "
                              f"(||t|| = {np.linalg.norm(t):.3f})", history)
        history.append(float(np.max(np.abs(r))) if r.size else 0.0)
        iterations += 1

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
    connector is attached to the first representative of each orbit,
    and the spray gains slots until the reduced system is square again
    (one per pinned coordinate).  Returns the augmented spray and the
    (unchanged) target.
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
    for idx, (p, val) in enumerate(reps):
        path = route_radial_angular(spray.paths.basepoint, p, avoid=avoid,
                                    margin=spray.paths.margin)
        new_connectors.append(ConnectorEntry(key=f"mark:{idx}", path=path,
                                             generator=None, kind="marked",
                                             marked_point=p,
                                             marked_value=tuple(val)))
    new_paths = replace(spray.paths, connectors=tuple(new_connectors))
    slots = _select_slots(core, new_paths, spray.slots)
    return SprayFamily(core=core, paths=new_paths, slots=slots), target
