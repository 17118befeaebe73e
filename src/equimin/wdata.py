"""Weierstrass data: meromorphic null-quadric maps paired with an
invariant one-form and a symmetry pairing.

Maps are stored as finite Laurent expansions, either in z itself or in
exp(z) for translation-periodic data.  The product f * theta is the
integrand of the surface representation; it must stay zero-free and
pole-free across interior fixed points (the form's zero cancels the
map's pole there exactly).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .domain import DomainAction, InvariantOneForm, PlanarDomain, FixedPointRecord
from .nullgeom import quadratic_form
from .symgroup import SpaceAction, PlaneRotationCertificate, null_line_from_plane

EQUIV_TOL = 1e-10        # equivariance residual bound for valid data
NULLITY_TOL = 1e-12      # pointwise quadric residual for exact data
CANCEL_TOL = 1e-9        # vector-zero detection threshold


class DataError(ValueError):
    """Raised for structurally invalid Weierstrass data."""


@dataclass(frozen=True)
class LaurentMap:
    """C^n-valued finite Laurent expansion in z or in exp(z).

    `components[i]` maps integer exponents to complex coefficients.
    With var = "exp" the expansion variable is e^z and the map has no
    finite poles; with var = "z" negative exponents put a pole at 0.
    """

    components: tuple[dict[int, complex], ...]
    var: str = "z"

    def __post_init__(self):
        if self.var not in ("z", "exp"):
            raise DataError(f"unknown expansion variable {self.var!r}")
        comps = tuple({int(e): complex(c) for e, c in comp.items() if c != 0}
                      for comp in self.components)
        if not comps:
            raise DataError("map needs at least one component")
        object.__setattr__(self, "components", comps)
        exps = sorted({e for comp in comps for e in comp})
        object.__setattr__(self, "_exps", tuple(exps))
        n = len(comps)
        C = np.zeros((n, len(exps)), dtype=complex)
        for i, comp in enumerate(comps):
            for e, c in comp.items():
                C[i, exps.index(e)] = c
        object.__setattr__(self, "_coef", C)

    @property
    def dim(self) -> int:
        return len(self.components)

    def eval(self, z) -> np.ndarray:
        """Evaluate at scalar or array arguments; returns shape (n,) or (n, m)."""
        z = np.asarray(z, dtype=complex)
        scalar = z.ndim == 0
        zz = np.atleast_1d(z)
        w = np.exp(zz) if self.var == "exp" else zz
        exps = np.asarray(self._exps)
        if len(exps) == 0:
            out = np.zeros((self.dim, len(zz)), dtype=complex)
        else:
            powers = w[None, :] ** exps[:, None]
            out = self._coef @ powers
        return out[:, 0] if scalar else out

    def __call__(self, z):
        return self.eval(z)

    def pole_records(self) -> list[tuple[complex, int]]:
        """(point, order) for finite poles; only z = 0 can occur."""
        if self.var == "exp":
            return []
        worst = 0
        for comp in self.components:
            if comp:
                worst = max(worst, -min(comp.keys()))
        return [(0j, worst)] if worst > 0 else []

    def pole_order_at_zero(self, i: int | None = None) -> int:
        if self.var == "exp":
            return 0
        comps = self.components if i is None else (self.components[i],)
        worst = 0
        for comp in comps:
            if comp:
                worst = max(worst, -min(comp.keys()))
        return worst

    def lowest_order_vector(self) -> tuple[int, np.ndarray]:
        """(m0, vector of z^{m0} coefficients) at the overall lowest exponent."""
        m0 = min(min(comp.keys()) for comp in self.components if comp)
        vec = np.array([comp.get(m0, 0j) for comp in self.components])
        return m0, vec

    def scaled(self, factor: complex) -> "LaurentMap":
        return LaurentMap(tuple({e: factor * c for e, c in comp.items()}
                                for comp in self.components), var=self.var)

    def times_monomial(self, c: complex, m: int) -> "LaurentMap":
        """Multiply by c z^m (only meaningful for var = 'z' when m != 0)."""
        if self.var == "exp" and m != 0:
            raise DataError("cannot shift exponents of an exp-expansion")
        return LaurentMap(tuple({e + m: c * coef for e, coef in comp.items()}
                                for comp in self.components), var=self.var)

    def component_roots(self, i: int) -> np.ndarray:
        """Roots of component i in the expansion variable, 0 excluded."""
        comp = self.components[i]
        if not comp:
            return np.array([], dtype=complex)
        lo = min(comp.keys())
        hi = max(comp.keys())
        coeffs = [comp.get(e, 0j) for e in range(hi, lo - 1, -1)]
        roots = np.roots(coeffs)
        return roots[np.abs(roots) > 1e-12]

    def to_json(self) -> list:
        return [[[e, c.real, c.imag] for e, c in sorted(comp.items())]
                for comp in self.components]

    @staticmethod
    def from_json(obj: list, var: str = "z") -> "LaurentMap":
        comps = tuple({int(t[0]): complex(t[1], t[2]) for t in comp}
                      for comp in obj)
        return LaurentMap(comps, var=var)


@dataclass(frozen=True)
class WeierstrassData:
    """A null-quadric map, an invariant form, and the symmetry pairing.

    `f` maps the domain to the punctured null quadric, `theta` is the
    invariant one-form, and the domain action is intertwined with the
    space action: f(g z) = dg f(z) with dg the motion differential.
    `v` is the surface value at the basepoint.
    """

    f: object                       # LaurentMap or any vectorised callable
    theta: InvariantOneForm
    domain: PlanarDomain
    domain_action: DomainAction
    space_action: SpaceAction
    basepoint: complex
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        if self.space_action.dim != self.v.shape[0]:
            raise DataError("base value dimension does not match the action")
        if not self.domain.contains(complex(self.basepoint)):
            raise DataError("basepoint must lie in the domain")

    @property
    def dim(self) -> int:
        return self.space_action.dim

    def f_values(self, z) -> np.ndarray:
        return self.f(z)

    def f_theta(self, z) -> np.ndarray:
        """Integrand values f(z) * theta(z)/dz, vectorised."""
        z = np.asarray(z, dtype=complex)
        return self.f_values(z) * self.theta.coef(z)

    def pole_points(self) -> list[complex]:
        """Singularities of the integrand f theta.  At 0 the pole order
        of f is offset by theta's zero divisor (negative m is a pole of
        theta), so a pole of f cancelled by theta is not reported."""
        recs = getattr(self.f, "pole_records", lambda: [])()
        pts = [p for p, _ in recs if abs(p) >= 1e-12]
        order0 = max((o for p, o in recs if abs(p) < 1e-12), default=0)
        if order0 - self.theta.m > 0:
            pts.append(0j)
        return pts

    def motion(self, element: int):
        return self.space_action.motion(element)

    def differential(self, element: int) -> np.ndarray:
        return self.space_action.motion(element).linear()

    def with_f(self, new_f, v=None) -> "WeierstrassData":
        return WeierstrassData(f=new_f, theta=self.theta, domain=self.domain,
                               domain_action=self.domain_action,
                               space_action=self.space_action,
                               basepoint=self.basepoint,
                               v=self.v if v is None else v)

    def scaled(self, factor: float) -> "WeierstrassData":
        """Scale the map (and base value) by a positive factor."""
        if not isinstance(self.f, LaurentMap):
            raise DataError("scaling is only defined for Laurent data")
        return self.with_f(self.f.scaled(factor), v=self.v * factor)


# ---------------------------------------------------------------------------
# sampling helpers


def sample_domain_points(domain: PlanarDomain, count: int, seed: int,
                         margin: float = 5e-2) -> np.ndarray:
    """Deterministic point cloud in the domain, clear of punctures and 0
    by the margin (0 is where gallery poles sit)."""
    rng = np.random.default_rng(seed)
    if domain.kind == "disk":
        r_lo, r_hi = margin, domain.radius * 0.9
    elif domain.kind == "annulus":
        r_lo, r_hi = domain.r_in * 1.1, domain.r_out * 0.9
    else:
        r_lo, r_hi = margin, 2.2
    pts = []
    attempts = 0
    while len(pts) < count and attempts < 50:
        attempts += 1
        m = 2 * (count - len(pts))
        r = np.exp(rng.uniform(math.log(r_lo), math.log(r_hi), m))
        t = rng.uniform(0, 2 * math.pi, m)
        z = r * np.exp(1j * t)
        ok = np.ones(m, dtype=bool)
        for p in domain.punctures:
            ok &= np.abs(z - p) > margin
        pts.extend(z[ok][: count - len(pts)])
    if len(pts) < count:
        raise DataError("could not sample enough admissible points")
    return np.asarray(pts)


# ---------------------------------------------------------------------------
# residuals and checks


def nullity_residual(data_or_map, grid) -> float:
    """sup over the grid of |sum f_j^2| / (1 + |f|^2)."""
    f = data_or_map.f_values if isinstance(data_or_map, WeierstrassData) \
        else data_or_map
    z = np.asarray(grid, dtype=complex).ravel()
    vals = f(z)
    q = np.abs(quadratic_form(vals))
    denom = 1.0 + np.sum(np.abs(vals) ** 2, axis=0)
    return float(np.max(q / denom))


def equivariance_residual_f(data: WeierstrassData, n_samples: int = 256,
                            seed: int = 11) -> float:
    """max over samples x and generators g of
    |f(g x) - dg f(x)| / (1 + |f(x)|).

    Sampling is deterministic; points too close to poles are rejected
    and resampled inside sample_domain_points.
    """
    z = sample_domain_points(data.domain, n_samples, seed)
    worst = 0.0
    act = data.domain_action
    for pos, gi in enumerate(act.generator_indices()):
        if act.is_finite:
            gz = act.apply(gi, z)
            dg = data.differential(gi)
        else:
            a, b = act.generator_map(pos)
            gz = a * z + b
            dg = data.space_action.generator_motion(pos).linear()
        lhs = data.f_values(gz)
        rhs = dg @ data.f_values(z)
        num = np.linalg.norm(lhs - rhs, axis=0)
        den = 1.0 + np.linalg.norm(data.f_values(z), axis=0)
        worst = max(worst, float(np.max(num / den)))
    return worst


@dataclass(frozen=True)
class CancellationReport:
    ok: bool
    fixed_points: tuple[dict, ...]    # per fixed point: pole/zero orders
    offending_points: tuple[complex, ...]
    detail: str = ""


def cancellation_check(data: WeierstrassData) -> CancellationReport:
    """Verify f * theta is holomorphic and zero-free on the domain.

    At each interior fixed point the pole order of f must equal the
    vanishing order of theta (so the product has a removable, nonzero
    value).  Away from fixed points the product must not vanish; zeros
    of individual components are located by root-finding and the full
    vector is tested there.

    Deformed maps are checked through their core: the deformation acts
    by pointwise invertible flows, so it can neither create zeros nor
    poles.
    """
    if hasattr(data.f, "base_map"):
        data = data.with_f(data.f.base_map)
    if not isinstance(data.f, LaurentMap):
        raise DataError("cancellation check needs Laurent data")
    prod = data.f.times_monomial(data.theta.c, data.theta.m) \
        if data.f.var == "z" else data.f.scaled(data.theta.c)
    rows = []
    ok = True
    detail = []
    from .domain import fixed_point_set
    fixed = fixed_point_set(data.domain, data.domain_action)
    if data.f.var == "z":
        m0, vec0 = prod.lowest_order_vector()
        zero_in_domain = data.domain.contains(0j)
        if fixed:
            rec = fixed[0]
            if abs(rec.point) > 1e-9:
                raise DataError("only fixed points at 0 are supported")
            pole = data.f.pole_order_at_zero()
            rows.append({"point": 0j, "stabiliser": rec.order,
                         "f_pole_order": pole, "theta_zero_order": data.theta.m,
                         "product_order": m0})
            if m0 != 0 or np.max(np.abs(vec0)) < CANCEL_TOL:
                ok = False
                detail.append(f"product has order {m0} at the fixed point")
        elif zero_in_domain and m0 < 0:
            ok = False
            detail.append("product has a pole at an interior point 0")
        elif zero_in_domain and m0 > 0:
            ok = False
            detail.append("product vanishes at an interior point 0")
    # vector zeros away from 0: candidates are roots of each component
    offenders = []
    scale = 0.0
    probe = np.exp(1j * np.linspace(0.0, 2 * math.pi, 17)[:-1])
    scale = float(np.max(np.linalg.norm(prod.eval(probe), axis=0)))
    for i in range(prod.dim):
        for root in prod.component_roots(i):
            if prod.var == "z":
                branches = [complex(root)]
            else:
                base = cmath.log(complex(root))
                branches = [base + 2j * math.pi * j for j in range(-2, 3)]
            for zr in branches:
                if not data.domain.contains(zr):
                    continue
                val = prod.eval(zr)
                if np.linalg.norm(val) <= CANCEL_TOL * max(1.0, scale):
                    if not any(abs(zr - o) < 1e-9 for o in offenders):
                        offenders.append(zr)
    if offenders:
        ok = False
        detail.append(f"integrand vanishes at {offenders}")
    return CancellationReport(ok=ok, fixed_points=tuple(rows),
                              offending_points=tuple(offenders),
                              detail="; ".join(detail))


# ---------------------------------------------------------------------------
# local models at fixed points


@dataclass(frozen=True)
class LocalModel:
    """Model map y0 * zeta^{1-k} near an order-k fixed point.

    y0 spans the null line of the stabiliser's invariant plane, so the
    model intertwines the domain rotation with the certificate rotation:
    f0(e^{2 pi i/k} zeta) = M f0(zeta).
    """

    y0: np.ndarray
    k: int
    certificate: PlaneRotationCertificate

    def eval(self, zeta) -> np.ndarray:
        zeta = np.asarray(zeta, dtype=complex)
        return np.multiply.outer(self.y0, zeta ** (1 - self.k))

    def equivariance_residual(self, n_samples: int = 32, seed: int = 3) -> float:
        rng = np.random.default_rng(seed)
        z = rng.uniform(0.3, 1.5, n_samples) * np.exp(
            1j * rng.uniform(0, 2 * math.pi, n_samples))
        w = cmath.exp(2j * math.pi / self.k)
        # the certificate's motion is only known on the plane; extend by
        # the rotation it certifies, which acts on y0 as e^{i angle}
        lhs = self.eval(w * z)
        rhs = cmath.exp(1j * self.certificate.angle) * self.eval(z)
        num = np.linalg.norm(lhs - rhs, axis=0)
        den = 1.0 + np.linalg.norm(self.eval(z), axis=0)
        return float(np.max(num / den))


def canonical_null_direction(w: np.ndarray) -> np.ndarray:
    """Unit-norm representative with the first nonzero entry rotated to
    the positive real axis; fixes the scale freedom of a null line."""
    w = np.asarray(w, dtype=complex)
    norm = float(np.linalg.norm(w))
    if norm < 1e-300:
        raise DataError("zero direction")
    w = w / norm
    j = int(np.argmax(np.abs(w) > 1e-12))
    phase = w[j] / abs(w[j])
    return w / phase


def local_model_at_fixed_point(record: FixedPointRecord,
                               cert: PlaneRotationCertificate) -> LocalModel:
    """Build the canonical pole model attached to a stabiliser certificate."""
    if record.order != cert.order:
        raise DataError("certificate order does not match the stabiliser")
    if abs(cert.angle - 2 * math.pi / record.order) > 1e-12 and record.order > 1:
        raise DataError("certificate angle must be 2 pi / k")
    y0 = canonical_null_direction(null_line_from_plane(cert))
    return LocalModel(y0=y0, k=record.order, certificate=cert)
