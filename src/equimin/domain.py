"""Planar domains, conformal symmetry actions, and integration paths.

Domains are subsets of C described by a base region (plane, disk,
annulus) and a finite list of punctures.  Symmetries act by affine
conformal maps z -> a z + b; rotations fix a point, translations act
freely.  The module also builds the path systems used by the period
machinery: one loop per puncture orbit and one connector arc per group
generator, all kept away from punctures and fixed points by a margin.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .symgroup import FiniteGroupTable, InfiniteCyclicGroup, build_cyclic

PATH_MARGIN = 1e-3        # minimal distance from paths to punctures/fixed points
MAP_TOL = 1e-12           # tolerance identifying points under group maps
PULLBACK_TOL = 1e-10      # invariance residual for one-forms
_PATH_SAMPLES = 512       # samples per piece for distance checks


class DomainError(ValueError):
    """Raised for inconsistent domain or action data."""


class PathError(ValueError):
    """Raised when an integration path violates its constraints."""


# ---------------------------------------------------------------------------
# paths


class Segment:
    """Straight path from z0 to z1, parametrised over [0, 1]."""

    def __init__(self, z0: complex, z1: complex):
        self.z0 = complex(z0)
        self.z1 = complex(z1)

    def point(self, s):
        s = np.asarray(s, dtype=float)
        return self.z0 + (self.z1 - self.z0) * s

    def velocity(self, s):
        s = np.asarray(s, dtype=float)
        return np.full(s.shape, self.z1 - self.z0, dtype=complex)

    def pieces(self):
        return [self]

    def transformed(self, a: complex, b: complex) -> "Segment":
        return Segment(a * self.z0 + b, a * self.z1 + b)

    def reversed(self) -> "Segment":
        return Segment(self.z1, self.z0)

    @property
    def start(self):
        return self.z0

    @property
    def end(self):
        return self.z1

    def __repr__(self):
        return f"Segment({self.z0:.6g}, {self.z1:.6g})"


class CircularArc:
    """Arc of |z - center| = radius from angle t0 to t1 (counterclockwise
    when t1 > t0), parametrised over [0, 1]."""

    def __init__(self, center: complex, radius: float, t0: float, t1: float):
        if radius <= 0:
            raise PathError("arc radius must be positive")
        self.center = complex(center)
        self.radius = float(radius)
        self.t0 = float(t0)
        self.t1 = float(t1)

    def point(self, s):
        s = np.asarray(s, dtype=float)
        ang = self.t0 + (self.t1 - self.t0) * s
        return self.center + self.radius * np.exp(1j * ang)

    def velocity(self, s):
        s = np.asarray(s, dtype=float)
        ang = self.t0 + (self.t1 - self.t0) * s
        return self.radius * 1j * (self.t1 - self.t0) * np.exp(1j * ang)

    def pieces(self):
        return [self]

    def transformed(self, a: complex, b: complex) -> "CircularArc":
        rot = cmath.phase(a)
        return CircularArc(a * self.center + b, self.radius * abs(a),
                           self.t0 + rot, self.t1 + rot)

    def reversed(self) -> "CircularArc":
        return CircularArc(self.center, self.radius, self.t1, self.t0)

    @property
    def start(self):
        return self.center + self.radius * cmath.exp(1j * self.t0)

    @property
    def end(self):
        return self.center + self.radius * cmath.exp(1j * self.t1)

    def __repr__(self):
        return (f"CircularArc(c={self.center:.6g}, r={self.radius:.6g}, "
                f"{self.t0:.6g}..{self.t1:.6g})")


def circle(center: complex, radius: float, t0: float = 0.0) -> CircularArc:
    """Full counterclockwise loop starting at angle t0."""
    return CircularArc(center, radius, t0, t0 + 2 * math.pi)


class CompositePath:
    """Concatenation of path pieces with matching endpoints."""

    def __init__(self, parts):
        flat = []
        for p in parts:
            flat.extend(p.pieces())
        if not flat:
            raise PathError("empty composite path")
        for a, b in zip(flat, flat[1:]):
            if abs(a.end - b.start) > 1e-9:
                raise PathError(f"pieces do not chain: {a.end} vs {b.start}")
        self.parts = flat

    def pieces(self):
        return list(self.parts)

    def transformed(self, a: complex, b: complex) -> "CompositePath":
        return CompositePath([p.transformed(a, b) for p in self.parts])

    def reversed(self) -> "CompositePath":
        return CompositePath([p.reversed() for p in reversed(self.parts)])

    @property
    def start(self):
        return self.parts[0].start

    @property
    def end(self):
        return self.parts[-1].end

    def point(self, s):
        # piecewise parametrisation, equal weight per piece
        s = np.asarray(s, dtype=float)
        m = len(self.parts)
        k = np.minimum((s * m).astype(int), m - 1)
        local = s * m - k
        out = np.empty(s.shape, dtype=complex)
        for i, p in enumerate(self.parts):
            mask = k == i
            if np.any(mask):
                out[mask] = p.point(local[mask])
        return out


def path_samples(path, n: int = _PATH_SAMPLES) -> np.ndarray:
    """Dense point samples along a path, endpoints included."""
    pts = []
    for p in path.pieces():
        pts.append(p.point(np.linspace(0.0, 1.0, n)))
    return np.concatenate(pts)


def min_distance(path, points) -> float:
    """Smallest sampled distance from the path to a point set."""
    pts = np.asarray(points, dtype=complex)
    if pts.size == 0:
        return math.inf
    samp = path_samples(path)
    return float(np.min(np.abs(samp[:, None] - pts[None, :])))


def winding_number(path, point: complex) -> int:
    """Winding of a closed path around a point, by summed argument steps."""
    samp = path_samples(path, 1024)
    rel = samp - point
    if np.min(np.abs(rel)) < 1e-12:
        raise PathError("winding number undefined on the path itself")
    dphi = np.angle(rel[1:] / rel[:-1])
    total = float(np.sum(dphi))
    return int(round(total / (2 * math.pi)))


# ---------------------------------------------------------------------------
# domains


_KINDS = ("plane", "punctured_plane", "disk", "annulus")


@dataclass(frozen=True)
class PlanarDomain:
    """Base region minus a finite set of punctures."""

    kind: str
    punctures: tuple[complex, ...] = ()
    radius: float = math.inf          # disk
    r_in: float = 0.0                 # annulus
    r_out: float = math.inf           # annulus

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise DomainError(f"unknown domain kind {self.kind!r}")
        punctures = tuple(complex(p) for p in self.punctures)
        if self.kind == "punctured_plane" and not any(abs(p) < MAP_TOL for p in punctures):
            punctures = (0j,) + punctures
        if self.kind == "disk" and not (0 < self.radius < math.inf):
            raise DomainError("disk needs a finite positive radius")
        if self.kind == "annulus" and not (0 < self.r_in < self.r_out):
            raise DomainError("annulus needs 0 < r_in < r_out")
        for p in punctures:
            if not self._in_base(p):
                raise DomainError(f"puncture {p} lies outside the base region")
        if len(set((round(p.real, 12), round(p.imag, 12)) for p in punctures)) != len(punctures):
            raise DomainError("duplicate punctures")
        object.__setattr__(self, "punctures", punctures)

    def _in_base(self, z: complex, margin: float = 0.0) -> bool:
        if self.kind in ("plane", "punctured_plane"):
            return True
        if self.kind == "disk":
            return abs(z) <= self.radius - margin
        return self.r_in + margin <= abs(z) <= self.r_out - margin

    def contains(self, z: complex, margin: float = 0.0) -> bool:
        if not self._in_base(z, margin):
            return False
        return all(abs(z - p) > margin for p in self.punctures)

    def label(self) -> str:
        if self.kind == "disk":
            base = f"disk(r={self.radius:g})"
        elif self.kind == "annulus":
            base = f"annulus({self.r_in:g},{self.r_out:g})"
        elif self.punctures:
            base = "punctured plane"
        else:
            base = "plane"
        extra = [p for p in self.punctures if abs(p) > MAP_TOL]
        if extra:
            base += f" minus {len(extra)} extra point(s)"
        return base


# ---------------------------------------------------------------------------
# domain actions


@dataclass(frozen=True)
class DomainAction:
    """Conformal affine action z -> a z + b on a planar domain.

    For a finite group `maps[i]` matches element index i; for an
    infinite group `maps` holds one map per generator.
    """

    group: FiniteGroupTable | InfiniteCyclicGroup
    domain: PlanarDomain
    maps: tuple[tuple[complex, complex], ...]

    def __post_init__(self):
        maps = tuple((complex(a), complex(b)) for a, b in self.maps)
        object.__setattr__(self, "maps", maps)
        if self.is_finite:
            if len(maps) != self.group.order:
                raise DomainError("one map per group element required")
            a0, b0 = maps[0]
            if abs(a0 - 1) > MAP_TOL or abs(b0) > MAP_TOL:
                raise DomainError("identity element must act as the identity map")
            # homomorphism check on the table
            for i in range(self.group.order):
                for j in range(self.group.order):
                    ai, bi = maps[i]
                    aj, bj = maps[j]
                    k = self.group.mul(i, j)
                    ak, bk = maps[k]
                    if abs(ai * aj - ak) > 1e-10 or abs(ai * bj + bi - bk) > 1e-10:
                        raise DomainError("maps do not represent the group table")
        else:
            if len(maps) != self.group.n_generators:
                raise DomainError("one map per generator required")
        for a, b in maps:
            if abs(a) < 1e-14:
                raise DomainError("degenerate map")
        self._check_domain_preserved()

    @property
    def is_finite(self) -> bool:
        return isinstance(self.group, FiniteGroupTable)

    def _check_domain_preserved(self):
        dom = self.domain
        for a, b in self.maps:
            if dom.kind in ("disk", "annulus") and (abs(abs(a) - 1) > MAP_TOL or abs(b) > MAP_TOL):
                raise DomainError("bounded domains admit only rotations about 0")
            # punctures must be permuted
            for p in dom.punctures:
                img = a * p + b
                if not any(abs(img - q) <= 1e-9 for q in dom.punctures):
                    raise DomainError(f"map does not permute punctures: {p} -> {img}")

    def apply(self, i: int, z):
        a, b = self.maps[i]
        return a * np.asarray(z, dtype=complex) + b

    def derivative(self, i: int) -> complex:
        return self.maps[i][0]

    def generator_indices(self) -> tuple[int, ...]:
        if self.is_finite:
            return tuple(self.group.generators)
        return tuple(range(len(self.maps)))

    def generator_map(self, gi: int) -> tuple[complex, complex]:
        if self.is_finite:
            return self.maps[self.group.generators[gi]]
        return self.maps[gi]

    def map_power(self, gi: int, j: int) -> tuple[complex, complex]:
        """(a, b) of the j-th power of a generator (j may be negative)."""
        a, b = self.generator_map(gi)
        if j < 0:
            a, b = 1 / a, -b / a
            j = -j
        aa, bb = 1 + 0j, 0j
        for _ in range(j):
            aa, bb = a * aa, a * bb + b
        return aa, bb

    def element_maps(self):
        """Iterate (element id, (a, b)) over the finite group or a
        word window of an infinite one."""
        if self.is_finite:
            for i in range(self.group.order):
                yield i, self.maps[i]
        else:
            win = self.group.word_window
            for g in range(len(self.maps)):
                for j in range(-win, win + 1):
                    yield (g, j), self.map_power(g, j)

    def translate_path(self, path, i: int):
        a, b = self.maps[i] if self.is_finite else self.generator_map(i)
        return path.transformed(a, b)


def build_rotation_domain(k: int, seeds=()) -> tuple[PlanarDomain, DomainAction]:
    """Plane with the order-k rotation action about 0 and the puncture
    orbits generated by `seeds`.

    A seed at 0 punctures the origin (a single fixed puncture); other
    seeds contribute their full k-point orbits.  Colliding orbits are
    rejected.
    """
    if k < 1:
        raise DomainError("rotation order must be >= 1")
    w = cmath.exp(2j * math.pi / k)
    punctures: list[complex] = []
    for s in seeds:
        s = complex(s)
        orbit = [s] if abs(s) < MAP_TOL else [s * w ** j for j in range(k)]
        for p in orbit:
            if any(abs(p - q) < 1e-9 for q in punctures):
                raise DomainError(f"puncture orbits collide near {p}")
            punctures.append(p)
    kind = "punctured_plane" if any(abs(p) < MAP_TOL for p in punctures) else "plane"
    dom = PlanarDomain(kind=kind, punctures=tuple(punctures))
    group = build_cyclic(k)
    maps = tuple((w ** j, 0j) for j in range(k))
    return dom, DomainAction(group=group, domain=dom, maps=maps)


def build_translation_domain(shifts) -> tuple[PlanarDomain, DomainAction]:
    """Plane with a free translation action generated by the given shifts."""
    shifts = [complex(s) for s in shifts]
    if not shifts or any(abs(s) < 1e-12 for s in shifts):
        raise DomainError("translation generators must be nonzero")
    dom = PlanarDomain(kind="plane")
    group = InfiniteCyclicGroup(n_generators=len(shifts))
    maps = tuple((1 + 0j, s) for s in shifts)
    return dom, DomainAction(group=group, domain=dom, maps=maps)


# ---------------------------------------------------------------------------
# fixed points and invariant one-forms


@dataclass(frozen=True)
class FixedPointRecord:
    """An interior fixed point with its cyclic stabiliser."""

    point: complex
    order: int                 # size of the stabiliser
    generator: int             # element index whose derivative is e^{2 pi i/order}
    stabiliser: tuple[int, ...] = ()

    def chart(self, z):
        """Local coordinate centred at the fixed point; the stabiliser
        generator becomes multiplication by e^{2 pi i/order}."""
        return np.asarray(z, dtype=complex) - self.point


def fixed_point_set(domain: PlanarDomain, action: DomainAction) -> list[FixedPointRecord]:
    """Interior fixed points of nontrivial elements, with stabiliser data."""
    if not action.is_finite:
        for a, b in action.maps:
            if abs(a - 1) < MAP_TOL and abs(b) > MAP_TOL:
                continue  # translations are free
            if abs(a - 1) > MAP_TOL:
                raise DomainError("infinite actions must act by translations")
        return []
    pts: list[complex] = []
    for i in range(1, action.group.order):
        a, b = action.maps[i]
        if abs(a - 1) < MAP_TOL:
            if abs(b) > MAP_TOL:
                raise DomainError("a finite group cannot contain a translation")
            continue
        z0 = b / (1 - a)
        if domain.contains(z0) and not any(abs(z0 - q) < 1e-9 for q in pts):
            pts.append(z0)
    records = []
    for z0 in pts:
        stab = [0]
        for i in range(1, action.group.order):
            a, b = action.maps[i]
            if abs(a * z0 + b - z0) < 1e-9:
                stab.append(i)
        k = len(stab)
        target = cmath.exp(2j * math.pi / k)
        gen = None
        for i in stab[1:]:
            if abs(action.derivative(i) - target) < 1e-8:
                gen = i
                break
        if gen is None:
            raise DomainError(f"stabiliser at {z0} is not cyclic of order {k}")
        records.append(FixedPointRecord(point=z0, order=k, generator=gen,
                                        stabiliser=tuple(stab)))
    records.sort(key=lambda r: (r.point.real, r.point.imag))
    return records


@dataclass(frozen=True)
class InvariantOneForm:
    """One-form c * z^m dz invariant under the domain action.

    The exponent may be negative only when 0 is a puncture; on domains
    containing 0 the form must vanish there to order (stabiliser - 1).
    """

    c: complex
    m: int

    def coef(self, z):
        z = np.asarray(z, dtype=complex)
        return self.c * z ** self.m

    def pullback_residual(self, action: DomainAction, n_samples: int = 64,
                          seed: int = 7) -> float:
        """max over samples and elements of |theta(gz) g'(z) - theta(z)|,
        relative to 1 + |theta(z)|."""
        rng = np.random.default_rng(seed)
        r = rng.uniform(0.4, 1.7, n_samples)
        t = rng.uniform(0.0, 2 * math.pi, n_samples)
        z = r * np.exp(1j * t)
        base = self.coef(z)
        worst = 0.0
        for _, (a, b) in action.element_maps():
            lhs = self.coef(a * z + b) * a
            worst = max(worst, float(np.max(np.abs(lhs - base) / (1 + np.abs(base)))))
        return worst


def invariant_one_form(domain: PlanarDomain, action: DomainAction) -> InvariantOneForm:
    """Canonical invariant form for the supported action shapes.

    Free actions (translations, trivial group, rotations with the fixed
    point punctured) get dz or dz/z; an order-k rotation fixing an
    interior point 0 gets k z^{k-1} dz, the differential of z^k.
    """
    if not action.is_finite:
        return InvariantOneForm(1.0, 0)
    k = action.group.order
    if k == 1:
        return InvariantOneForm(1.0, 0)
    rotating = [i for i in range(k) if abs(action.derivative(i) - 1) > MAP_TOL]
    if not rotating:
        return InvariantOneForm(1.0, 0)
    for i in rotating:
        a, b = action.maps[i]
        if abs(b) > MAP_TOL:
            raise DomainError("only rotations about 0 are supported here")
    fixed = fixed_point_set(domain, action)
    if fixed:
        k0 = fixed[0].order
        return InvariantOneForm(float(k0), k0 - 1)
    # the rotation centre is punctured; dz/z is invariant and zero-free
    return InvariantOneForm(1.0, -1)


# ---------------------------------------------------------------------------
# path systems


@dataclass(frozen=True)
class LoopEntry:
    """Loop around a puncture-orbit representative."""

    key: str
    path: CircularArc
    puncture: complex
    orbit_elements: tuple[int, ...]   # elements mapping the representative around its orbit
    stabiliser_generator: int | None  # element fixing the puncture, if any
    stabiliser_order: int = 1


@dataclass(frozen=True)
class ConnectorEntry:
    """Arc from the basepoint to its image under a generator, or to a
    marked point."""

    key: str
    path: object
    generator: int | None             # generator position for group connectors
    kind: str = "group"               # "group" or "marked"
    marked_point: complex | None = None
    marked_value: np.ndarray | None = None


@dataclass(frozen=True)
class PathSystem:
    basepoint: complex
    loops: tuple[LoopEntry, ...]
    connectors: tuple[ConnectorEntry, ...]
    margin: float = PATH_MARGIN


def _safe_loop_radius(p: complex, others, fixed_pts, domain: PlanarDomain) -> float:
    dists = [abs(p - q) for q in others if abs(p - q) > 1e-12]
    dists += [abs(p - f) for f in fixed_pts if abs(p - f) > 1e-12]
    if domain.kind == "disk":
        dists.append(domain.radius - abs(p))
    if domain.kind == "annulus":
        dists.append(abs(p) - domain.r_in)
        dists.append(domain.r_out - abs(p))
    if abs(p) > 1e-12:
        dists.append(abs(p))  # stay clear of the rotation centre
    limit = min(dists) if dists else 1.0
    return min(0.5, limit / 3.0)


def _validate_path(path, domain: PlanarDomain, avoid, margin: float, what: str):
    bad = [q for q in avoid if min_distance(path, [q]) < margin]
    if bad:
        raise PathError(f"{what} passes within {margin:g} of {bad[0]}")


def route_radial_angular(basepoint: complex, z: complex, avoid=(),
                         margin: float = PATH_MARGIN):
    """Canonical anchor path: radial leg along the basepoint's ray to the
    target radius, then the shorter angular arc.  Raises when the route
    clips one of the avoided points."""
    b = complex(basepoint)
    z = complex(z)
    if abs(z) < margin:
        raise PathError("target is inside the margin around the origin")
    parts = []
    radial_end = b * (abs(z) / abs(b))
    if abs(radial_end - b) > 1e-14:
        parts.append(Segment(b, radial_end))
    t0 = cmath.phase(radial_end)
    dphi = cmath.phase(z) - t0
    if dphi > math.pi:
        dphi -= 2 * math.pi
    if dphi < -math.pi:
        dphi += 2 * math.pi
    if abs(dphi) * abs(z) > 1e-14:
        parts.append(CircularArc(0j, abs(z), t0, t0 + dphi))
    if not parts:
        parts = [Segment(b, b)]
    path = parts[0] if len(parts) == 1 else CompositePath(parts)
    bad = [q for q in avoid if min_distance(path, [q]) < margin]
    if bad:
        raise PathError(f"route to {z} passes within {margin:g} of {bad[0]}")
    return path


def build_path_system(domain: PlanarDomain, action: DomainAction,
                      basepoint: complex, loop_radius: float | None = None,
                      margin: float = PATH_MARGIN) -> PathSystem:
    """Loops around puncture-orbit representatives plus one connector per
    group generator.

    Rotation connectors run along the circle |z| = |basepoint|;
    translation connectors are straight segments.  Every path keeps the
    margin from punctures and fixed points.
    """
    basepoint = complex(basepoint)
    if not domain.contains(basepoint, margin):
        raise PathError("basepoint violates the domain margin")
    fixed = fixed_point_set(domain, action)
    fixed_pts = [r.point for r in fixed]
    avoid = list(domain.punctures) + fixed_pts

    # orbit decomposition of the punctures
    loops: list[LoopEntry] = []
    assigned: set[int] = set()
    punctures = list(domain.punctures)
    for idx, p in enumerate(punctures):
        if idx in assigned:
            continue
        orbit_elems: list[int] = []
        stab_gen = None
        stab_order = 1
        if action.is_finite:
            orbit: dict[int, int] = {}
            for i in range(action.group.order):
                img = action.apply(i, p)
                for jdx, q in enumerate(punctures):
                    if abs(img - q) < 1e-9:
                        orbit.setdefault(jdx, i)
            for jdx in sorted(orbit):
                assigned.add(jdx)
                orbit_elems.append(orbit[jdx])
            stab = [i for i in range(action.group.order)
                    if abs(action.apply(i, p) - p) < 1e-9]
            stab_order = len(stab)
            if stab_order > 1:
                target = cmath.exp(2j * math.pi / stab_order)
                for i in stab:
                    if abs(action.derivative(i) - target) < 1e-8:
                        stab_gen = i
                        break
        else:
            assigned.add(idx)
        rad = loop_radius if loop_radius is not None else _safe_loop_radius(
            p, punctures, fixed_pts, domain)
        if rad <= 2 * margin:
            raise PathError(f"no room for a loop around {p}")
        loop = circle(p, rad)
        _validate_path(loop, domain, [q for q in avoid if abs(q - p) > 1e-12],
                       margin, f"loop around {p}")
        loops.append(LoopEntry(key=f"loop:{len(loops)}", path=loop, puncture=p,
                               orbit_elements=tuple(orbit_elems),
                               stabiliser_generator=stab_gen,
                               stabiliser_order=stab_order))

    connectors: list[ConnectorEntry] = []
    for pos, gi in enumerate(action.generator_indices()):
        a, b = (action.maps[gi] if action.is_finite else action.maps[pos])
        target = a * basepoint + b
        if abs(target - basepoint) < MAP_TOL:
            continue
        if abs(a - 1) < MAP_TOL:
            path = Segment(basepoint, target)
        else:
            # rotation connector along the basepoint circle
            rot = cmath.phase(a)
            if rot <= 0:
                rot += 2 * math.pi
            t0 = cmath.phase(basepoint)
            path = CircularArc(0j, abs(basepoint), t0, t0 + rot)
        _validate_path(path, domain, avoid, margin, f"connector for generator {gi}")
        connectors.append(ConnectorEntry(key=f"conn:{pos}", path=path,
                                         generator=pos))
    return PathSystem(basepoint=basepoint, loops=tuple(loops),
                      connectors=tuple(connectors), margin=margin)
