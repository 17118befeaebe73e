"""Discrete symmetry groups and their rigid-motion actions on R^n.

Groups are either finite (stored as a Cayley table with the identity at
index 0) or finitely generated infinite (stored by generators).  Actions
assign to each element a rigid motion x -> r*O*x + b; for finite groups
the motions are orthogonal (r = 1, b = 0).  The central geometric query
is whether a cyclic stabiliser of order k admits an invariant 2-plane on
which its generator acts by rotation through 2*pi/k; the answer comes
from the complex eigendecomposition of the generator's matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

HOM_TOL = 1e-10          # homomorphism residual bound for constructed actions
ORTHO_TOL = 1e-12        # orthogonality / frame tolerance
EIG_MATCH_TOL = 1e-8     # |lambda - e^{2 pi i / k}| for plane certificates
_KEY_DECIMALS = 9        # rounding used to hash matrices during closure


class GroupBuildError(ValueError):
    """Raised when group construction data is inconsistent."""


class DegenerateFrameError(ValueError):
    """Raised when a plane frame is not an equal-norm orthogonal pair."""


# ---------------------------------------------------------------------------
# group tables


@dataclass(frozen=True)
class FiniteGroupTable:
    """Finite group as a Cayley table over element indices 0..order-1.

    Index 0 is the identity.  `cayley[a, b]` is the index of a*b.
    """

    order: int
    cayley: np.ndarray
    generators: tuple[int, ...]
    names: tuple[str, ...]
    inverses: tuple[int, ...] = field(default=())

    def __post_init__(self):
        cay = np.asarray(self.cayley, dtype=int)
        n = self.order
        if cay.shape != (n, n):
            raise GroupBuildError(f"cayley table must be {n}x{n}")
        if cay.min() < 0 or cay.max() >= n:
            raise GroupBuildError("cayley entries out of range")
        idx = np.arange(n)
        if not (np.array_equal(cay[0], idx) and np.array_equal(cay[:, 0], idx)):
            raise GroupBuildError("index 0 is not a two-sided identity")
        # associativity: (a b) c == a (b c), vectorised over all triples
        left = cay[cay]          # left[a,b,c] = cay[cay[a,b], c]
        right = cay[:, cay]      # right[a,b,c] = cay[a, cay[b,c]]
        if not np.array_equal(left, right):
            raise GroupBuildError("cayley table is not associative")
        if not self.inverses:
            inv = [-1] * n
            for a in range(n):
                hits = np.where(cay[a] == 0)[0]
                if len(hits) != 1 or cay[hits[0], a] != 0:
                    raise GroupBuildError(f"element {a} lacks a two-sided inverse")
                inv[a] = int(hits[0])
            object.__setattr__(self, "inverses", tuple(inv))
        if len(self.names) != n:
            raise GroupBuildError("one name per element required")
        # generators must reach every element
        seen = {0}
        frontier = [0]
        gens = set(self.generators)
        while frontier:
            a = frontier.pop()
            for g in gens:
                b = int(cay[a, g])
                if b not in seen:
                    seen.add(b)
                    frontier.append(b)
        if len(seen) != n:
            raise GroupBuildError("generators do not generate the group")
        object.__setattr__(self, "cayley", cay)

    def mul(self, a: int, b: int) -> int:
        return int(self.cayley[a, b])

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def element_order(self, a: int) -> int:
        k, x = 1, a
        while x != 0:
            x = self.mul(x, a)
            k += 1
            if k > self.order:
                raise GroupBuildError("order computation diverged")
        return k


def build_cyclic(k: int) -> FiniteGroupTable:
    """Cyclic group Z_k; element i is the i-th power of the generator."""
    if k < 1:
        raise GroupBuildError("k must be >= 1")
    idx = np.arange(k)
    cay = (idx[:, None] + idx[None, :]) % k
    names = tuple("e" if i == 0 else ("g" if i == 1 else f"g^{i}") for i in range(k))
    gens = () if k == 1 else (1,)
    return FiniteGroupTable(order=k, cayley=cay, generators=gens, names=names)


@dataclass(frozen=True)
class InfiniteCyclicGroup:
    """Marker for an infinite cyclic (or free abelian) symmetry group.

    Only the generators are stored; checks quantify over a bounded
    word-length window.
    """

    n_generators: int = 1
    word_window: int = 4


# ---------------------------------------------------------------------------
# rigid motions and actions


@dataclass(frozen=True)
class RigidMotion:
    """Affine map x -> r * O x + b with O orthogonal and r > 0."""

    r: float
    O: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        O = np.asarray(self.O, dtype=float)
        b = np.asarray(self.b, dtype=float)
        n = O.shape[0]
        if O.shape != (n, n) or b.shape != (n,):
            raise GroupBuildError("inconsistent motion shapes")
        if self.r <= 0:
            raise GroupBuildError("dilation factor must be positive")
        if np.max(np.abs(O.T @ O - np.eye(n))) > 1e-9:
            raise GroupBuildError("matrix is not orthogonal")
        object.__setattr__(self, "O", O)
        object.__setattr__(self, "b", b)

    @property
    def dim(self) -> int:
        return self.O.shape[0]

    def linear(self) -> np.ndarray:
        """Differential of the motion, r * O."""
        return self.r * self.O

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.r * (self.O @ x) + self.b

    def compose(self, other: "RigidMotion") -> "RigidMotion":
        return RigidMotion(
            r=self.r * other.r,
            O=self.O @ other.O,
            b=self.r * (self.O @ other.b) + self.b,
        )

    def is_identity(self, tol: float = 1e-12) -> bool:
        n = self.dim
        return (
            abs(self.r - 1.0) <= tol
            and np.max(np.abs(self.O - np.eye(n))) <= tol
            and np.max(np.abs(self.b)) <= tol
        )

    @staticmethod
    def identity(n: int) -> "RigidMotion":
        return RigidMotion(1.0, np.eye(n), np.zeros(n))

    @staticmethod
    def rotation(n: int, O: np.ndarray) -> "RigidMotion":
        return RigidMotion(1.0, np.asarray(O, dtype=float), np.zeros(n))


@dataclass(frozen=True)
class SpaceAction:
    """Group action on R^dim by rigid motions.

    For a finite group, `motions[i]` matches element index i of `group`.
    For an infinite group, `motions` holds one motion per generator and
    arbitrary elements are reached as words in those generators.
    """

    group: FiniteGroupTable | InfiniteCyclicGroup
    motions: tuple[RigidMotion, ...]
    dim: int
    orthogonal: bool = True

    def __post_init__(self):
        if self.is_finite:
            if len(self.motions) != self.group.order:
                raise GroupBuildError("one motion per group element required")
            if not self.motions[0].is_identity(1e-9):
                raise GroupBuildError("motion of the identity must be the identity")
        else:
            if len(self.motions) != self.group.n_generators:
                raise GroupBuildError("one motion per generator required")
        for m in self.motions:
            if m.dim != self.dim:
                raise GroupBuildError("motion dimension mismatch")
            if self.orthogonal and (abs(m.r - 1.0) > 1e-12 or np.max(np.abs(m.b)) > 1e-12):
                raise GroupBuildError("orthogonal action cannot dilate or translate")

    @property
    def is_finite(self) -> bool:
        return isinstance(self.group, FiniteGroupTable)

    def motion(self, i: int) -> RigidMotion:
        """Motion of element i (finite) or of the i-th generator power word."""
        return self.motions[i]

    def generator_indices(self) -> tuple[int, ...]:
        if self.is_finite:
            return tuple(self.group.generators)
        return tuple(range(len(self.motions)))

    def generator_motion(self, i: int) -> RigidMotion:
        if self.is_finite:
            return self.motions[self.group.generators[i]]
        return self.motions[i]

    def motion_power(self, gen: int, j: int) -> RigidMotion:
        """j-th power of a generator motion (j may be negative)."""
        m = self.generator_motion(gen)
        out = RigidMotion.identity(self.dim)
        step = m if j >= 0 else RigidMotion(1.0 / m.r, m.O.T, -(m.O.T @ m.b) / m.r)
        for _ in range(abs(j)):
            out = out.compose(step)
        return out

    def homomorphism_residual(self) -> float:
        """max over tested pairs of || motion(g) motion(h) - motion(gh) ||."""
        worst = 0.0
        if self.is_finite:
            G = self.group
            for a in range(G.order):
                ma = self.motions[a]
                for b in range(G.order):
                    comp = ma.compose(self.motions[b])
                    tgt = self.motions[G.mul(a, b)]
                    d = max(
                        abs(comp.r - tgt.r),
                        np.max(np.abs(comp.O - tgt.O)),
                        np.max(np.abs(comp.b - tgt.b)),
                    )
                    worst = max(worst, d)
        else:
            win = self.group.word_window
            for g in range(len(self.motions)):
                for a in range(-win, win + 1):
                    for b in range(-win, win + 1):
                        comp = self.motion_power(g, a).compose(self.motion_power(g, b))
                        tgt = self.motion_power(g, a + b)
                        d = max(
                            abs(comp.r - tgt.r),
                            np.max(np.abs(comp.O - tgt.O)),
                            np.max(np.abs(comp.b - tgt.b)),
                        )
                        worst = max(worst, d)
        return float(worst)


def orthogonal_action(group: FiniteGroupTable, mats: list[np.ndarray]) -> SpaceAction:
    """Wrap a list of orthogonal matrices (aligned with the table) as an action."""
    n = np.asarray(mats[0]).shape[0]
    motions = tuple(RigidMotion.rotation(n, M) for M in mats)
    act = SpaceAction(group=group, motions=motions, dim=n, orthogonal=True)
    res = act.homomorphism_residual()
    if res > HOM_TOL:
        raise GroupBuildError(f"matrices do not represent the table, residual {res:.2e}")
    return act


# ---------------------------------------------------------------------------
# matrix closure builders for the rotation groups of the platonic solids


def _mat_key(M: np.ndarray) -> tuple:
    return tuple(np.round(M, _KEY_DECIMALS).ravel().tolist())


def _close_under_product(gens: list[np.ndarray], cap: int = 200) -> list[np.ndarray]:
    eye = np.eye(gens[0].shape[0])
    elems = [eye]
    keys = {_mat_key(eye): 0}
    frontier = [eye]
    while frontier:
        nxt = []
        for A in frontier:
            for G in gens:
                B = A @ G
                k = _mat_key(B)
                if k not in keys:
                    keys[k] = len(elems)
                    elems.append(B)
                    nxt.append(B)
                    if len(elems) > cap:
                        raise GroupBuildError("generator closure exceeded cap")
        frontier = nxt
    return elems


def _table_from_matrices(mats: list[np.ndarray], gen_mats: list[np.ndarray],
                         names: tuple[str, ...] | None = None) -> tuple[FiniteGroupTable, SpaceAction]:
    n = len(mats)
    keys = {_mat_key(M): i for i, M in enumerate(mats)}
    cay = np.zeros((n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            cay[a, b] = keys[_mat_key(mats[a] @ mats[b])]
    gens = tuple(keys[_mat_key(G)] for G in gen_mats)
    if names is None:
        names = tuple("e" if i == 0 else f"g{i}" for i in range(n))
    table = FiniteGroupTable(order=n, cayley=cay, generators=gens, names=names)
    return table, orthogonal_action(table, mats)


def rotation_about_axis(axis: np.ndarray, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix about a (not necessarily unit) axis."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    K = np.array([[0, -a[2], a[1]], [a[2], 0, -a[0]], [-a[1], a[0], 0]])
    return np.eye(3) + math.sin(angle) * K + (1 - math.cos(angle)) * (K @ K)


def plane_rotation_matrix(angle: float) -> np.ndarray:
    return rotation_about_axis(np.array([0.0, 0.0, 1.0]), angle)


def build_von_dyck(name: str) -> tuple[FiniteGroupTable, SpaceAction]:
    """Rotation groups acting on R^3: dihedral(k), A4, S4, A5.

    dihedral(k) is generated by the k-fold rotation about the third axis
    and a half-turn about the first axis; A4, S4, A5 are the rotation
    groups of the tetrahedron (order 12), cube (order 24) and
    icosahedron (order 60), built by closing standard generator
    rotations under multiplication.
    """
    name = name.strip()
    cyc3 = np.array([[0.0, 0, 1], [1, 0, 0], [0, 1, 0]])  # 3-fold about (1,1,1)
    if name.startswith("dihedral(") and name.endswith(")"):
        k = int(name[len("dihedral("):-1])
        if k < 1:
            raise GroupBuildError("dihedral order must be >= 1")
        r = plane_rotation_matrix(2 * math.pi / k)
        s = np.diag([1.0, -1.0, -1.0])
        gens = [s] if k == 1 else [r, s]
        mats = _close_under_product(gens)
        table, act = _table_from_matrices(mats, gens)
        expect = 2 * k
    elif name == "A4":
        gens = [cyc3, np.diag([-1.0, -1.0, 1.0])]
        mats = _close_under_product(gens)
        table, act = _table_from_matrices(mats, gens)
        expect = 12
    elif name == "S4":
        four = plane_rotation_matrix(math.pi / 2)
        gens = [four, cyc3]
        mats = _close_under_product(gens)
        table, act = _table_from_matrices(mats, gens)
        expect = 24
    elif name == "A5":
        phi = (1 + math.sqrt(5)) / 2
        five = rotation_about_axis(np.array([0.0, 1.0, phi]), 2 * math.pi / 5)
        gens = [five, cyc3]
        mats = _close_under_product(gens)
        table, act = _table_from_matrices(mats, gens)
        expect = 60
    else:
        raise GroupBuildError(f"unknown group name {name!r}")
    if table.order != expect:
        raise GroupBuildError(f"{name} closure gave order {table.order}, expected {expect}")
    return table, act


def regular_representation(group: FiniteGroupTable) -> SpaceAction:
    """Left regular action on C^|G| realified to R^{2|G|}.

    Element h permutes the complex basis by e_g -> e_{hg}; each complex
    coordinate occupies an interleaved (re, im) pair of real slots.  For
    every cyclic subgroup of order k the permutation has e^{2 pi i/k} as
    an eigenvalue, so an invariant rotation plane with angle 2 pi/k
    always exists in this action.
    """
    n = group.order
    motions = []
    for h in range(n):
        P = np.zeros((2 * n, 2 * n))
        for g in range(n):
            a = group.mul(h, g)
            P[2 * a, 2 * g] = 1.0
            P[2 * a + 1, 2 * g + 1] = 1.0
        motions.append(RigidMotion.rotation(2 * n, P))
    return SpaceAction(group=group, motions=tuple(motions), dim=2 * n, orthogonal=True)


# ---------------------------------------------------------------------------
# invariant rotation planes


@dataclass(frozen=True)
class PlaneRotationCertificate:
    """Oriented plane span(u, v) on which a group element acts as rotation.

    The frame satisfies |u| = |v| = 1 and u.v = 0, and the element's
    matrix maps u -> cos(angle) u + sin(angle) v,
    v -> -sin(angle) u + cos(angle) v.
    """

    element_index: int
    order: int
    angle: float
    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        if nu < 1e-14 or nv < 1e-14:
            raise DegenerateFrameError("zero frame vector")
        if abs(nu - nv) > 1e-10 * max(nu, nv) or abs(u @ v) > 1e-10 * nu * nv:
            raise DegenerateFrameError("frame is not an equal-norm orthogonal pair")
        object.__setattr__(self, "u", u / nu)
        object.__setattr__(self, "v", v / nv)

    def rotation_residual(self, M: np.ndarray) -> float:
        c, s = math.cos(self.angle), math.sin(self.angle)
        ru = M @ self.u - (c * self.u + s * self.v)
        rv = M @ self.v - (-s * self.u + c * self.v)
        return float(max(np.max(np.abs(ru)), np.max(np.abs(rv))))


@dataclass(frozen=True)
class Infeasible:
    """Evidence that no invariant rotation plane with the right angle exists."""

    element_index: int
    order: int
    eigenvalues: np.ndarray
    reason: str


def _eig_sorted(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lam, V = np.linalg.eig(M)
    order = sorted(range(len(lam)),
                   key=lambda i: (-abs(lam[i].imag), lam[i].real, lam[i].imag))
    idx = np.array(order, dtype=int)
    return lam[idx], V[:, idx]


def find_invariant_rotation_plane(action: SpaceAction, g: int, k: int):
    """Certificate that element g (of order k) rotates some 2-plane by 2*pi/k.

    Returns a PlaneRotationCertificate, or an Infeasible record carrying
    the eigenvalue evidence.  For k >= 3 the certificate comes from a
    complex eigenvector w with eigenvalue e^{2 pi i/k}: the plane
    spanned by (Re w, -Im w) is invariant and is rotated by +2 pi/k.
    For k = 2 the -1 eigenspace must be at least 2-dimensional.
    """
    if action.is_finite:
        actual = action.group.element_order(g)
        if actual != k:
            raise GroupBuildError(f"element {g} has order {actual}, not {k}")
    m = action.motion(g)
    if abs(m.r - 1.0) > 1e-12:
        raise GroupBuildError("stabiliser elements cannot dilate")
    M = m.O
    n = M.shape[0]
    if k == 1:
        return PlaneRotationCertificate(g, 1, 2 * math.pi,
                                        np.eye(n)[0], np.eye(n)[1])
    if k == 2:
        # need two independent real -1 eigendirections
        _, sv, VT = np.linalg.svd(M + np.eye(n))
        dim = int(np.sum(sv <= EIG_MATCH_TOL))
        if dim >= 2:
            basis = VT[n - dim:, :]
            u, v = basis[-1], basis[-2]
            cert = PlaneRotationCertificate(g, 2, math.pi, u, v)
            if cert.rotation_residual(M) > HOM_TOL:
                raise GroupBuildError("half-turn certificate failed validation")
            return cert
        lam = np.linalg.eigvals(M)
        return Infeasible(g, 2, lam,
                          "the -1 eigenspace has dimension < 2, so no invariant "
                          "plane is rotated by pi")
    target = complex(math.cos(2 * math.pi / k), math.sin(2 * math.pi / k))
    lam, V = _eig_sorted(M)
    for i in range(len(lam)):
        if abs(lam[i] - target) <= EIG_MATCH_TOL:
            w = V[:, i]
            u, v = w.real.copy(), -w.imag.copy()
            cert = PlaneRotationCertificate(g, k, 2 * math.pi / k, u, v)
            if cert.rotation_residual(M) > HOM_TOL:
                raise GroupBuildError("eigenplane certificate failed validation")
            return cert
    return Infeasible(g, k, lam,
                      f"no eigenvalue within {EIG_MATCH_TOL:g} of "
                      f"exp(2 pi i/{k})")


def null_line_from_plane(cert: PlaneRotationCertificate) -> np.ndarray:
    """Direction u - i v of the null line attached to an oriented plane.

    The vector satisfies sum_j w_j^2 = 0 because the frame has equal
    norms and is orthogonal; rotating the frame by the certificate angle
    multiplies the vector by e^{i angle}.
    """
    w = cert.u - 1j * cert.v
    s = complex(np.sum(w * w))
    if abs(s) > 1e-12 * float(np.real(np.vdot(w, w))):
        raise DegenerateFrameError("frame does not produce a null vector")
    return w
