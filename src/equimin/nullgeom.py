"""Geometry of the null quadric { z in C^n : z_1^2 + ... + z_n^2 = 0 }.

Weierstrass integrands take values in the punctured quadric.  This
module supplies membership tests, a Newton retraction onto the quadric,
the action of rigid-motion differentials, and one-parameter flows that
preserve the quadric exactly: complex rotations in coordinate planes
and global complex scaling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

NULL_TOL = 1e-10          # default relative membership tolerance
RETRACT_PRE_TOL = 1e-4    # largest relative defect the retraction accepts
RETRACT_POST_TOL = 1e-14  # membership after retraction
FLOW_TOL = 1e-12          # quadric preservation along flows


class QuadricError(ValueError):
    """Raised for vectors that cannot be treated as (near-)null."""


def quadratic_form(z: np.ndarray) -> np.ndarray:
    """sum_j z_j^2 along the first axis (no conjugation)."""
    z = np.asarray(z, dtype=complex)
    return np.sum(z * z, axis=0)


def is_null(z: np.ndarray, tol: float = NULL_TOL) -> bool:
    """Scale-aware membership: |sum z_j^2| <= tol * max(1, |z|^2)."""
    z = np.asarray(z, dtype=complex)
    q = np.abs(quadratic_form(z))
    scale = np.maximum(1.0, np.sum(np.abs(z) ** 2, axis=0))
    return bool(np.all(q <= tol * scale))


@dataclass(frozen=True)
class NullVector:
    """A vector certified to lie on the null quadric."""

    z: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=complex)
        if z.ndim != 1:
            raise QuadricError("null vectors are one-dimensional arrays")
        if not is_null(z):
            raise QuadricError("vector is not on the null quadric")
        object.__setattr__(self, "z", z)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.z))


def retract_to_null(z: np.ndarray, tol: float = RETRACT_POST_TOL) -> NullVector:
    """Project a nearly null vector back onto the quadric.

    Runs Newton steps on q(z) = sum z_j^2 along the conjugate-gradient
    direction; each step moves by |q| / (2 |z|), so the total
    displacement is bounded by 10 |q| / |z| for admissible inputs.
    """
    z = np.asarray(z, dtype=complex).copy()
    nz2 = float(np.sum(np.abs(z) ** 2))
    if nz2 == 0.0:
        raise QuadricError("zero vector has no retraction direction")
    q = complex(np.sum(z * z))
    if abs(q) > RETRACT_PRE_TOL * nz2:
        raise QuadricError(
            f"defect {abs(q):.2e} exceeds {RETRACT_PRE_TOL:g} * |z|^2, "
            "input is too far from the quadric")
    for _ in range(8):
        q = complex(np.sum(z * z))
        nz2 = float(np.sum(np.abs(z) ** 2))
        if abs(q) <= tol * max(1.0, nz2):
            break
        z = z - q * np.conj(z) / (2.0 * nz2)
    return NullVector(z)


def apply_motion_differential(motion, z: np.ndarray) -> np.ndarray:
    """Apply the differential r * O of a rigid motion to quadric vectors.

    Orthogonal matrices and positive dilations preserve sum z_j^2 = 0,
    so the image stays on the quadric.
    """
    z = np.asarray(z, dtype=complex)
    return motion.r * (motion.O @ z)


@dataclass(frozen=True)
class QuadricFlowGenerator:
    """Generator of a holomorphic one-parameter group preserving the quadric.

    kind "rotation" rotates the complex coordinate plane (i, j) through
    a complex angle; kind "scaling" multiplies by e^t.  Both fix the
    quadratic form up to the exact factor e^{2t} in the scaling case,
    so null vectors stay null for every complex parameter.
    """

    kind: str
    i: int = 0
    j: int = 1

    def __post_init__(self):
        if self.kind not in ("rotation", "scaling"):
            raise QuadricError(f"unknown flow kind {self.kind!r}")
        if self.kind == "rotation" and self.i == self.j:
            raise QuadricError("rotation plane needs two distinct axes")

    def matrix(self, n: int) -> np.ndarray:
        """Infinitesimal generator as an n x n complex matrix."""
        if self.kind == "scaling":
            return np.eye(n, dtype=complex)
        G = np.zeros((n, n), dtype=complex)
        G[self.i, self.j] = -1.0
        G[self.j, self.i] = 1.0
        return G

    def label(self) -> str:
        if self.kind == "scaling":
            return "scale"
        return f"rot({self.i},{self.j})"


def flow(gen: QuadricFlowGenerator, t, z: np.ndarray) -> np.ndarray:
    """Flow a vector (or a stack of column vectors) for complex time t.

    `t` is a scalar, or one time per column of `z`.  Closed-form
    evaluation; flow(gen, 0, z) is the identity and
    flow(gen, s, flow(gen, t, z)) = flow(gen, s + t, z).
    """
    z = np.asarray(z, dtype=complex)
    if gen.kind == "scaling":
        return z * np.exp(t)
    out = z.copy()
    c, s = np.cos(t), np.sin(t)
    zi, zj = z[gen.i], z[gen.j]
    out[gen.i] = c * zi - s * zj
    out[gen.j] = s * zi + c * zj
    return out


def standard_generators(n: int) -> list[QuadricFlowGenerator]:
    """All coordinate-plane rotations plus the global scaling, fixed order."""
    gens = [QuadricFlowGenerator("rotation", i, j)
            for i in range(n) for j in range(i + 1, n)]
    gens.append(QuadricFlowGenerator("scaling"))
    return gens
