"""Property-based checks over randomly generated inputs."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from equimin.domain import Segment, circle, winding_number
from equimin.nullgeom import (flow, is_null, quadratic_form, retract_to_null,
                              standard_generators)
from equimin.symgroup import (RigidMotion, plane_rotation_matrix,
                              rotation_about_axis)
from equimin.wdata import LaurentMap

finite = st.floats(min_value=-3.0, max_value=3.0,
                   allow_nan=False, allow_infinity=False)
angles = st.floats(min_value=-math.pi, max_value=math.pi,
                   allow_nan=False, allow_infinity=False)


def null_frame(a1, a2, a3, b1, b2, b3):
    """Orthonormalize two vectors into a null direction a + i b."""
    a = np.array([a1, a2, a3])
    b = np.array([b1, b2, b3])
    if np.linalg.norm(a) < 0.1:
        a = np.array([1.0, 0.0, 0.0])
    a = a / np.linalg.norm(a)
    b = b - np.dot(a, b) * a
    if np.linalg.norm(b) < 0.1:
        b = np.cross(a, [0.0, 0.0, 1.0])
        if np.linalg.norm(b) < 0.1:
            b = np.cross(a, [0.0, 1.0, 0.0])
    b = b / np.linalg.norm(b)
    return a + 1j * b


@given(finite, finite, finite, finite, finite, finite)
def test_null_frames_lie_on_quadric(a1, a2, a3, b1, b2, b3):
    z = null_frame(a1, a2, a3, b1, b2, b3)
    assert is_null(z, tol=1e-12)


@given(finite, finite, finite, finite, finite, finite,
       st.integers(min_value=0, max_value=3), angles, angles)
@settings(max_examples=60)
def test_flow_composition(a1, a2, a3, b1, b2, b3, gen_idx, s, t):
    z = null_frame(a1, a2, a3, b1, b2, b3)
    gen = standard_generators(3)[gen_idx]
    one = flow(gen, s + 1j * t, z)
    two = flow(gen, 1j * t, flow(gen, s, z))
    assert np.max(np.abs(one - two)) < 1e-10
    assert abs(quadratic_form(one)) < 1e-10


@given(st.lists(st.tuples(finite, finite, finite, finite, finite, finite,
                          angles, angles), min_size=1, max_size=12),
       st.integers(min_value=0, max_value=3))
@settings(max_examples=60)
def test_flow_per_column_times_match_scalar_flows(columns, gen_idx):
    # bump slots flow a stack of integrand values with one time per
    # column, global slots with one scalar time; both must agree bit for
    # bit.  Each column stays a (3, 1) stack: numpy's complex scalar
    # multiply rounds differently from its array loops.
    Z = np.column_stack([null_frame(*c[:6]) for c in columns])
    t = np.array([complex(c[6], c[7]) for c in columns])
    gen = standard_generators(3)[gen_idx]
    out = flow(gen, t, Z)
    want = np.hstack([flow(gen, t[k], Z[:, [k]]) for k in range(len(t))])
    assert np.array_equal(out, want)
    assert is_null(out, tol=1e-12)


@given(finite, finite, finite, finite, finite, finite,
       st.floats(min_value=-1e-6, max_value=1e-6))
def test_retract_idempotent_near_quadric(a1, a2, a3, b1, b2, b3, eps):
    z = null_frame(a1, a2, a3, b1, b2, b3) + eps
    once = retract_to_null(z).z
    twice = retract_to_null(once).z
    assert np.max(np.abs(once - twice)) < 1e-12


@given(angles, angles, finite, finite, finite, finite)
@settings(max_examples=40)
def test_rigid_motion_composition_is_associative(t1, t2, x1, x2, x3, shift):
    g = RigidMotion(1.0, plane_rotation_matrix(t1), np.array([shift, 0, 0]))
    h = RigidMotion(2.0, plane_rotation_matrix(t2), np.array([0, shift, 0]))
    k = RigidMotion(0.5, rotation_about_axis(np.array([0.0, 0, 1]), t1),
                    np.array([0, 0, shift]))
    x = np.array([x1, x2, x3])
    lhs = g.compose(h.compose(k)).apply(x)
    rhs = g.compose(h).compose(k).apply(x)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


@given(st.dictionaries(st.integers(min_value=-3, max_value=3),
                       st.complex_numbers(max_magnitude=2.0,
                                          allow_nan=False,
                                          allow_infinity=False),
                       min_size=1, max_size=4),
       st.integers(min_value=-2, max_value=2),
       st.complex_numbers(min_magnitude=0.5, max_magnitude=2.0,
                          allow_nan=False, allow_infinity=False))
@settings(max_examples=60)
def test_laurent_monomial_multiplication(coeffs, m, z):
    f = LaurentMap((coeffs, {0: 1.0}, {}))
    g = f.times_monomial(2.0, m)
    want = 2.0 * z ** m * f.eval(z)
    assert np.max(np.abs(g.eval(z) - want)) < 1e-9 * max(1, np.max(np.abs(want)))


@given(st.complex_numbers(max_magnitude=1.8, allow_nan=False,
                          allow_infinity=False))
@settings(max_examples=50)
def test_winding_number_partitions_plane(p):
    loop = circle(0j, 2.0)
    if abs(abs(p) - 2.0) < 0.1:
        return
    assert winding_number(loop, p) == (1 if abs(p) < 2.0 else 0)


@given(finite, finite, finite, finite)
@settings(max_examples=40)
def test_segment_point_is_affine(x0, y0, x1, y1):
    seg = Segment(complex(x0, y0), complex(x1, y1))
    for t in (0.0, 0.25, 0.5, 1.0):
        want = (1 - t) * seg.start + t * seg.end
        assert abs(seg.point(t) - want) < 1e-12
