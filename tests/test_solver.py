"""Spray construction and Newton correction of periods.

The feasibility battery cross-checks every verdict against a direct
eigenvalue search, and the convergence tests pin iteration counts and
the quadratic tail of the residual history.
"""

import math
import time

import numpy as np
import pytest

from equimin.domain import build_path_system, build_rotation_domain
from equimin.gallery import catenoid, enneper, flat_plane, helicoid
from equimin.periods import PeriodTarget, flux_vector
from equimin.solver import (NewtonConfig, NewtonError, SprayError, SprayFamily,
                            build_period_spray, feasibility_check,
                            interpolate_values, newton_correct,
                            period_jacobian, validate_spray)
from equimin.surface import (ImmersionField, PolarGrid, build_mesh,
                             conformality_and_harmonicity,
                             equivariance_residual_F)
from equimin.symgroup import (Infeasible, PlaneRotationCertificate,
                              build_cyclic, orthogonal_action,
                              rotation_about_axis)

SPRAY_INVARIANT_TOL = 1e-12
SIGMA_FLOOR = 1e-3


def block_rotation_matrix(k, j, dim, rng):
    """Random orthogonal conjugate of R(2 pi j / k) + identity padding."""
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    M = np.eye(dim)
    a = 2 * math.pi * j / k
    M[:2, :2] = [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
    return Q @ M @ Q.T


def test_feasibility_battery_matches_eigen_oracle():
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 20:
        k = int(rng.integers(2, 7))
        j = int(rng.integers(1, k))
        if math.gcd(j, k) != 1:
            continue
        dim = int(rng.integers(3, 6))
        M = block_rotation_matrix(k, j, dim, rng)
        group = build_cyclic(k)
        act = orthogonal_action(group, [np.linalg.matrix_power(M, p)
                                        for p in range(k)])
        dom, dact = build_rotation_domain(k, seeds=())
        report = feasibility_check(dact, act)
        lam = np.linalg.eigvals(M)
        target = np.exp(2j * math.pi / k)
        if k == 2:
            oracle = int(np.sum(np.abs(lam + 1) < 1e-9)) >= 2
        else:
            oracle = bool(np.min(np.abs(lam - target)) < 1e-9)
        assert report.feasible == oracle, (k, j, np.round(lam, 4))
        checked += 1


def test_feasibility_reports_reflection_failure():
    group = build_cyclic(2)
    act = orthogonal_action(group, [np.eye(3), np.diag([1.0, 1.0, -1.0])])
    dom, dact = build_rotation_domain(2, seeds=())
    report = feasibility_check(dact, act)
    assert not report.feasible
    assert len(report.failures) == 1
    record, verdict = report.failures[0]
    assert record.point == 0j
    assert isinstance(verdict, Infeasible)


def test_feasibility_on_punctured_catenoid_is_vacuous():
    # the rotation fixed point is punctured away, so there is nothing
    # to certify
    data = catenoid(3).data
    report = feasibility_check(data.domain_action, data.space_action)
    assert report.feasible
    assert report.entries == ()


def test_feasibility_on_enneper_produces_certificate():
    data = enneper(2).data
    report = feasibility_check(data.domain_action, data.space_action)
    assert report.feasible
    assert len(report.certificates) == 1
    assert isinstance(report.certificates[0], PlaneRotationCertificate)


def catenoid_spray(k=3):
    data = catenoid(k).data
    ps = build_path_system(data.domain, data.domain_action, data.basepoint)
    return build_period_spray(data, ps)


def test_spray_preserves_nullity_and_equivariance():
    rep = validate_spray(catenoid_spray())
    assert rep["nullity"] < SPRAY_INVARIANT_TOL
    assert rep["equivariance"] < SPRAY_INVARIANT_TOL
    # holomorphic integrand: no period around circles enclosing no
    # puncture, pole or fixed point
    assert rep["cauchy"] <= 1e-10


def test_spray_jacobian_is_well_conditioned():
    J = period_jacobian(catenoid_spray())
    assert J.duplicates == ()
    assert J.sigma_min > SIGMA_FLOOR


def test_jacobian_flags_duplicated_slots():
    spray = catenoid_spray()
    dup = SprayFamily(core=spray.core, paths=spray.paths,
                      slots=spray.slots + (spray.slots[0],))
    J = period_jacobian(dup)
    assert len(J.duplicates) == 1
    a, b = J.duplicates[0]
    assert a == b == spray.slots[0].key


@pytest.mark.parametrize("entry", [catenoid(3), enneper(2),
                                   helicoid(2 * math.pi)],
                         ids=lambda e: e.name)
def test_exact_input_converges_immediately(entry):
    data = entry.data
    ps = build_path_system(data.domain, data.domain_action, data.basepoint)
    spray = build_period_spray(data, ps)
    res = newton_correct(spray)
    assert res.converged
    assert res.iterations == 0


def test_newton_recovers_from_perturbed_start():
    spray = catenoid_spray()
    rng = np.random.default_rng(1)
    t0 = rng.normal(size=spray.n_slots) + 1j * rng.normal(size=spray.n_slots)
    t0 *= 0.1 / np.linalg.norm(t0)
    start = time.time()
    res = newton_correct(spray, t_init=t0)
    elapsed = time.time() - start
    assert res.converged
    assert res.iterations <= 12
    assert elapsed < 10.0
    hist = res.residual_history
    # quadratic tail: r_{k+1} <= C r_k^2 on the last contraction steps
    for a, b in zip(hist[-3:-1], hist[-2:]):
        assert b <= 1e3 * a * a


def test_flux_pinning_doubles_the_catenoid_neck():
    data = catenoid(3).data
    ps = build_path_system(data.domain, data.domain_action, data.basepoint)
    target = PeriodTarget({"loop:0": np.array([0.0, 0.0, 4 * math.pi])})
    target = target.validated(data, ps)
    spray = build_period_spray(data, ps)
    res = newton_correct(spray, target)
    assert res.converged
    from equimin.periods import compute_periods
    pv = compute_periods(res.data, build_path_system(
        res.data.domain, res.data.domain_action, res.data.basepoint))
    flux = flux_vector(pv.loop("loop:0"))
    assert np.max(np.abs(flux - [0, 0, 4 * math.pi])) < 1e-9
    # the solution is a pure dilation of the derivative data: every root
    # slot (p != 0) lands exactly on zero and the constant scale is log 2
    root = [ti for ti, s in zip(res.t, spray.slots) if s.p != 0]
    assert root and all(ti == 0 for ti in root)
    scales = [ti for ti, s in zip(res.t, spray.slots)
              if s.p == 0 and s.generator.kind == "scaling"]
    assert len(scales) == 1
    assert abs(scales[0] - math.log(2)) < 1e-10
    entry = catenoid(3)
    grid = PolarGrid(1 / 3, 3.0, 9, 9)
    mesh = build_mesh(ImmersionField(res.data), grid)
    want = np.array([2 * entry.closed_form_F(z) for z in grid.points().ravel()])
    assert np.max(np.abs(mesh.vertices - want)) < 1e-9


def test_rank_deficient_core_is_rejected():
    data = flat_plane().data
    ps = build_path_system(data.domain, data.domain_action, data.basepoint)
    with pytest.raises(SprayError):
        build_period_spray(data, ps)


def test_newton_error_carries_history():
    spray = catenoid_spray()
    rng = np.random.default_rng(1)
    t0 = rng.normal(size=spray.n_slots) + 1j * rng.normal(size=spray.n_slots)
    t0 *= 0.5 / np.linalg.norm(t0)
    with pytest.raises(NewtonError) as info:
        newton_correct(spray, config=NewtonConfig(max_iters=1), t_init=t0)
    assert len(info.value.history) == 2
    assert info.value.history[-1] < info.value.history[0]


def test_interpolation_pins_marked_value():
    data = catenoid(2).data
    ps = build_path_system(data.domain, data.domain_action, data.basepoint)
    spray = build_period_spray(data, ps)
    z0 = 1.4 + 0.3j
    want = ImmersionField(data).evaluate(z0) + np.array([0.0, 0.0, 0.05])
    spray2, target = interpolate_values(spray, [z0], [want])
    assert spray2.n_slots == spray.n_slots + 3
    res = newton_correct(spray2, target)
    assert res.converged
    got = ImmersionField(res.data).evaluate(z0)
    assert np.max(np.abs(got - want)) < 1e-9


def test_interpolation_accepts_consistent_orbit_pair():
    data = catenoid(2).data
    ps = build_path_system(data.domain, data.domain_action, data.basepoint)
    spray = build_period_spray(data, ps)
    z0 = 1.4 + 0.3j
    w = data.domain_action.apply(1, z0)
    val = np.array([0.3, -0.1, 0.2])
    moved = data.space_action.motion(1).apply(val)
    spray2, _ = interpolate_values(spray, [z0, w], [val, moved])
    # one orbit, one marked connector
    assert spray2.n_slots == spray.n_slots + 3


def test_interpolation_rejects_inconsistent_orbit_pair():
    data = catenoid(2).data
    ps = build_path_system(data.domain, data.domain_action, data.basepoint)
    spray = build_period_spray(data, ps)
    z0 = 1.4 + 0.3j
    w = data.domain_action.apply(1, z0)
    val = np.array([0.3, -0.1, 0.2])
    with pytest.raises(ValueError):
        interpolate_values(spray, [z0, w], [val, val + 1.0])


@pytest.mark.parametrize("perturbed", [False, True],
                         ids=["core_start", "perturbed_start"])
def test_interpolated_catenoid_is_harmonic_and_path_independent(perturbed):
    # deformed data must be a minimal surface on the whole domain, not
    # only at the marked point: FD harmonicity and two-path agreement on
    # rings through and around z0; the perturbed start leaves the root
    # slots non-zero
    data = catenoid(2).data
    ps = build_path_system(data.domain, data.domain_action, data.basepoint)
    z0 = 1.4 + 0.3j
    want = ImmersionField(data).evaluate(z0) + np.array([0.0, 0.0, 0.05])
    spray, target = interpolate_values(build_period_spray(data, ps),
                                       [z0], [want])
    t0 = None
    if perturbed:
        rng = np.random.default_rng(1)
        t0 = rng.normal(size=spray.n_slots) + 1j * rng.normal(size=spray.n_slots)
        t0 *= 0.1 / np.linalg.norm(t0)
    field = ImmersionField(newton_correct(spray, target, t_init=t0).data)
    pts = [r * np.exp(1j * a) for r in (0.5, 0.9, 1.2, 1.45, 2.0)
           for a in np.linspace(0.0, 2 * math.pi, 13, endpoint=False)]
    fd = conformality_and_harmonicity(field, pts)
    assert fd["harmonic_residual"] <= 1e-6
    assert max(field.two_path_residual(z) for z in pts) <= 1e-9


def test_perturbed_helicoid_is_equivariant_at_far_translates():
    data = helicoid(2 * math.pi).data
    ps = build_path_system(data.domain, data.domain_action, data.basepoint)
    spray = build_period_spray(data, ps)
    rng = np.random.default_rng(1)
    t0 = rng.normal(size=spray.n_slots) + 1j * rng.normal(size=spray.n_slots)
    t0 *= 0.1 / np.linalg.norm(t0)
    field = ImmersionField(newton_correct(spray, t_init=t0).data)
    rep = equivariance_residual_F(field, n_samples=16, seed=5,
                                  powers=(1, -1, 9, -9, 50, -50))
    assert rep["residual"] <= 1e-9
