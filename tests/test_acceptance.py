"""Acceptance battery.

Each test covers one acceptance criterion end to end and prints a
single PASS/FAIL line with the measured value and its gate.  Run with
`pytest tests/test_acceptance.py -v -s` to see the lines as they go.
"""

import math
import time

import numpy as np

from equimin.domain import (build_path_system, build_rotation_domain, circle,
                            FixedPointRecord)
from equimin.gallery import catenoid, enneper, flat_plane, helicoid
from equimin.periods import (PeriodTarget, compute_periods, flux_vector,
                             integrate_form, residue_at_puncture)
from equimin.solver import (build_period_spray, feasibility_check,
                            newton_correct)
from equimin.surface import (ImmersionField, PolarGrid, completeness_probe,
                             conformality_and_harmonicity, curvature,
                             equivariance_residual_F, nondegeneracy_check,
                             null_curve)
from equimin.symgroup import (Infeasible, PlaneRotationCertificate,
                              build_cyclic, build_von_dyck,
                              find_invariant_rotation_plane,
                              orthogonal_action, regular_representation,
                              rotation_about_axis)
from equimin.wdata import (local_model_at_fixed_point, nullity_residual,
                           sample_domain_points)

AX3 = np.array([0.0, 0.0, 1.0])


def report(num, ok, detail):
    line = f"criterion {num:2d} {'PASS' if ok else 'FAIL'}  {detail}"
    print(line)
    assert ok, line


def test_criterion_01_pointwise_nullity():
    grid = PolarGrid(1 / 3, 3.0, 200, 200).points().ravel()
    worst = 0.0
    for entry in (catenoid(3), enneper(2)):
        pts = grid if entry.data.domain.punctures else \
            sample_domain_points(entry.data.domain, len(grid), seed=1)
        worst = max(worst, nullity_residual(entry.data, pts))
    report(1, worst <= 1e-12,
           f"nullity residual {worst:.2e} <= 1e-12 on 200x200 grids")


def test_criterion_02_feasibility_battery():
    rng = np.random.default_rng(2024)
    agree = 0
    trials = 0
    while trials < 20:
        k = int(rng.integers(2, 7))
        j = int(rng.integers(1, k))
        if math.gcd(j, k) != 1:
            continue
        dim = int(rng.integers(3, 6))
        Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        a = 2 * math.pi * j / k
        M1 = np.eye(dim)
        M1[:2, :2] = [[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]]
        M = Q @ M1 @ Q.T
        group = build_cyclic(k)
        act = orthogonal_action(group, [np.linalg.matrix_power(M, p)
                                        for p in range(k)])
        _, dact = build_rotation_domain(k, seeds=())
        got = feasibility_check(dact, act).feasible
        lam = np.linalg.eigvals(M)
        if k == 2:
            want = int(np.sum(np.abs(lam + 1) < 1e-9)) >= 2
        else:
            want = bool(np.min(np.abs(lam - np.exp(2j * math.pi / k))) < 1e-9)
        agree += int(got == want)
        trials += 1
    group = build_cyclic(2)
    act = orthogonal_action(group, [np.eye(3), np.diag([1.0, 1.0, -1.0])])
    verdict = find_invariant_rotation_plane(act, 1, 2)
    reflection_rejected = isinstance(verdict, Infeasible)
    report(2, agree == 20 and reflection_rejected,
           f"{agree}/20 verdicts match the eigenvalue oracle, "
           f"reflection rejected={reflection_rejected}")


def test_criterion_03_regular_representation():
    ok = True
    detail = []
    for k in (2, 3, 4):
        act = regular_representation(build_cyclic(k))
        cert = find_invariant_rotation_plane(act, 1, k)
        good = isinstance(cert, PlaneRotationCertificate) and \
            abs(cert.angle - 2 * math.pi / k) < 1e-10
        ok &= good
        detail.append(f"Z{k}:{'ok' if good else 'no'}")
    group, _ = build_von_dyck("dihedral(3)")
    act = regular_representation(group)
    s3_ok = True
    for g in range(1, group.order):
        cert = find_invariant_rotation_plane(act, g, group.element_order(g))
        s3_ok &= isinstance(cert, PlaneRotationCertificate)
    ok &= s3_ok
    detail.append(f"S3:{'ok' if s3_ok else 'no'}")
    report(3, ok, "regular representation certificates " + " ".join(detail))


def test_criterion_04_local_models():
    worst = 0.0
    for k in range(2, 7):
        group = build_cyclic(k)
        mats = [rotation_about_axis(AX3, 2 * math.pi * j / k)
                for j in range(k)]
        cert = find_invariant_rotation_plane(
            orthogonal_action(group, mats), 1, k)
        model = local_model_at_fixed_point(FixedPointRecord(0j, k, 1), cert)
        worst = max(worst, model.equivariance_residual(n_samples=100))
    report(4, worst <= 1e-12,
           f"local model equivariance {worst:.2e} <= 1e-12 for k=2..6 "
           f"at 100 points")


class _Monomial:
    def __init__(self, n):
        self.n = n

    def f_theta(self, z):
        return np.stack([np.asarray(z, dtype=complex) ** self.n])

    def pole_points(self):
        return [0j] if self.n < 0 else []


def test_criterion_05_loop_integrals():
    worst = 0.0
    for m in range(-3, 4):
        for r in (0.6, 2.3):
            val = integrate_form(_Monomial(m - 1), circle(0j, r))[0]
            want = 2j * math.pi if m == 0 else 0.0
            worst = max(worst, abs(val - want))
    data = catenoid(3).data
    ps = build_path_system(data.domain, data.domain_action, data.basepoint)
    loop = compute_periods(data, ps).loop("loop:0")
    loop_err = float(np.max(np.abs(loop - np.array([0, 0, 2j * math.pi]))))
    report(5, worst <= 1e-12 and loop_err <= 1e-10,
           f"monomial loop table {worst:.2e} <= 1e-12, "
           f"catenoid loop period error {loop_err:.2e} <= 1e-10")


def test_criterion_06_newton_recovery():
    data = catenoid(3).data
    ps = build_path_system(data.domain, data.domain_action, data.basepoint)
    spray = build_period_spray(data, ps)
    rng = np.random.default_rng(1)
    t0 = rng.normal(size=spray.n_slots) + 1j * rng.normal(size=spray.n_slots)
    t0 *= 0.1 / np.linalg.norm(t0)
    start = time.time()
    res = newton_correct(spray, t_init=t0)
    elapsed = time.time() - start
    hist = res.residual_history
    quad = all(b <= 1e3 * a * a for a, b in zip(hist[-3:-1], hist[-2:]))
    ok = res.converged and res.iterations <= 12 and elapsed < 10.0 and quad
    report(6, ok,
           f"recovered in {res.iterations} iterations ({elapsed:.2f} s), "
           f"quadratic tail={quad}, final residual {hist[-1]:.2e}")


def test_criterion_07_immersion_equivariance():
    worst = 0.0
    names = []
    for entry in (catenoid(6), enneper(2), helicoid(2 * math.pi)):
        rep = equivariance_residual_F(ImmersionField(entry.data),
                                      n_samples=10000)
        worst = max(worst, rep["residual"])
        names.append(entry.name)
    report(7, worst <= 1e-9,
           f"immersion equivariance {worst:.2e} <= 1e-9 over 10^4 samples "
           f"({', '.join(names)})")


def _probe(entry):
    grid = entry.default_grid
    if isinstance(grid, PolarGrid):
        radii = np.geomspace(max(grid.r_in * 2, 0.3), grid.r_out * 0.8, 4)
        return [r * np.exp(1j * t) for r in radii
                for t in np.linspace(0.2, 5.9, 5)]
    us = np.linspace(grid.u0 * 0.8, grid.u1 * 0.8, 4)
    vs = np.linspace(grid.v0 + 0.1 * (grid.v1 - grid.v0),
                     grid.v1 - 0.1 * (grid.v1 - grid.v0), 4)
    return [complex(u, v) for u in us for v in vs]


def test_criterion_08_finite_difference_checks():
    worst = {"conformal_residual": 0.0, "harmonic_residual": 0.0,
             "weierstrass_residual": 0.0}
    for entry in (catenoid(3), enneper(2), helicoid(2 * math.pi)):
        rep = conformality_and_harmonicity(ImmersionField(entry.data),
                                           _probe(entry))
        for key in worst:
            worst[key] = max(worst[key], rep[key])
    ok = all(v <= 1e-6 for v in worst.values())
    report(8, ok,
           "FD residuals conformal {conformal_residual:.2e}, harmonic "
           "{harmonic_residual:.2e}, derivative-data "
           "{weierstrass_residual:.2e}, all <= 1e-6".format(**worst))


def test_criterion_09_total_curvature():
    field = ImmersionField(catenoid(3).data)
    R = 100.0
    rep = curvature(field, PolarGrid(1 / R, R, 257, 64))
    want_cat = -4 * math.pi * math.tanh(math.log(R))
    cat_rel = abs(rep["total_curvature"] - want_cat) / abs(want_cat)
    cat_ok = cat_rel <= 0.02 and rep["max_K"] <= 1e-6
    field_e = ImmersionField(enneper(1).data)
    Re = 50.0
    rep_e = curvature(field_e, PolarGrid(1e-3, Re, 257, 64))
    want_enn = -4 * math.pi * Re ** 2 / (1 + Re ** 2)
    enn_rel = abs(rep_e["total_curvature"] - want_enn) / abs(want_enn)
    enn_ok = enn_rel <= 0.05 and rep_e["max_K"] <= 1e-6
    report(9, cat_ok and enn_ok,
           f"catenoid annulus total within {cat_rel:.2%} of -4pi*tanh(log R) "
           f"(gate 2%), degree-1 fan within {enn_rel:.2%} (gate 5%), "
           f"K <= 1e-6 everywhere")


def test_criterion_10_nondegeneracy():
    full = nondegeneracy_check(ImmersionField(catenoid(3).data))
    planar = nondegeneracy_check(ImmersionField(flat_plane().data))
    ok = full["rank"] == 3 and full["nondegenerate"] and \
        planar["rank"] == 2 and not planar["nondegenerate"]
    report(10, ok,
           f"ambient rank {full['rank']}=3 on the catenoid, planar control "
           f"flagged at rank {planar['rank']}")


def test_criterion_11_flux_and_conjugate_curve():
    data = catenoid(3).data
    ps = build_path_system(data.domain, data.domain_action, data.basepoint)
    target = PeriodTarget({"loop:0": np.array([0, 0, 4 * math.pi])})
    target = target.validated(data, ps)
    spray = build_period_spray(data, ps)
    res = newton_correct(spray, target)
    ps2 = build_path_system(res.data.domain, res.data.domain_action,
                            res.data.basepoint)
    flux = flux_vector(compute_periods(res.data, ps2).loop("loop:0"))
    flux_err = float(np.max(np.abs(flux - [0, 0, 4 * math.pi])))
    enn = null_curve(ImmersionField(enneper(2).data), n_samples=16)
    cat = null_curve(ImmersionField(data), n_samples=16)
    obstruction = cat["flux_obstruction"] and \
        float(np.max(np.abs(cat["flux"]["loop:0"] - [0, 0, 2 * math.pi]))) \
        <= 1e-9
    ok = res.converged and flux_err <= 1e-9 and \
        enn["re_residual"] <= 1e-12 and not enn["flux_obstruction"] and \
        obstruction
    report(11, ok,
           f"pinned flux error {flux_err:.2e} <= 1e-9, conjugate-curve real "
           f"part residual {enn['re_residual']:.2e} <= 1e-12, vertical flux "
           f"obstruction detected={obstruction}")


def test_criterion_12_residues_and_completeness():
    data = catenoid(3).data
    r1 = residue_at_puncture(data, 0j, 0.5)
    r2 = residue_at_puncture(data, 0j, 1.7)
    res_err = float(np.max(np.abs(r1 - r2)))
    inward = completeness_probe(ImmersionField(data), end=0j,
                                rays=(0.0, 2.0), d_start=0.3)
    finite = completeness_probe(lambda z: abs(z) ** -0.5, end=0j)
    ok = res_err <= 1e-9 and inward["verdict"] == "diverging" and \
        finite["verdict"] == "finite length"
    report(12, ok,
           f"residue radius independence {res_err:.2e} <= 1e-9, boundary "
           f"probe verdicts: puncture '{inward['verdict']}', integrable "
           f"control '{finite['verdict']}'")
