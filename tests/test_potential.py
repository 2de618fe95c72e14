"""Calabi energy, Ricci potential, properness, convexity."""

import math
import warnings

import numpy as np
import pytest

import calabiflow as cf
import calabiflow.potential as potential_mod
from _util import mesh, random_metric, random_weight, zero_weight


def test_calabi_energy_zero_at_constant_curvature():
    t = mesh("octahedron")
    w = zero_weight(t)
    m = cf.PackingMetric.from_radii(np.ones(6))
    assert cf.calabi_energy(t, w, m) < 1e-20
    m2 = cf.PackingMetric.from_radii([2.0, 1.0, 1.0, 1.0, 1.0, 1.0])
    assert cf.calabi_energy(t, w, m2) > 1e-2


def test_energy_gradient_matches_fd():
    # Central differences of the energy are the independent oracle here.
    rng = np.random.default_rng(30)
    s = 1e-6
    for name in ("tetrahedron", "octahedron"):
        t = mesh(name)
        for _ in range(5):
            w = random_weight(rng, t)
            m = random_metric(rng, t)
            grad = cf.energy_gradient(t, w, m)
            fd = np.empty(t.n_vertices)
            for j in range(t.n_vertices):
                up = m.u.copy()
                up[j] += s
                um = m.u.copy()
                um[j] -= s
                ep = cf.calabi_energy(t, w, cf.PackingMetric.from_log_radii(up))
                em = cf.calabi_energy(t, w, cf.PackingMetric.from_log_radii(um))
                fd[j] = (ep - em) / (2 * s)
            assert np.max(np.abs(grad - fd)) < 1e-5
            # the energy gradient sums to zero: the flow conserves sum u
            assert abs(grad.sum()) < 1e-10


def test_gradient_flow_consistency():
    # velocity of the Calabi kind is minus half the energy gradient
    t = mesh("octahedron")
    rng = np.random.default_rng(31)
    w = random_weight(rng, t)
    m = random_metric(rng, t)
    v = cf.velocity(cf.FlowKind.calabi(), t, w, m)
    grad = cf.energy_gradient(t, w, m)
    assert np.allclose(v, -0.5 * grad, rtol=1e-12, atol=1e-12)


def test_ricci_potential_path_independence():
    rng = np.random.default_rng(32)
    for name in ("tetrahedron", "octahedron"):
        t = mesh(name)
        w = random_weight(rng, t)
        for _ in range(10):
            u0 = rng.uniform(-0.7, 0.7, t.n_vertices)
            u1 = rng.uniform(-0.7, 0.7, t.n_vertices)
            mid = rng.uniform(-0.7, 0.7, t.n_vertices)
            direct = cf.ricci_potential(t, w, u0, u1)
            via = cf.ricci_potential(t, w, u0, mid) + cf.ricci_potential(t, w, mid, u1)
            assert abs(direct - via) <= 1e-7 * (1.0 + abs(direct))


def test_ricci_potential_antisymmetry_and_shift():
    t = mesh("tetrahedron")
    w = zero_weight(t)
    rng = np.random.default_rng(33)
    u0 = rng.uniform(-0.5, 0.5, 4)
    u1 = rng.uniform(-0.5, 0.5, 4)
    f01 = cf.ricci_potential(t, w, u0, u1)
    f10 = cf.ricci_potential(t, w, u1, u0)
    assert f01 == pytest.approx(-f10, abs=1e-9)
    # along the constant direction the integrand vanishes by Gauss-Bonnet
    fc = cf.ricci_potential(t, w, u0, u0 + 0.8)
    assert abs(fc) < 1e-9
    # zero-length path
    assert cf.ricci_potential(t, w, u0, u0) == 0.0


def test_ricci_potential_vanishing_gradient_at_minimum():
    # Near the constant-curvature metric the potential is quadratic, so
    # f(u* -> u* + eps d) ~ O(eps^2) for zero-sum directions d.
    t = mesh("tetrahedron")
    w = zero_weight(t)
    base = cf.constant_curvature_log_metric(t, w)
    d = np.array([1.0, -1.0, 0.5, -0.5])
    vals = []
    for eps in (1e-3, 1e-4):
        vals.append(cf.ricci_potential(t, w, base.u, base.u + eps * d, tol=1e-12))
    # quadratic scaling: shrinking eps by 10 shrinks f by ~100
    assert vals[0] > 0
    assert vals[1] == pytest.approx(vals[0] / 100.0, rel=0.05)


def test_properness_probe_monotone_rays():
    t = mesh("tetrahedron")
    w = zero_weight(t)
    base = cf.constant_curvature_log_metric(t, w)
    rows = cf.properness_probe(t, w, base)
    assert len(rows) == (t.n_vertices - 1) * 4
    by_dir = {}
    for idx, s, f in rows:
        assert f >= -1e-9
        by_dir.setdefault(idx, []).append((s, f))
    for idx, vals in by_dir.items():
        fs = [f for _, f in sorted(vals)]
        assert all(b > a for a, b in zip(fs, fs[1:]))


def test_properness_probe_rejects_bad_directions():
    t = mesh("tetrahedron")
    w = zero_weight(t)
    base = cf.constant_curvature_log_metric(t, w)
    with pytest.raises(cf.DomainError):
        cf.properness_probe(t, w, base, directions=np.ones((1, 4)))


def test_restricted_hessian_positive():
    # Transverse convexity at the minimum: the reduced Hessian (which is
    # the dual Laplacian there) has a positive smallest eigenvalue.
    t = mesh("octahedron")
    w = zero_weight(t)
    base = cf.constant_curvature_log_metric(t, w)
    lam = cf.restricted_hessian_check(t, w, base)
    assert lam > 0.5
    t2 = mesh("tetrahedron")
    w2 = zero_weight(t2)
    base2 = cf.constant_curvature_log_metric(t2, w2)
    assert cf.restricted_hessian_check(t2, w2, base2) == pytest.approx(
        4 / math.sqrt(3), abs=1e-8
    )


def test_constant_curvature_log_metric_properties():
    t = mesh("tetrahedron")
    w = zero_weight(t)
    rng = np.random.default_rng(34)
    seed = cf.PackingMetric.from_radii(rng.uniform(0.5, 2.0, 4))
    m = cf.constant_curvature_log_metric(t, w, seed_metric=seed, tol=1e-11)
    g = cf.compute_geometry(t, w, m)
    assert np.max(np.abs(g.curvatures - g.avg_curvature)) < 1e-10
    # the seed's log-radius sum is preserved
    assert m.u.sum() == pytest.approx(seed.u.sum(), abs=1e-9)


def test_constant_curvature_failure_raises():
    t = mesh("tetrahedron")
    w = zero_weight(t)
    seed = cf.PackingMetric.from_radii([2.0, 1.0, 1.0, 1.0])
    with pytest.raises(cf.NoConstantCurvatureMetric):
        cf.constant_curvature_log_metric(
            t, w, seed_metric=seed,
            opts=cf.IntegratorOptions(curvature_tol=1e-12, max_steps=50),
        )  # the budget is exhausted long before the tolerance is met


def test_quadrature_error_at_panel_cap(monkeypatch):
    t = mesh("tetrahedron")
    w = zero_weight(t)
    monkeypatch.setattr(potential_mod, "MAX_PANELS", 8)
    with pytest.raises(cf.QuadratureError):
        cf.ricci_potential(t, w, np.zeros(4), np.array([2.0, -1.0, -0.5, -0.5]), tol=1e-16)


def test_ricci_potential_overflow_raises_without_warning():
    # radii overflow to inf part way along the segment: the kernel reports
    # it through its error code, and numpy prints no RuntimeWarning first
    t = mesh("octahedron")
    u_to = np.array([800.0, 0.0, 0.0, 0.0, 0.0, -800.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(cf.InternalConsistencyError):
            cf.ricci_potential(t, zero_weight(t), np.zeros(6), u_to)
