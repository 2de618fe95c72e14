"""Calabi energy, Ricci potential, properness, convexity."""

import math
import warnings

import numpy as np
import pytest

import calabiflow as cf
import calabiflow.potential as potential_mod
from calabiflow.mesh import resolve_target
from _geometry_oracle import energy_gradient, velocity
from _util import (
    MESH_NAMES,
    disjoint_text,
    mesh,
    random_metric,
    random_weight,
    stellar_text,
    zero_weight,
)


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
            grad = energy_gradient(t, w, m)
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
    v = velocity(cf.FlowKind.calabi(), t, w, m)
    grad = energy_gradient(t, w, m)
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


def test_properness_probe_rows_are_running_sums_of_pieces():
    # each ray is integrated once, piece by piece between its sorted
    # distinct radii; a row is the running sum of its ray's pieces, and the
    # radii may come in any order and repeat
    t = mesh("octahedron")
    rng = np.random.default_rng(37)
    w = random_weight(rng, t)
    base = cf.constant_curvature_log_metric(t, w, random_metric(rng, t))
    d = rng.standard_normal((2, t.n_vertices))
    d -= d.mean(axis=1, keepdims=True)
    d /= np.linalg.norm(d, axis=1, keepdims=True)
    radii = (3.0, 0.5, 3.0, 1.5)
    rows = cf.properness_probe(t, w, base, directions=d, radii=radii)
    assert [(i, s) for i, s, _ in rows] == [(i, s) for i in range(2) for s in radii]
    for i, s, f in rows:
        levels = [0.0] + sorted(x for x in set(radii) if x <= s)
        pieces = [
            cf.ricci_potential(t, w, base.u + a * d[i], base.u + b * d[i])
            for a, b in zip(levels, levels[1:])
        ]
        assert f == float(np.cumsum(pieces)[-1])
        direct = cf.ricci_potential(t, w, base.u, base.u + s * d[i])
        assert f == pytest.approx(direct, rel=1e-12, abs=1e-12)


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
    lam = cf.assemble(t, w, base).lambda1()
    assert lam > 0.5
    t2 = mesh("tetrahedron")
    w2 = zero_weight(t2)
    base2 = cf.constant_curvature_log_metric(t2, w2)
    assert cf.assemble(t2, w2, base2).lambda1() == pytest.approx(
        4 / math.sqrt(3), abs=1e-8
    )


def test_constant_curvature_log_metric_properties():
    t = mesh("tetrahedron")
    w = zero_weight(t)
    rng = np.random.default_rng(34)
    seed = cf.PackingMetric.from_radii(rng.uniform(0.5, 2.0, 4))
    m = cf.constant_curvature_log_metric(t, w, seed_metric=seed)
    g = cf.compute_geometry(t, w, m)
    assert np.max(np.abs(g.curvatures - g.avg_curvature)) < 1e-10
    # the seed's log-radius sum is preserved
    assert m.u.sum() == pytest.approx(seed.u.sum(), abs=1e-9)


@pytest.mark.parametrize("name", MESH_NAMES)
def test_constant_curvature_log_metric_is_the_calabi_limit(name):
    # the Newton solve cross-checked against the Calabi flow, which
    # conserves sum u, so its limit is the metric of the seed's class
    t = mesh(name)
    rng = np.random.default_rng(35)
    w = random_weight(rng, t)
    seed = random_metric(rng, t)
    m = cf.constant_curvature_log_metric(t, w, seed_metric=seed)
    trace = cf.integrate(
        cf.FlowKind.calabi(), t, w, seed, cf.IntegratorOptions(curvature_tol=1e-12)
    )
    assert trace.status == "converged"
    u = trace.final_metric.u
    u = u - (u.sum() - seed.u.sum()) / t.n_vertices
    assert np.max(np.abs(m.u - u)) < 1e-10


def test_constant_curvature_failure_raises():
    # the constant curvature is not admissible here, so the solve cannot
    # reach it
    t = cf.parse_mesh(stellar_text(mesh("icosahedron")))
    w = cf.Weight.uniform(t, math.pi / 2)
    assert not cf.check_admissible(t, w, resolve_target(t, None)).admissible
    with pytest.raises(cf.NoConstantCurvatureMetric):
        cf.constant_curvature_log_metric(t, w)


def test_constant_curvature_from_a_seed_that_does_not_evaluate_raises():
    # the Newton start raises as the flows' start does, instead of ending
    # with no iterate at "max|K - K_av| = inf"
    t = mesh("octahedron")
    r = np.ones(t.n_vertices)
    r[0] = 1e200
    seed = cf.PackingMetric.from_radii(r)
    with pytest.raises(cf.InternalConsistencyError):
        cf.constant_curvature_log_metric(t, cf.Weight.uniform(t, 0.3), seed)


def test_constant_curvature_refuses_disconnected_surface():
    t = cf.parse_mesh(disjoint_text(mesh("tetrahedron"), mesh("octahedron")))
    with pytest.raises(cf.DomainError):
        cf.constant_curvature_log_metric(t, zero_weight(t))


def test_quadrature_error_at_node_cap(monkeypatch):
    t = mesh("tetrahedron")
    w = zero_weight(t)
    monkeypatch.setattr(potential_mod, "MAX_NODES", 16)
    with pytest.raises(cf.QuadratureError):
        cf.ricci_potential(t, w, np.zeros(4), np.array([2.0, -1.0, -0.5, -0.5]), tol=1e-300)


def test_ricci_potential_rejects_bad_tol_and_endpoints():
    t = mesh("tetrahedron")
    w = zero_weight(t)
    u1 = np.array([0.5, -0.5, 0.0, 0.0])
    for tol in (0.0, math.nan, -1.0, math.inf):
        with pytest.raises(cf.DomainError):
            cf.ricci_potential(t, w, np.zeros(4), u1, tol=tol)
    for bad in (math.nan, math.inf):
        u = u1.copy()
        u[0] = bad
        with pytest.raises(cf.DomainError):
            cf.ricci_potential(t, w, np.zeros(4), u)
        with pytest.raises(cf.DomainError):
            cf.ricci_potential(t, w, u, np.zeros(4))


def test_properness_probe_rejects_bad_radii():
    t = mesh("tetrahedron")
    w = zero_weight(t)
    base = cf.constant_curvature_log_metric(t, w)
    for radii in ((1.0, math.inf), (1.0, math.nan), (0.0,), (-1.0,)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(cf.DomainError):
                cf.properness_probe(t, w, base, radii=radii)


def test_properness_probe_refuses_empty_radii_and_directions():
    # the path test needs one ray and one radius
    t = mesh("tetrahedron")
    w = zero_weight(t)
    base = cf.constant_curvature_log_metric(t, w)
    for kwargs in (dict(radii=()), dict(directions=np.zeros((0, 4)))):
        with pytest.raises(cf.DomainError):
            cf.properness_probe(t, w, base, **kwargs)


def _shift_last_leg(ricci):
    """``ricci_potential`` with the last segment's value moved by 1e-3: a
    path leg that disagrees with the ray it should match."""

    def shifted(*args, **kwargs):
        values = ricci(*args, **kwargs).copy()
        values[-1] += 1e-3
        return values

    return shifted


def test_properness_probe_checks_path_independence(monkeypatch):
    # the form is closed, so a path off by more than PATH_TOL is a fault
    t = mesh("octahedron")
    w = zero_weight(t)
    base = cf.constant_curvature_log_metric(t, w)
    rows = cf.properness_probe(t, w, base)
    ricci = potential_mod.ricci_potential
    monkeypatch.setattr(potential_mod, "ricci_potential", _shift_last_leg(ricci))
    with pytest.raises(cf.InternalConsistencyError, match="path"):
        cf.properness_probe(t, w, base)
    # the rays' pieces come before the legs, so the rows did not move
    monkeypatch.setattr(potential_mod, "PATH_TOL", math.inf)
    assert cf.properness_probe(t, w, base) == rows


def test_properness_probe_too_far_raises_domain_error():
    # at radius 40 the cosine law fails in floating point at some
    # quadrature node of the tetrahedron's rays
    t = mesh("tetrahedron")
    w = zero_weight(t)
    base = cf.constant_curvature_log_metric(t, w)
    with pytest.raises(cf.DomainError, match="radius 40.0"):
        cf.properness_probe(t, w, base, radii=(1.0, 40.0))


def test_ricci_potential_overflow_raises_without_warning():
    # radii overflow to inf part way along the segment: the kernel reports
    # it through its error code, and numpy prints no RuntimeWarning first
    t = mesh("octahedron")
    u_to = np.array([800.0, 0.0, 0.0, 0.0, 0.0, -800.0])
    # alone, and as the middle row of a batch
    batch = np.zeros((3, 6))
    batch[0, :2] = (0.5, -0.5)
    batch[1] = u_to
    for end in (u_to, batch):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(cf.InternalConsistencyError):
                cf.ricci_potential(t, zero_weight(t), np.zeros(6), end)


@pytest.mark.parametrize("name", MESH_NAMES)
def test_batched_ricci_potential_matches_scalar_calls(name):
    # each segment stops at the order a call on it alone stops at, so
    # every value equals the scalar call's bit for bit
    t = mesh(name)
    rng = np.random.default_rng(36)
    w = random_weight(rng, t)
    u_from = rng.uniform(-0.7, 0.7, (5, t.n_vertices))
    u_to = rng.uniform(-0.7, 0.7, (5, t.n_vertices))
    u_to[2] = u_from[2]  # zero length inside the batch
    u_to[4] = u_from[4] + 0.5 * u_to[4]  # a shorter segment stops sooner
    vals = cf.ricci_potential(t, w, u_from, u_to)
    assert isinstance(vals, np.ndarray) and vals.shape == (5,)
    assert vals[2] == 0.0
    for v, a, b in zip(vals, u_from, u_to):
        assert v == cf.ricci_potential(t, w, a, b)
    # one start broadcast against a batch of ends, and a batch of one
    vals = cf.ricci_potential(t, w, u_from[0], u_to)
    for v, b in zip(vals, u_to):
        assert v == cf.ricci_potential(t, w, u_from[0], b)
    one = cf.ricci_potential(t, w, u_from[:1], u_to[0])
    scalar = cf.ricci_potential(t, w, u_from[0], u_to[0])
    assert isinstance(scalar, float) and one.shape == (1,) and one[0] == scalar


def test_ricci_potential_rejects_bad_shapes():
    t = mesh("tetrahedron")
    w = zero_weight(t)
    for u_from, u_to in (
        (np.zeros((3, 4)), np.ones((2, 4))),  # batches that do not broadcast
        (np.zeros(4), np.ones((2, 2, 4))),  # 3-D
        (np.zeros((2, 2, 4)), np.ones(4)),
        (np.zeros(4), np.ones(5)),  # wrong vertex count
        (np.zeros((2, 5)), np.ones((2, 5))),
        (np.zeros(()), np.ones(4)),  # 0-D
    ):
        with pytest.raises(cf.DomainError):
            cf.ricci_potential(t, w, u_from, u_to)


def test_properness_probe_validates_before_integrating(monkeypatch):
    # a bad radius or direction behind good ones is refused before any
    # quadrature; good input is one batched call whose rows equal the
    # scalar calls
    t = mesh("tetrahedron")
    w = zero_weight(t)
    base = cf.constant_curvature_log_metric(t, w)
    calls = []
    ricci = potential_mod.ricci_potential
    monkeypatch.setattr(
        potential_mod,
        "ricci_potential",
        lambda *a, **k: calls.append(1) or ricci(*a, **k),
    )
    good = np.array([[1.0, -1.0, 0.0, 0.0], [0.0, 0.0, 1.0, -1.0]])
    for directions, radii in (
        (good, (1.0, 2.0, -1.0)),
        (np.vstack([good, np.ones(4)]), (1.0, 2.0)),
        (np.vstack([good, np.zeros(4)]), (1.0, 2.0)),
    ):
        with pytest.raises(cf.DomainError):
            cf.properness_probe(t, w, base, directions=directions, radii=radii)
    assert calls == []
    rows = cf.properness_probe(t, w, base, directions=good, radii=(1.0, 3.0))
    assert len(calls) == 1
    assert [(i, s) for i, s, _ in rows] == [(0, 1.0), (0, 3.0), (1, 1.0), (1, 3.0)]
    for i, s, f in rows:
        d = good[i] / np.linalg.norm(good[i])
        assert f == ricci(t, w, base.u, base.u + s * d)
