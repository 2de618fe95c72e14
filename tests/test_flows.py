"""Flow kinds, guarded stepping, integration statuses, conservation laws."""

import math

import numpy as np
import pytest

import calabiflow as cf
from calabiflow.mesh import resolve_target
from _util import mesh, random_metric, random_weight, zero_weight

TWO_PI = 2 * math.pi
BAD_TETRA_TARGET = np.array([-TWO_PI, TWO_PI, TWO_PI, TWO_PI])


def test_kind_constructors_and_targets():
    t = mesh("tetrahedron")
    assert cf.FlowKind.calabi().uses_laplacian
    assert not cf.FlowKind.ricci_normalized().uses_laplacian
    assert cf.FlowKind.calabi_prescribed(np.ones(4)).uses_laplacian
    assert not cf.FlowKind.ricci_prescribed(np.ones(4)).uses_laplacian
    # unprescribed kinds target the average curvature
    tgt = resolve_target(t, cf.FlowKind.calabi().target)
    assert np.allclose(tgt, TWO_PI * t.chi / 4)
    with pytest.raises(cf.DomainError):
        resolve_target(t, cf.FlowKind.calabi_prescribed(np.ones(5)).target)
    with pytest.raises(cf.DomainError):
        resolve_target(t, cf.FlowKind.ricci_prescribed([np.inf, 0, 0, 0]).target)
    # every entry point that takes a target rejects a non-finite one
    w = zero_weight(t)
    m = cf.PackingMetric.from_radii(np.ones(4))
    for bad in ([np.nan, 1, 1, 1], [np.inf, 1, 1, 1]):
        with pytest.raises(cf.DomainError):
            cf.calabi_energy(t, w, m, target=bad)
        with pytest.raises(cf.DomainError):
            cf.ricci_potential(t, w, np.zeros(4), np.full(4, 0.1), target=bad)
        with pytest.raises(cf.DomainError):
            cf.integrate(cf.FlowKind.ricci_prescribed(bad), t, w, m)


def test_velocity_closed_forms():
    t = mesh("octahedron")
    rng = np.random.default_rng(20)
    w = random_weight(rng, t)
    m = random_metric(rng, t)
    g = cf.compute_geometry(t, w, m)
    lap = cf.assemble(t, w, m)
    dev = g.curvatures - g.avg_curvature
    v_calabi = cf.velocity(cf.FlowKind.calabi(), t, w, m)
    assert np.allclose(v_calabi, -(lap.matrix @ dev), rtol=1e-12, atol=1e-12)
    # the Laplacian kills the constant part, so Delta K works on K directly
    assert np.allclose(v_calabi, -(lap.matrix @ g.curvatures), rtol=0, atol=1e-10)
    v_ricci = cf.velocity(cf.FlowKind.ricci_normalized(), t, w, m)
    assert np.allclose(v_ricci, -dev, rtol=1e-15, atol=1e-15)
    tgt = np.full(6, TWO_PI / 3)
    v_cp = cf.velocity(cf.FlowKind.calabi_prescribed(tgt), t, w, m)
    assert np.allclose(v_cp, -(lap.matrix @ (g.curvatures - tgt)), rtol=1e-12, atol=1e-12)
    v_rp = cf.velocity(cf.FlowKind.ricci_prescribed(tgt), t, w, m)
    assert np.allclose(v_rp, tgt - g.curvatures, rtol=1e-15, atol=1e-15)


@pytest.mark.parametrize(
    "kind_name", ["calabi", "ricci_normalized", "calabi_prescribed", "ricci_prescribed"]
)
def test_curvature_derivative_identity(kind_name):
    # Finite differences along the flow direction must match L v (and the
    # closed form -L(LK) for the plain Calabi flow).
    t = mesh("octahedron")
    rng = np.random.default_rng(21)
    for _ in range(5):
        w = random_weight(rng, t)
        m = random_metric(rng, t)
        if kind_name in ("calabi_prescribed", "ricci_prescribed"):
            kind = getattr(cf.FlowKind, kind_name)(np.full(6, TWO_PI / 3))
        else:
            kind = getattr(cf.FlowKind, kind_name)()
        assert cf.curvature_derivative_check(kind, t, w, m) < 1e-5


def _one_step(kind, t, w, m, h):
    """One guarded explicit Euler step of size at most ``h``."""
    return cf.integrate(
        kind, t, w, m, cf.IntegratorOptions(initial_step=h, max_steps=1)
    )


def test_step_decreases_energy():
    t = mesh("tetrahedron")
    w = zero_weight(t)
    m = cf.PackingMetric.from_radii([2.0, 1.0, 1.0, 1.0])
    e0 = cf.calabi_energy(t, w, m)
    res = _one_step(cf.FlowKind.calabi(), t, w, m, 1e-2)
    assert res.accepted_steps == 1
    assert res.samples[-1].energy < e0
    assert res.t_final == 1e-2  # accepted at full size, not halved
    # an oversized step gets halved until the guard passes
    res_big = _one_step(cf.FlowKind.calabi(), t, w, m, 64.0)
    assert res_big.accepted_steps == 1
    assert res_big.t_final < 64.0
    assert res_big.samples[-1].energy < e0
    with pytest.raises(cf.DomainError):
        _one_step(cf.FlowKind.calabi(), t, w, m, 0.0)


def test_step_conserves_log_sum():
    t = mesh("octahedron")
    rng = np.random.default_rng(22)
    w = random_weight(rng, t)
    m = random_metric(rng, t)
    for kind in (cf.FlowKind.calabi(), cf.FlowKind.ricci_normalized()):
        res = _one_step(kind, t, w, m, 1e-2)
        assert res.accepted_steps == 1
        assert res.final_metric.u.sum() == pytest.approx(m.u.sum(), abs=1e-12)


def test_fixed_point_is_immediate():
    t = mesh("octahedron")
    m = cf.PackingMetric.from_radii(np.ones(6))
    tr = cf.integrate(cf.FlowKind.calabi(), t, zero_weight(t), m)
    assert tr.status == "converged"
    assert tr.accepted_steps == 0
    assert tr.t_final == 0.0
    assert len(tr.samples) == 1
    assert np.allclose(tr.final_metric.r, 1.0)


def test_tetrahedron_flow_frozen_run():
    # From r = (2,1,1,1) the Calabi flow reaches the constant-curvature
    # packing; sum u is conserved so the product of radii stays 2, which
    # pins the limit radii at 2**(1/4).
    t = mesh("tetrahedron")
    w = zero_weight(t)
    m0 = cf.PackingMetric.from_radii([2.0, 1.0, 1.0, 1.0])
    tr = cf.integrate(cf.FlowKind.calabi(), t, w, m0)
    assert tr.status == "converged"
    assert tr.accepted_steps == 119
    assert tr.max_curvature_deviation() < 1e-10
    assert np.prod(tr.final_metric.r) == pytest.approx(2.0, abs=1e-9)
    assert np.allclose(tr.final_metric.r, 2.0 ** 0.25, rtol=1e-8)
    assert tr.t_final == pytest.approx(3.8837493870592010, rel=1e-6)
    # the four kinds agree on the limit point
    tr2 = cf.integrate(cf.FlowKind.ricci_normalized(), t, w, m0)
    assert tr2.status == "converged"
    assert np.allclose(tr2.final_metric.r, tr.final_metric.r, rtol=1e-8)


def test_trace_samples_structure():
    t = mesh("tetrahedron")
    w = zero_weight(t)
    m0 = cf.PackingMetric.from_radii([2.0, 1.0, 1.0, 1.0])
    tr = cf.integrate(cf.FlowKind.calabi(), t, w, m0)
    ts = [s.t for s in tr.samples]
    assert ts[0] == 0.0
    assert all(b > a for a, b in zip(ts, ts[1:]))
    assert ts[-1] == tr.t_final
    # short runs record every accepted step
    assert len(tr.samples) == tr.accepted_steps + 1
    first = tr.samples[0]
    assert first.energy == pytest.approx(cf.calabi_energy(t, w, m0), rel=1e-12)
    assert np.allclose(tr.samples[-1].u, tr.final_metric.u)
    for s in tr.samples:
        assert s.step_size > 0
        assert np.isfinite(s.lambda1) and s.lambda1 > 0
    # energies never increase along a Calabi run
    es = [s.energy for s in tr.samples]
    assert all(b <= a for a, b in zip(es, es[1:]))
    # the limit spectrum matches the symmetric tetrahedron value
    assert tr.samples[-1].lambda1 == pytest.approx(4 / math.sqrt(3), abs=1e-8)


def _counting_lambda1(monkeypatch):
    calls = []
    original = cf.DualLaplacian.lambda1

    def counted(self):
        calls.append(self.n)
        return original(self)

    monkeypatch.setattr(cf.DualLaplacian, "lambda1", counted)
    return calls


@pytest.mark.parametrize(
    "kind_name", ["calabi", "ricci_normalized", "calabi_prescribed", "ricci_prescribed"]
)
def test_integrate_solves_no_eigenproblem(monkeypatch, kind_name):
    # lambda1 is a diagnostic: the run itself never computes it, and a
    # sample computes it once, on first access
    calls = _counting_lambda1(monkeypatch)
    t = mesh("octahedron")
    rng = np.random.default_rng(27)
    w = random_weight(rng, t)
    target = cf.compute_geometry(t, w, random_metric(rng, t)).curvatures
    make = getattr(cf.FlowKind, kind_name)
    kind = make(target) if "prescribed" in kind_name else make()
    tr = cf.integrate(kind, t, w, random_metric(rng, t))
    assert tr.status == "converged" and len(tr.samples) > 2
    assert calls == []
    lam = tr.samples[-1].lambda1
    assert tr.samples[-1].lambda1 == lam
    assert calls == [t.n_vertices]


@pytest.mark.parametrize("kind", [cf.FlowKind.calabi(), cf.FlowKind.ricci_normalized()])
def test_sample_lambda1_matches_assembled_laplacian(kind):
    t = mesh("icosahedron")
    rng = np.random.default_rng(28)
    w = random_weight(rng, t)
    tr = cf.integrate(kind, t, w, random_metric(rng, t))
    assert tr.status == "converged"
    for s in tr.samples:
        m = cf.PackingMetric.from_log_radii(s.u)
        assert s.lambda1 == cf.assemble(t, w, m).lambda1()


def test_conservation_laws_random_starts():
    t = mesh("octahedron")
    w = zero_weight(t)
    rng = np.random.default_rng(23)
    for _ in range(5):
        m0 = random_metric(rng, t)
        tr = cf.integrate(cf.FlowKind.calabi(), t, w, m0)
        assert tr.status == "converged"
        assert abs(tr.final_metric.u.sum() - m0.u.sum()) < 1e-9
        prod0 = float(np.prod(m0.r))
        assert float(np.prod(tr.final_metric.r)) == pytest.approx(prod0, rel=1e-8)


def test_prescribed_round_trip():
    t = mesh("octahedron")
    w = zero_weight(t)
    rng = np.random.default_rng(24)
    gen = random_metric(rng, t)
    tgt = cf.compute_geometry(t, w, gen).curvatures
    start = random_metric(rng, t)
    tr = cf.integrate(cf.FlowKind.calabi_prescribed(tgt), t, w, start)
    assert tr.status == "converged"
    assert tr.max_curvature_deviation() < 1e-9
    # global rigidity: after matching the radius product, the recovered
    # metric coincides with the generating one
    rec = tr.final_metric.r
    rec = rec * (np.prod(gen.r) / np.prod(rec)) ** (1.0 / t.n_vertices)
    assert np.max(np.abs(rec / gen.r - 1.0)) < 1e-6


def test_divergence_calabi_prescribed():
    t = mesh("tetrahedron")
    w = zero_weight(t)
    opts = cf.IntegratorOptions(u_max=12.0)
    tr = cf.integrate(
        cf.FlowKind.calabi_prescribed(BAD_TETRA_TARGET),
        t,
        w,
        cf.PackingMetric.from_radii(np.ones(4)),
        opts,
    )
    assert tr.status == "diverged"
    assert np.max(np.abs(tr.final_metric.u)) > 12.0
    # the escape starves the problem vertex of radius
    assert tr.final_metric.u[0] < -12.0


def test_divergence_ricci_prescribed_default_guard():
    t = mesh("tetrahedron")
    w = zero_weight(t)
    tr = cf.integrate(
        cf.FlowKind.ricci_prescribed(BAD_TETRA_TARGET),
        t,
        w,
        cf.PackingMetric.from_radii(np.ones(4)),
    )
    assert tr.status == "diverged"
    assert np.max(np.abs(tr.final_metric.u)) > 50.0
    assert tr.accepted_steps < 5000
    # the deep escape degenerates the dual weights in floating point, which
    # the final sample reports as a NaN lambda1 rather than an error
    assert math.isnan(tr.samples[-1].lambda1)


def test_step_limit_status():
    t = mesh("tetrahedron")
    w = zero_weight(t)
    m0 = cf.PackingMetric.from_radii([2.0, 1.0, 1.0, 1.0])
    opts = cf.IntegratorOptions(max_steps=5)
    tr = cf.integrate(cf.FlowKind.calabi(), t, w, m0, opts)
    assert tr.status == "step_limit"
    assert tr.accepted_steps == 5


def test_recenter_repairs_drift():
    # Force frequent re-centering and check sum u stays pinned.
    t = mesh("icosahedron")
    w = zero_weight(t)
    rng = np.random.default_rng(25)
    m0 = random_metric(rng, t)
    opts = cf.IntegratorOptions(recenter_interval=10)
    tr = cf.integrate(cf.FlowKind.calabi(), t, w, m0, opts)
    assert tr.status == "converged"
    assert abs(tr.final_metric.u.sum() - m0.u.sum()) < 1e-10


def test_options_validation():
    with pytest.raises(cf.DomainError):
        cf.IntegratorOptions(initial_step=0.0)
    with pytest.raises(cf.DomainError):
        cf.IntegratorOptions(max_step=-1.0)
    with pytest.raises(cf.DomainError):
        cf.IntegratorOptions(max_steps=0)
    with pytest.raises(cf.DomainError):
        cf.IntegratorOptions(curvature_tol=0.0)
    with pytest.raises(cf.DomainError):
        cf.IntegratorOptions(u_max=-5.0)
    # a zero interval divides by zero inside integrate, and a growth factor
    # below 1 shrinks the step until the whole step budget is spent
    for field in ("recenter_interval", "sample_target", "guard_panels",
                  "growth_interval"):
        with pytest.raises(cf.DomainError):
            cf.IntegratorOptions(**{field: 0})
        with pytest.raises(cf.DomainError):
            cf.IntegratorOptions(**{field: 2.5})
    with pytest.raises(cf.DomainError):
        cf.IntegratorOptions(max_halvings=-1)
    with pytest.raises(cf.DomainError):
        cf.IntegratorOptions(growth_factor=0.5)
    with pytest.raises(cf.DomainError):
        cf.IntegratorOptions(initial_step=float("nan"))
    cf.IntegratorOptions(growth_factor=1.0, max_halvings=0, guard_panels=1)


def test_integrate_size_mismatch():
    t = mesh("tetrahedron")
    with pytest.raises(cf.DomainError):
        cf.integrate(
            cf.FlowKind.calabi(),
            t,
            zero_weight(t),
            cf.PackingMetric.from_radii(np.ones(5)),
        )


def test_weighted_flow_converges():
    # Nonzero weights change the geometry but not the flow guarantees.
    t = mesh("octahedron")
    rng = np.random.default_rng(26)
    w = random_weight(rng, t, hi=np.pi / 3)
    m0 = random_metric(rng, t)
    tr = cf.integrate(cf.FlowKind.calabi(), t, w, m0)
    assert tr.status == "converged"
    g = cf.compute_geometry(t, w, tr.final_metric)
    assert np.max(np.abs(g.curvatures - g.avg_curvature)) < 1e-10
    es = [s.energy for s in tr.samples]
    assert all(b <= a for a, b in zip(es, es[1:]))
