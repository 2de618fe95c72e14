"""Flow kinds, guarded stepping, integration statuses, conservation laws."""

import dataclasses
import math
import sys

import numpy as np
import pytest

import calabiflow as cf
from calabiflow import _kernels, thurston
from calabiflow.geometry import _mesh_arrays
from calabiflow.mesh import resolve_target
from calabiflow.meshes import subdivide
from _geometry_oracle import curvature_derivative_check, velocity
from _util import disjoint_text, mesh, random_metric, random_weight, zero_weight

TWO_PI = 2 * math.pi
BAD_TETRA_TARGET = np.array([-TWO_PI, TWO_PI, TWO_PI, TWO_PI])


@pytest.mark.parametrize("name", cf.flows.KIND_NAMES)
@pytest.mark.parametrize("target", [None, np.full(4, math.pi)])
def test_kind_checks_its_name_and_target(name, target):
    # a target is given exactly for the prescribed kinds
    if name.endswith("_prescribed") == (target is not None):
        kind = cf.FlowKind(name, target)
        assert kind.name == name and kind.uses_laplacian == name.startswith("calabi")
        if target is not None:
            assert kind.target.dtype == np.float64 and np.all(kind.target == target)
    else:
        with pytest.raises(cf.DomainError, match=name):
            cf.FlowKind(name, target)


def test_kind_refuses_unknown_names_and_has_two_fields():
    for name in ("warp", "Calabi", "calabi_normalized", ""):
        with pytest.raises(cf.DomainError, match="unknown flow kind"):
            cf.FlowKind(name)
    assert [f.name for f in dataclasses.fields(cf.FlowKind)] == ["name", "target"]


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
    # every entry point that takes a target rejects a non-finite one, and
    # one whose sum of squares overflows
    w = zero_weight(t)
    m = cf.PackingMetric.from_radii(np.ones(4))
    for bad in ([np.nan, 1, 1, 1], [np.inf, 1, 1, 1], [1e200, 1, 1, 1]):
        with pytest.raises(cf.DomainError):
            cf.calabi_energy(t, w, m, target=bad)
        with pytest.raises(cf.DomainError):
            cf.ricci_potential(t, w, np.zeros(4), np.full(4, 0.1), target=bad)
        with pytest.raises(cf.DomainError):
            cf.integrate(cf.FlowKind.ricci_prescribed(bad), t, w, m)
        with pytest.raises(cf.DomainError):
            cf.check_admissible(t, w, bad)


def test_velocity_closed_forms():
    t = mesh("octahedron")
    rng = np.random.default_rng(20)
    w = random_weight(rng, t)
    m = random_metric(rng, t)
    g = cf.compute_geometry(t, w, m)
    lap = cf.assemble(t, w, m)
    dev = g.curvatures - g.avg_curvature
    v_calabi = velocity(cf.FlowKind.calabi(), t, w, m)
    assert np.allclose(v_calabi, -(lap.matrix @ dev), rtol=1e-12, atol=1e-12)
    # the Laplacian kills the constant part, so Delta K works on K directly
    assert np.allclose(v_calabi, -(lap.matrix @ g.curvatures), rtol=0, atol=1e-10)
    v_ricci = velocity(cf.FlowKind.ricci_normalized(), t, w, m)
    assert np.allclose(v_ricci, -dev, rtol=1e-15, atol=1e-15)
    tgt = np.full(6, TWO_PI / 3)
    v_cp = velocity(cf.FlowKind.calabi_prescribed(tgt), t, w, m)
    assert np.allclose(v_cp, -(lap.matrix @ (g.curvatures - tgt)), rtol=1e-12, atol=1e-12)
    v_rp = velocity(cf.FlowKind.ricci_prescribed(tgt), t, w, m)
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
        assert curvature_derivative_check(kind, t, w, m) < 1e-5


def _one_step(monkeypatch, kind, t, w, m, h):
    """One guarded step of size at most ``h``."""
    monkeypatch.setattr(_kernels, "INITIAL_STEP", h)
    return cf.integrate(kind, t, w, m, cf.IntegratorOptions(max_steps=1))


def test_step_decreases_energy(monkeypatch):
    t = mesh("tetrahedron")
    w = zero_weight(t)
    m = cf.PackingMetric.from_radii([2.0, 1.0, 1.0, 1.0])
    e0 = cf.calabi_energy(t, w, m)
    res = _one_step(monkeypatch, cf.FlowKind.calabi(), t, w, m, 1e-2)
    assert res.accepted_steps == 1
    assert res.samples[-1].energy < e0
    assert res.t_final == 1e-2  # accepted at full size, not halved
    # a step that Chebyshev stages keep stable is accepted at full size
    res_staged = _one_step(monkeypatch, cf.FlowKind.calabi(), t, w, m, 64.0)
    assert res_staged.accepted_steps == 1
    assert res_staged.t_final == 64.0
    assert res_staged.samples[-1].energy < e0
    # an oversized step, past what MAX_STAGES stages keep stable, gets
    # halved until the guard passes
    B = _kernels.state(m.r, _mesh_arrays(t, w)).B
    ea, eb = t.edges[:, 0], t.edges[:, 1]
    d = np.bincount(ea, B, t.n_vertices) + np.bincount(eb, B, t.n_vertices)
    h_big = 2.0 * _kernels._rkc(_kernels.MAX_STAGES)[0] / float((d[ea] + d[eb]).max()) ** 2
    res_big = _one_step(monkeypatch, cf.FlowKind.calabi(), t, w, m, h_big)
    assert res_big.accepted_steps == 1
    assert res_big.t_final < h_big
    assert res_big.samples[-1].energy < e0


def test_step_conserves_log_sum(monkeypatch):
    t = mesh("octahedron")
    rng = np.random.default_rng(22)
    w = random_weight(rng, t)
    m = random_metric(rng, t)
    for kind in (cf.FlowKind.calabi(), cf.FlowKind.ricci_normalized()):
        res = _one_step(monkeypatch, kind, t, w, m, 1e-2)
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


# (case, kind, start radii, max_steps, SAMPLE_TARGET,
# status, samples); step_limit ends on a stride boundary (the last step is
# a stride record) and off one (the end adds a record)
ENDS = [
    ("start", "calabi", "ones", 10**6, 1000, "converged", 1),
    ("converged", "calabi", "random", 10**6, 1000, "converged", None),
    ("diverged", "ricci_prescribed", "ones", 10**6, 1000, "diverged", None),
    ("on_stride", "calabi", "random", 6, 2, "step_limit", 6),
    ("off_stride", "calabi", "random", 7, 2, "step_limit", 7),
]


@pytest.mark.parametrize("case", ENDS, ids=[e[0] for e in ENDS])
def test_every_end_records_the_final_state_once(monkeypatch, case):
    # every run leaves advance at its one exit, which records the final
    # state unless the last step was just recorded
    _, name, radii, max_steps, sample_target, status, n_samples = case
    monkeypatch.setattr(_kernels, "SAMPLE_TARGET", sample_target)
    t = mesh("tetrahedron")
    ones = cf.PackingMetric.from_radii(np.ones(4))
    m0 = ones if radii == "ones" else random_metric(np.random.default_rng(5), t)
    kind = cf.FlowKind(name, BAD_TETRA_TARGET if name.endswith("_prescribed") else None)
    opts = cf.IntegratorOptions(max_steps=max_steps)
    tr = cf.integrate(kind, t, zero_weight(t), m0, opts)
    assert tr.status == status
    if n_samples is not None:
        assert len(tr.samples) == n_samples
    assert np.array_equal(tr.samples[-1].u, tr.final_metric.u)
    assert tr.samples[-1].t == tr.t_final
    ts = [s.t for s in tr.samples]
    assert len(set(ts)) == len(ts)


def test_step_limit_status():
    t = mesh("tetrahedron")
    w = zero_weight(t)
    m0 = cf.PackingMetric.from_radii([2.0, 1.0, 1.0, 1.0])
    opts = cf.IntegratorOptions(max_steps=5)
    tr = cf.integrate(cf.FlowKind.calabi(), t, w, m0, opts)
    assert tr.status == "step_limit"
    assert tr.accepted_steps == 5


def test_overflowing_trials_are_rejected_quietly(monkeypatch):
    # trial radii past the float range are rejected by the kernels' raise;
    # numpy's overflow warning would fail the test
    t = mesh("tetrahedron")
    rng = np.random.default_rng(0)
    monkeypatch.setattr(_kernels, "INITIAL_STEP", 1e6)
    opts = cf.IntegratorOptions(u_max=np.inf)
    tr = cf.integrate(cf.FlowKind.calabi(), t, zero_weight(t), random_metric(rng, t), opts)
    assert tr.status == "converged"


def test_underflowing_trials_are_rejected():
    # with no divergence guard the inadmissible target drives u_0 towards
    # -inf; trials whose radius leaves the normal float range are rejected,
    # so the run ends at its step limit with a metric it can report
    t = mesh("tetrahedron")
    opts = cf.IntegratorOptions(u_max=np.inf, max_steps=999)
    tr = cf.integrate(
        cf.FlowKind.ricci_prescribed(BAD_TETRA_TARGET),
        t,
        zero_weight(t),
        cf.PackingMetric.from_radii(np.ones(4)),
        opts,
    )
    assert (tr.status, tr.accepted_steps) == ("step_limit", 999)
    r = tr.final_metric.r
    assert r[0] >= np.finfo(np.float64).tiny and r[0] < np.exp(-708.0)


@pytest.mark.parametrize("kind", ["calabi", "ricci_normalized"])
def test_too_large_first_step_shrinks_until_evaluated(monkeypatch, kind):
    # 60 halvings bring a first step of 1e18 down only to about 0.87, and
    # every trial until well below that lands past the divergence guard's
    # margin; trials refused before any evaluation are halved without
    # counting toward MAX_HALVINGS, so the run converges
    t = mesh("icosahedron")
    m0 = random_metric(np.random.default_rng(0), t)
    monkeypatch.setattr(_kernels, "INITIAL_STEP", 1e18)
    tr = cf.integrate(getattr(cf.FlowKind, kind)(), t, zero_weight(t), m0)
    assert tr.status == "converged"
    assert tr.max_curvature_deviation() < cf.IntegratorOptions().curvature_tol


_CORNERS = _kernels._corners


def _fail_trials(monkeypatch):
    """Make every trial's geometry raise, as on overflowing radii: the
    patched ``_corners`` lets its first call, the start's ``state``, through
    and raises at every later one.  Returns the list of its calls."""
    calls = []

    def corners(r, mesh):
        calls.append(1)
        if len(calls) > 1:
            raise cf.InternalConsistencyError("non-finite value in geometry evaluation")
        return _CORNERS(r, mesh)

    monkeypatch.setattr(_kernels, "_corners", corners)
    return calls


def test_collapse_counts_evaluated_trials(monkeypatch):
    # a step collapses once its first evaluated trial and MAX_HALVINGS
    # halvings of it all fail, whether or not unevaluated refusals came
    # first; it raises from the run loop, naming t and the step
    t = mesh("icosahedron")
    m0 = random_metric(np.random.default_rng(0), t)
    for h in (1e-2, 1e18):
        monkeypatch.setattr(_kernels, "INITIAL_STEP", h)
        calls = _fail_trials(monkeypatch)
        with pytest.raises(cf.StepCollapseError) as info:
            cf.integrate(cf.FlowKind.ricci_normalized(), t, zero_weight(t), m0)
        assert len(calls) == 1 + _kernels.MAX_HALVINGS + 1
        assert str(info.value).startswith("step collapsed at t=0.0 (step 0): 60 halvings")
        assert info.traceback[-1].frame.code.name == "advance"


def test_start_below_the_normal_range_collapses():
    # a radius of 1e-310 evaluates cleanly at weight 0.3, but every trial
    # from it is refused as underflow, unevaluated: the halvings end when
    # the step reaches 0
    t = mesh("octahedron")
    r = np.ones(t.n_vertices)
    r[0] = 1e-310
    m0 = cf.PackingMetric.from_radii(r)
    for kind in (cf.FlowKind.ricci_normalized(), cf.FlowKind.calabi()):
        with pytest.raises(cf.StepCollapseError):
            cf.integrate(kind, t, cf.Weight.uniform(t, 0.3), m0)


def test_calabi_conserves_sum_u_without_correction():
    # every Calabi step adds Laplacian values, which sum to zero, so sum u
    # holds to rounding over thousands of small steps (4461 here)
    t = mesh("icosahedron")
    m0 = random_metric(np.random.default_rng(25), t)
    opts = cf.IntegratorOptions(max_step=0.002)
    tr = cf.integrate(cf.FlowKind.calabi(), t, zero_weight(t), m0, opts)
    assert tr.status == "converged" and tr.accepted_steps > 1000
    assert abs(tr.final_metric.u.sum() - m0.u.sum()) < 1e-10


@pytest.mark.parametrize("name, n_samples", [("calabi", 32), ("ricci_normalized", 32)])
def test_sample_schedule(monkeypatch, name, n_samples):
    # one schedule for every kind: the stride max(1, k // SAMPLE_TARGET) is
    # recomputed at each record and nowhere else; recomputing it at every
    # step gives 30
    monkeypatch.setattr(_kernels, "SAMPLE_TARGET", 7)
    t = mesh("icosahedron")
    m0 = random_metric(np.random.default_rng(25), t)
    opts = cf.IntegratorOptions(max_steps=100)
    tr = cf.integrate(getattr(cf.FlowKind, name)(), t, zero_weight(t), m0, opts)
    assert tr.status == "step_limit" and tr.accepted_steps == 100
    assert len(tr.samples) == n_samples


OFF_GAUSS_BONNET = [
    ("tetrahedron", "calabi_prescribed", np.full(4, 3.2)),
    ("tetrahedron", "ricci_prescribed", np.full(4, 3.2)),
    ("tetra+octa", "calabi", None),
    ("tetra+octa", "ricci_normalized", None),
]


def _disjoint():
    return cf.parse_mesh(disjoint_text(mesh("tetrahedron"), mesh("octahedron")))


@pytest.mark.parametrize("surface, name, target", OFF_GAUSS_BONNET)
def test_targets_off_gauss_bonnet_are_refused(surface, name, target):
    # no metric has them: a target summing to 12.8 on the tetrahedron, and
    # K_av = 0.8 pi on a tetrahedron (4 pi) plus an octahedron (4 pi), whose
    # sum is 2 pi chi on the whole but not on either component
    t = mesh("tetrahedron") if surface == "tetrahedron" else _disjoint()
    m0 = random_metric(np.random.default_rng(0), t)
    with pytest.raises(cf.DomainError) as info:
        cf.integrate(cf.FlowKind(name, target), t, zero_weight(t), m0)
    where = "" if t.connected else " on the component of vertex 0"
    total = 12.8 if t.connected else 4 * 0.8 * math.pi
    assert str(info.value) == (
        f"the target curvature sums to {total!r}{where}; Gauss-Bonnet requires "
        f"2 pi chi = {2 * TWO_PI!r}"
    )


@pytest.mark.parametrize("name", ["calabi_prescribed", "ricci_prescribed"])
def test_realizable_targets_converge_on_a_disconnected_surface(name):
    # a target with 2 pi chi on each component passes the check and is
    # reached
    t = _disjoint()
    w = zero_weight(t)
    rng = np.random.default_rng(0)
    m0 = random_metric(rng, t)
    target = cf.compute_geometry(t, w, random_metric(rng, t)).curvatures
    tr = cf.integrate(cf.FlowKind(name, target), t, w, m0)
    assert tr.status == "converged" and tr.max_curvature_deviation() < 1e-10


def test_options_validation():
    with pytest.raises(cf.DomainError):
        cf.IntegratorOptions(max_step=-1.0)
    with pytest.raises(cf.DomainError):
        cf.IntegratorOptions(max_steps=0)
    with pytest.raises(cf.DomainError):
        cf.IntegratorOptions(curvature_tol=0.0)
    with pytest.raises(cf.DomainError):
        cf.IntegratorOptions(u_max=-5.0)
    with pytest.raises(cf.DomainError):
        cf.IntegratorOptions(max_steps=2.5)
    # a bool is an int to isinstance, but not a step count
    with pytest.raises(cf.DomainError):
        cf.IntegratorOptions(max_steps=True)
    for name in ("max_step", "curvature_tol"):
        with pytest.raises(cf.DomainError):
            cf.IntegratorOptions(**{name: math.nan})
    # an infinite tolerance reports any start as converged
    with pytest.raises(cf.DomainError):
        cf.IntegratorOptions(curvature_tol=math.inf)
    # max|K - target| stops at a few ulps of the curvatures: a tolerance
    # below CURVATURE_TOL, where the Newton solve stops, would spend the
    # whole step budget
    with pytest.raises(cf.DomainError):
        cf.IntegratorOptions(curvature_tol=1e-17)
    cf.IntegratorOptions(curvature_tol=thurston.CURVATURE_TOL)
    # no divergence guard and no step cap
    cf.IntegratorOptions(u_max=math.inf, max_step=math.inf)


@pytest.mark.parametrize(
    "field,value,message",
    [
        ("curvature_tol", math.inf, "curvature_tol must be finite and > 0, got inf"),
        ("max_step", 0.0, "max_step must be positive, got 0.0"),
        ("u_max", math.nan, "u_max must be positive, got nan"),
        ("max_steps", 2.5, "max_steps must be an integer >= 1, got 2.5"),
        ("curvature_tol", 1e-17, "curvature_tol must be at least 1e-12, the rounding "
         "floor of the curvatures, got 1e-17"),
    ],
)
def test_options_refusals_name_the_setting_and_value(field, value, message):
    with pytest.raises(cf.DomainError) as info:
        cf.IntegratorOptions(**{field: value})
    assert str(info.value) == message


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


def _guarded_run(monkeypatch, kind, t, w, m0, opts=None):
    """A run in which every accepted state is a sample (a stride of 1), with
    the radii of its evaluated trials and the number of trials whose energy
    guard computed the roundoff allowance."""
    monkeypatch.setattr(_kernels, "SAMPLE_TARGET", 10**9)
    radii, lengths, allowances = [], [], []
    corners, curvature_noise = _kernels._corners, _kernels._curvature_noise

    def counted_corners(r, mesh):
        # a trial's radii are advance's r_new: Chebyshev stages and the
        # start's state evaluate other arrays
        if sys._getframe(1).f_locals.get("r_new") is r:
            radii.append(r)
        out = corners(r, mesh)
        lengths[:] = [out[1]]
        return out

    def counted_noise(G, *args):
        # the latest evaluation's allowance; the current state's is computed
        # on first need from the arrays of an earlier trial
        allowances.append(G is lengths[0])
        return curvature_noise(G, *args)

    monkeypatch.setattr(_kernels, "_corners", counted_corners)
    monkeypatch.setattr(_kernels, "_curvature_noise", counted_noise)
    tr = cf.integrate(kind, t, w, m0, opts)
    # the start is evaluated in full by state
    return tr, radii, sum(allowances) - 1


@pytest.mark.parametrize("case", ["escape", "oct66"])
def test_staged_energy_guard_decides_as_the_full_one(monkeypatch, case):
    # the guard computes the allowance only for a trial whose energy rose;
    # every evaluated trial is still accepted exactly when it passes the
    # guard with the allowance of both states, evaluated in full by the
    # public state kernel
    if case == "escape":
        # the inadmissible target of test_divergence_calabi_prescribed, run
        # deeper: past u_0 = -17 the energy's descent per step falls below
        # its rounding, and the allowance accepts steps that raise it
        t = mesh("tetrahedron")
        w = zero_weight(t)
        m0 = cf.PackingMetric.from_radii(np.ones(4))
        kind = cf.FlowKind.calabi_prescribed(BAD_TETRA_TARGET)
        opts = cf.IntegratorOptions(u_max=30.0, max_steps=4000)
    else:
        t = subdivide(subdivide(mesh("octahedron")))
        rng = np.random.default_rng(66)
        w = random_weight(rng, t)
        m0 = random_metric(rng, t)
        kind, opts = cf.FlowKind.calabi(), None
        # one stage at every step size: explicit Euler trials past their
        # stability bound raise the energy, which staged trials never do here
        monkeypatch.setattr(_kernels, "_rkc", lambda s: (math.inf, 1.0, []))
    tr, radii, allowances = _guarded_run(monkeypatch, kind, t, w, m0, opts)
    assert (tr.evaluations > len(radii)) == (case == "escape")  # stages
    samples = tr.samples
    assert len(samples) == tr.accepted_steps + 1
    mesh_arrays = _mesh_arrays(t, w)

    def guard_terms(r):
        try:
            s = _kernels.state(r, mesh_arrays)
        except cf.InternalConsistencyError:
            return False, math.nan, math.nan
        dev = s.K - tr.target
        energy = float((dev**2).sum())
        return True, energy, _kernels._energy_noise(dev, s.kn, energy)

    _, e, noise = guard_terms(np.exp(samples[0].u))
    k = 0
    for r in radii:
        clean, e_new, noise_new = guard_terms(r)
        accepted = k < tr.accepted_steps and np.array_equal(r, np.exp(samples[k + 1].u))
        assert accepted == (clean and e_new <= e + (noise + noise_new))
        if accepted:
            assert e_new == samples[k + 1].energy
            k, e, noise = k + 1, e_new, noise_new
    assert k == tr.accepted_steps
    rises = sum(b.energy > a.energy for a, b in zip(samples, samples[1:]))
    if case == "escape":
        assert rises > 0
    else:
        assert tr.status == "converged" and 0 < allowances < 0.1 * len(radii)


def test_integrate_restores_the_floating_point_state(monkeypatch):
    # the loop ignores floating point errors in one scope of its own: trial
    # radii that overflow raise nothing under the caller's "raise", and the
    # caller's state is back after a run and after a collapse
    t = mesh("tetrahedron")
    m0 = random_metric(np.random.default_rng(0), t)
    monkeypatch.setattr(_kernels, "INITIAL_STEP", 1e6)
    opts = cf.IntegratorOptions(u_max=np.inf)
    with np.errstate(all="raise", under="warn"):
        caller = np.geterr()
        tr = cf.integrate(cf.FlowKind.calabi(), t, zero_weight(t), m0, opts)
        assert tr.status == "converged" and np.geterr() == caller
        _fail_trials(monkeypatch)
        with pytest.raises(cf.StepCollapseError):
            cf.integrate(cf.FlowKind.ricci_normalized(), t, zero_weight(t), m0)
        assert np.geterr() == caller


def _octahedron(n):
    t = mesh("octahedron")
    while t.n_vertices < n:
        t = subdivide(t)
    return t


@pytest.mark.parametrize("kind_name", ["calabi", "calabi_prescribed"])
def test_stiff_calabi_flow_reaches_the_newton_limit(kind_name):
    # at N=258, where explicit Euler steps took about 25 000 steps, the
    # Chebyshev-stabilized flow converges to the Newton limit (Phi = 0) or
    # to the u* its realizable target came from, modulo constants, and
    # keeps sum u
    t = _octahedron(258)
    rng = np.random.default_rng(258)
    m0 = random_metric(rng, t)
    if kind_name == "calabi":
        w, kind = zero_weight(t), cf.FlowKind.calabi()
        target = resolve_target(t, None)
        u_star = thurston._newton(
            t, w, target, m0.u, lambda u, s: u if thurston._at_floor(s, target) else None
        )
    else:
        w = random_weight(rng, t)
        u_star = rng.normal(0.0, 0.7, t.n_vertices)
        curv = cf.compute_geometry(t, w, cf.PackingMetric.from_log_radii(u_star)).curvatures
        kind = cf.FlowKind.calabi_prescribed(curv)
    tr = cf.integrate(kind, t, w, m0)
    assert tr.status == "converged" and tr.accepted_steps < 1000
    u = tr.final_metric.u
    assert np.abs((u - u.mean()) - (u_star - u_star.mean())).max() < 1e-8
    assert abs(u.sum() - m0.u.sum()) <= 1e-10


@pytest.mark.parametrize("kind_name", ["calabi_prescribed", "ricci_prescribed"])
def test_inadmissible_escape_at_default_guard_ends_without_raising(kind_name):
    # toward an inadmissible target the escape runs into the step limit or
    # the u_max guard; the staged Calabi trials on the way raise nothing,
    # and the Calabi escape keeps sum u over its 2e4 steps
    t = mesh("tetrahedron")
    m0 = random_metric(np.random.default_rng(0), t)
    kind = getattr(cf.FlowKind, kind_name)(BAD_TETRA_TARGET)
    opts = cf.IntegratorOptions(max_steps=20000)
    tr = cf.integrate(kind, t, zero_weight(t), m0, opts)
    assert tr.status in ("step_limit", "diverged")
    if kind.uses_laplacian:
        assert abs(tr.final_metric.u.sum() - m0.u.sum()) <= 1e-10


def _trial_corners(monkeypatch):
    """Counts of all corner evaluations and of those at a trial point."""
    counts = {"all": 0, "trials": 0}
    corners = _kernels._corners

    def counted(r, mesh):
        counts["all"] += 1
        counts["trials"] += sys._getframe(1).f_locals.get("r_new") is r
        return corners(r, mesh)

    monkeypatch.setattr(_kernels, "_corners", counted)
    return counts


def test_evaluations_count_trials_and_stages(monkeypatch):
    # a seeded N=66 Calabi run: every trial and every Chebyshev stage is
    # one corner evaluation, as is the start
    t = _octahedron(66)
    rng = np.random.default_rng(66)
    w, m0 = random_weight(rng, t), random_metric(rng, t)
    counts = _trial_corners(monkeypatch)
    tr = cf.integrate(cf.FlowKind.calabi(), t, w, m0)
    assert tr.status == "converged"
    assert (tr.accepted_steps, tr.evaluations) == (314, 1110)
    assert counts["all"] == 1 + tr.evaluations > 1 + counts["trials"]


def test_short_large_calabi_run_evaluates_trials_only(monkeypatch):
    # a 10-step N=1026 Calabi run, the shape of a benchmark op, stays below
    # beta(1) / rho: no stages, so its evaluations are its evaluated trials
    t = _octahedron(1026)
    rng = np.random.default_rng(1026)
    w, m0 = random_weight(rng, t), random_metric(rng, t)
    counts = _trial_corners(monkeypatch)
    tr = cf.integrate(cf.FlowKind.calabi(), t, w, m0, cf.IntegratorOptions(max_steps=10))
    assert tr.status == "step_limit" and tr.accepted_steps == 10
    assert tr.evaluations == counts["trials"] == counts["all"] - 1 >= 10
