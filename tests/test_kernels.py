"""numpy kernels: the errors they raise, the energy-noise bound, the
rolled-gather kernels against the loop over corners they replaced, the
batch axes of the curvature and quadrature kernels, the work, accuracy
and memory of the Gauss-Legendre segments, the Ricci descent guard, and
the result layouts that callers index into."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

import calabiflow as cf
from calabiflow import _kernels, potential
from calabiflow.cli import main
from calabiflow.geometry import _mesh_arrays
from calabiflow.mesh import resolve_target
from calabiflow.meshes import subdivide
from _util import MESH_NAMES, mesh, random_metric, random_weight

# builtin meshes, then octahedra subdivided to N = 18, 66, 258 and 1026
BATCH_MESHES = MESH_NAMES + ("oct18", "oct66", "oct258", "oct1026")


@functools.lru_cache(maxsize=None)
def _mesh(name):
    if not name.startswith("oct") or name == "octahedron":
        return mesh(name)
    t = mesh("octahedron")
    while t.n_vertices < int(name[3:]):
        t = subdivide(t)
    return t


# the messages the geometry kernels raise, one per failure
CLAMP = (
    "cosine-law value left [-1, 1] by more than the clamp tolerance; "
    "a triangle inequality that is guaranteed for weights in [0, pi/2] failed"
)
WEIGHT_BOUNDS = (
    "an edge weight left the open interval (0, 2*sqrt(3)) that theory guarantees"
)
NONFINITE = "non-finite value in geometry evaluation"


def _raised(f, *args):
    """The message of the ``InternalConsistencyError`` that ``f(*args)``
    raises."""
    with pytest.raises(cf.InternalConsistencyError) as exc:
        f(*args)
    return str(exc.value)


def _node_loop_segment(u0, du, target, order, mesh):
    """The Gauss-Legendre segment as one curvature call per node: the
    reference the blocked kernel must match bit for bit."""
    x, w = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for s, wk in zip(0.5 * (x + 1.0), 0.5 * w):
        K = _kernels.curvatures(np.exp(u0 + s * du), mesh)
        total += float(wk) * float(np.dot(K - target, du))
    return total


def _first_failing_node(u0, du, order, mesh):
    """``(row, message)`` of the first node, segment-major and node-minor,
    whose curvatures raise when evaluated one call per node."""
    x, _ = np.polynomial.legendre.leggauss(order)
    rows = ((a, d, s) for a, d in zip(u0, du) for s in 0.5 * (x + 1.0))
    for row, (a, d, s) in enumerate(rows):
        try:
            _kernels.curvatures(np.exp(a + s * d), mesh)
        except cf.InternalConsistencyError as exc:
            return row, str(exc)
    raise AssertionError("no node fails")


def _failing_block(monkeypatch, u0, du, target, order, mesh):
    """``(message, lo, hi)``: what ``segment_potential`` raises, and the rows
    ``[lo, hi)`` of the block whose curvature call raised it."""
    blocks = []
    curvatures = _kernels._curvatures
    monkeypatch.setattr(
        _kernels, "_curvatures", lambda r, m: blocks.append(r.shape[0]) or curvatures(r, m)
    )
    message = _raised(_kernels.segment_potential, u0, du, target, order, mesh)
    monkeypatch.setattr(_kernels, "_curvatures", curvatures)
    return message, sum(blocks[:-1]), sum(blocks)


def _loop_corners(r, fv, fe, ea, eb, cphi):
    """The corner kernel as a loop over corners ``m``, the form it had
    before the rolled gathers: the reference they must match bit for bit.
    Returns ``(lens, L, cc, ang, K)``, and raises for the first row whose
    cosines are not clean."""
    n = r.shape[-1]
    ra = r.take(ea, axis=-1)
    rb = r.take(eb, axis=-1)
    lens = np.sqrt(ra * ra + rb * rb + 2.0 * ra * rb * cphi)
    L = lens.take(fe, axis=-1)
    c = np.empty_like(L)
    for m in range(3):
        p = (m + 1) % 3
        q = (m + 2) % 3
        c[..., m] = (
            L[..., p] * L[..., p] + L[..., q] * L[..., q] - L[..., m] * L[..., m]
        ) / (2.0 * L[..., p] * L[..., q])

    def check(c):
        if not np.all(np.isfinite(c)):
            raise cf.InternalConsistencyError(NONFINITE)
        if float(np.max(np.abs(c))) - 1.0 > _kernels.CLAMP_TOL:
            raise cf.InternalConsistencyError(CLAMP)

    corners = fv.ravel()
    if r.ndim == 1:
        check(c)
    else:
        for row in c:
            check(row)
        corners = (np.arange(r.shape[0])[:, None] * n + corners).ravel()
    cc = np.clip(c, -1.0, 1.0)
    ang = np.arccos(cc)
    K = np.full(r.shape, 2.0 * math.pi)
    np.add.at(K.reshape(-1), corners, -ang.ravel())
    return lens, L, cc, ang, K


def _loop_state(r, fv, fe, ea, eb, cphi):
    """``_kernels.state`` as a loop over corners (see :func:`_loop_corners`)."""
    lens, L, cc, ang, K = _loop_corners(r, fv, fe, ea, eb, cphi)
    kappa = np.empty_like(L)
    for m in range(3):
        p = (m + 1) % 3
        q = (m + 2) % 3
        kappa[:, m] = (
            L[:, p] * L[:, p] + L[:, q] * L[:, q] + L[:, m] * L[:, m]
        ) / (2.0 * L[:, p] * L[:, q])
    sin = np.sqrt(1.0 - cc * cc)
    eps, ulps = _kernels.EPS, _kernels.NOISE_ULPS
    corner_noise = ulps * eps * (kappa / np.maximum(sin, 1e-300) + 4.0)
    halves = np.empty_like(L)
    rv = r[fv]
    cphi_f = cphi[fe]
    for m in range(3):
        p = (m + 1) % 3
        q = (m + 2) % 3
        r_c, r_m, r_o = rv[:, p], rv[:, q], rv[:, m]
        l_cm, l_co, l_mo = L[:, m], L[:, q], L[:, p]
        bracket = (r_m + r_o * cphi_f[:, p]) - (l_mo * cc[:, q] / l_cm) * (
            r_m + r_c * cphi_f[:, m]
        )
        halves[:, m] = r_m / (l_cm * l_co * sin[:, p]) * bracket
    kn = np.zeros(r.shape[0])
    np.add.at(kn, fv.ravel(), corner_noise.ravel())
    B = np.zeros(ea.shape[0])
    np.add.at(B, fe.ravel(), halves.ravel())
    if not (np.all(np.isfinite(B)) and np.all(np.isfinite(K))):
        raise cf.InternalConsistencyError(NONFINITE)
    if float(B.min()) <= 0.0 or float(B.max()) >= _kernels.TWO_SQRT3:
        raise cf.InternalConsistencyError(WEIGHT_BOUNDS)
    return lens, ang, K, B, kn


def _same(got, want):
    """Bit-equal arrays of equal shapes."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.shape == w.shape and np.array_equal(g, w)


def _arrays(name, seed):
    t = mesh(name)
    rng = np.random.default_rng(seed)
    w = random_weight(rng, t)
    m = random_metric(rng, t)
    return t, m.r, _mesh_arrays(t, w)


def _failing_rows(t):
    """Two clean rows and a clamp and a non-finite one: with zero weights an
    edge is r_a + r_b long, so a negative radius breaks the triangle
    inequality and a NaN radius is non-finite."""
    good = np.random.default_rng(61).uniform(0.5, 2.0, (2, t.n_vertices))
    clamp = np.ones(t.n_vertices)
    clamp[0] = -0.5
    nonfinite = np.ones(t.n_vertices)
    nonfinite[1] = np.nan
    return good, clamp, nonfinite


def test_active_backend_is_numpy():
    assert cf.active_backend() == "numpy"


def test_kernels_raise_each_failure_with_its_message():
    # a clamp and a non-finite corner cosine from the radii, and weights
    # past the bound or non-finite from shrunken and zero corner sines
    t = mesh("octahedron")
    args = _mesh_arrays(t, cf.Weight(np.zeros(t.n_edges)))
    _, clamp, nonfinite = _failing_rows(t)
    r = np.ones(t.n_vertices)
    with np.errstate(all="ignore"):
        for f in (_kernels.state, _kernels.curvatures, _kernels._corners):
            assert _raised(f, clamp, args) == CLAMP
            assert _raised(f, nonfinite, args) == NONFINITE
        _, G, cc, _, _ = _kernels._corners(r, args)
        sin = np.sqrt(1.0 - cc * cc)
        assert np.all(_kernels._dual_weights(r, G, cc, sin, args) > 0.0)
        for scale, message in ((1e-3, WEIGHT_BOUNDS), (0.0, NONFINITE)):
            assert _raised(_kernels._dual_weights, r, G, cc, scale * sin, args) == message


def test_energy_noise_bound_scales():
    t, r, args = _arrays("tetrahedron", 58)
    s = _kernels.state(r, args)
    assert np.all(s.kn >= 0)
    # healthy metrics have curvature noise near machine precision
    assert np.max(s.kn) < 1e-12
    target = np.full(4, math.pi)
    energy = float(np.sum((s.K - target) ** 2))
    noise = _kernels._energy_noise(s.K - target, s.kn, energy)
    assert 0 <= noise < 1e-10


def test_curvatures_match_state():
    t, r, args = _arrays("icosahedron", 51)
    k_state = _kernels.state(r, args).K
    k_only = _kernels.curvatures(r, args)
    assert np.array_equal(k_only, k_state)


@pytest.mark.parametrize("name", BATCH_MESHES)
def test_batched_curvatures_match_rows(name):
    t = _mesh(name)
    rng = np.random.default_rng(60)
    args = _mesh_arrays(t, random_weight(rng, t))
    radii = rng.uniform(0.5, 2.0, (5, t.n_vertices))
    kb = _kernels.curvatures(radii, args)
    assert kb.shape == radii.shape
    for r, k in zip(radii, kb):
        assert np.array_equal(k, _kernels.curvatures(r, args))


@pytest.mark.parametrize("name", ["tetrahedron", "oct66"])
def test_batched_curvatures_first_failing_row(name):
    # a batch raises what its first failing row raises alone; the clean
    # rows around it evaluate alone
    t = _mesh(name)
    args = _mesh_arrays(t, cf.Weight(np.zeros(t.n_edges)))
    good, clamp, nonfinite = _failing_rows(t)
    assert _raised(_kernels.curvatures, clamp, args) == CLAMP
    assert _raised(_kernels.curvatures, nonfinite, args) == NONFINITE
    for rows, message in (
        ([good[0], clamp, nonfinite, good[1]], CLAMP),
        ([good[0], nonfinite, clamp, good[1]], NONFINITE),
    ):
        assert _raised(_kernels.curvatures, np.array(rows), args) == message
        _kernels.curvatures(np.array([rows[0], rows[3]]), args)


@pytest.mark.parametrize("name", BATCH_MESHES)
def test_rolled_kernels_match_corner_loop(name):
    # random weights and radii: state, one-metric and batched curvatures
    with np.errstate(all="ignore"):
        t = _mesh(name)
        rng = np.random.default_rng(65)
        mesh = _mesh_arrays(t, random_weight(rng, t))
        old = mesh[:5]  # (fv, fe, ea, eb, cphi)
        radii = rng.uniform(0.5, 2.0, (4, t.n_vertices))
        for r in radii:
            _same(_kernels.state(r, mesh), _loop_state(r, *old))
            _same([_kernels.curvatures(r, mesh)], _loop_corners(r, *old)[4:])
        _same([_kernels.curvatures(radii, mesh)], _loop_corners(radii, *old)[4:])


@pytest.mark.parametrize("name", BATCH_MESHES)
def test_rolled_kernels_match_corner_loop_on_failing_rows(name):
    # the rows of test_batched_curvatures_first_failing_row, alone and in a
    # batch: the kernels raise what the loop raises for the first failing row
    with np.errstate(all="ignore"):
        t = _mesh(name)
        mesh = _mesh_arrays(t, cf.Weight(np.zeros(t.n_edges)))
        old = mesh[:5]
        good, clamp, nonfinite = _failing_rows(t)
        for message, r in ((CLAMP, clamp), (NONFINITE, nonfinite)):
            assert _raised(_kernels.state, r, mesh) == message
            assert _raised(_loop_state, r, *old) == message
            assert _raised(_kernels.curvatures, r, mesh) == message
            assert _raised(_loop_corners, r, *old) == message
        for middle in ([clamp, nonfinite], [nonfinite, clamp]):
            batch = np.array([good[0], *middle, good[1]])
            message = _raised(_loop_corners, batch, *old)
            assert message == (CLAMP if middle[0] is clamp else NONFINITE)
            assert _raised(_kernels.curvatures, batch, mesh) == message


@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("order", [1, 4, 16])
@pytest.mark.parametrize("name", BATCH_MESHES)
def test_segment_potential_matches_node_loop(monkeypatch, name, order, rows):
    # rows=3: block edges fall both at and inside the node list
    t = _mesh(name)
    if rows is not None:
        monkeypatch.setattr(_kernels, "BLOCK_FACES", rows * t.n_faces)
    rng = np.random.default_rng(62)
    args = _mesh_arrays(t, random_weight(rng, t))
    u0 = rng.normal(0.0, 0.3, (1, t.n_vertices))
    du = rng.normal(0.0, 0.5, (1, t.n_vertices))
    target = np.full(t.n_vertices, 2 * math.pi * t.chi / t.n_vertices)
    values = _kernels.segment_potential(u0, du, target, order, args)
    assert values.shape == (1,)
    assert values[0] == _node_loop_segment(u0[0], du[0], target, order, args)
    # radii overflow to inf part way along: the block that raises holds
    # the first failing node
    du[0, 0] = 1000.0
    with np.errstate(over="ignore"):
        message, lo, hi = _failing_block(monkeypatch, u0, du, target, order, args)
        row, ref_message = _first_failing_node(u0, du, order, args)
    assert message == ref_message == NONFINITE
    assert lo <= row < hi


@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("name", BATCH_MESHES)
def test_batched_segment_potential_matches_node_loop(monkeypatch, name, rows):
    # rows=3 with order 4: blocks straddle the boundaries between segments
    t = _mesh(name)
    if rows is not None:
        monkeypatch.setattr(_kernels, "BLOCK_FACES", rows * t.n_faces)
    rng = np.random.default_rng(65)
    args = _mesh_arrays(t, random_weight(rng, t))
    u0 = rng.normal(0.0, 0.3, (4, t.n_vertices))
    du = rng.normal(0.0, 0.5, (4, t.n_vertices))
    target = np.full(t.n_vertices, 2 * math.pi * t.chi / t.n_vertices)
    for order in (1, 4, 16):
        values = _kernels.segment_potential(u0, du, target, order, args)
        assert values.shape == (4,)
        for v, a, d in zip(values, u0, du):
            assert v == _node_loop_segment(a, d, target, order, args)
        # one start, broadcast against every step
        start = np.broadcast_to(u0[0], du.shape)
        values = _kernels.segment_potential(start, du, target, order, args)
        for v, d in zip(values, du):
            assert v == _node_loop_segment(u0[0], d, target, order, args)
    # radii overflow to inf part way along the third segment: the block
    # that raises holds its first failing node
    du[2, 0] = 1000.0
    with np.errstate(over="ignore"):
        message, lo, hi = _failing_block(monkeypatch, u0, du, target, 4, args)
        row, ref_message = _first_failing_node(u0, du, 4, args)
    assert message == ref_message == NONFINITE
    assert 8 <= row < 12 and lo <= row < hi


@pytest.mark.parametrize("rows", [None, 3])
def test_ricci_trial_geometry_calls(monkeypatch, rows):
    # one accepted Ricci step, no halving: the convexity guard reads the
    # curvatures at the trial point, one corner evaluation whatever the
    # block, after the one of the start's state; no curvature call
    t = _mesh("octahedron")
    rng = np.random.default_rng(56)
    args = _mesh_arrays(t, random_weight(rng, t))
    if rows is not None:
        monkeypatch.setattr(_kernels, "BLOCK_FACES", rows * t.n_faces)
    target = np.full(t.n_vertices, 2 * math.pi / 3)
    u0 = np.log(random_metric(rng, t).r)
    calls = []
    for name in ("_corners", "_curvatures"):
        kernel = getattr(_kernels, name)
        monkeypatch.setattr(
            _kernels, name, lambda *a, k=kernel, n=name: calls.append(n) or k(*a)
        )
    res = _kernels.advance(
        u0, args, target, False, cf.IntegratorOptions(max_steps=1),
        lambda *a: None,
    )
    assert res[1] == 1 and res[3] == 1e-2  # accepted at full size
    assert calls == ["_corners", "_corners"]


def test_potential_probe_curvature_calls(monkeypatch, capsys):
    # every segment of the probe (8 rays in 4 pieces each, and the two legs
    # of the path test) is one batched quadrature: one curvature call per
    # row block of each order tried.  Orders 4, 8, 16 and 32 cover 34, 34,
    # 15 and 1 segments, in blocks of at most 512 rows on the tetrahedron's
    # 4 faces.  The per-segment loop made 80 calls here.
    rows = []
    curvatures = _kernels._curvatures
    monkeypatch.setattr(
        _kernels,
        "_curvatures",
        lambda r, m: rows.append(r.shape[0]) or curvatures(r, m),
    )
    assert main(["potential-probe", "--mesh", "tetrahedron", "--seed", "3"]) == 0
    capsys.readouterr()
    assert rows == [136, 272, 240, 32]


@pytest.mark.parametrize("kind", ["ricci_normalized", "ricci_prescribed"])
@pytest.mark.parametrize("name", MESH_NAMES + ("oct18", "oct66"))
def test_ricci_steps_lower_the_potential(name, kind):
    # the quadrature as an oracle for the convexity guard: the Ricci
    # potential does not rise between consecutive accepted states
    t = _mesh(name)
    for seed in range(3):
        rng = np.random.default_rng(64 + seed)
        w = random_weight(rng, t)
        if kind == "ricci_normalized":
            flow = cf.FlowKind.ricci_normalized()
        else:
            # the curvature of a metric is a realizable target
            k = cf.compute_geometry(t, w, random_metric(rng, t)).curvatures
            flow = cf.FlowKind.ricci_prescribed(k)
        trace = cf.integrate(flow, t, w, random_metric(rng, t))
        # below 2 * SAMPLE_TARGET steps every accepted state is a sample
        assert trace.status == "converged"
        assert trace.accepted_steps < 2 * _kernels.SAMPLE_TARGET
        us = np.array([s.u for s in trace.samples])
        df = _kernels.segment_potential(
            us[:-1], np.diff(us, axis=0), trace.target, 4, _mesh_arrays(t, w)
        )
        assert np.all(df <= 0.0)


@pytest.mark.parametrize("name", MESH_NAMES + ("oct18", "oct66"))
def test_segment_potential_converges(name):
    # the integrand is analytic on [0, 1], so a low order already agrees
    # with order 256 to rounding
    t = _mesh(name)
    rng = np.random.default_rng(62)
    args = _mesh_arrays(t, random_weight(rng, t))
    u0 = rng.normal(0.0, 0.3, (1, t.n_vertices))
    du = rng.normal(0.0, 0.5, (1, t.n_vertices))
    target = np.full(t.n_vertices, 2 * math.pi * t.chi / t.n_vertices)
    ref = _kernels.segment_potential(u0, du, target, 256, args)
    for order, tol in ((8, 1e-10), (16, 1e-12)):
        value = _kernels.segment_potential(u0, du, target, order, args)
        assert abs(value[0] - ref[0]) < tol * (1.0 + abs(ref[0]))


@pytest.mark.parametrize("name", MESH_NAMES + ("oct18", "oct66"))
def test_ricci_potential_matches_a_fixed_high_order_rule(name):
    # the adaptive ladder (orders 4, 8, ... until two agree within 1e-8)
    # against the 256-point rule, on the pieces of probe rays out to radius
    # 8 off the constant-curvature metric with the probe's path legs, and
    # on segments 1e-3 long
    t = _mesh(name)
    rng = np.random.default_rng(67)
    w = random_weight(rng, t)
    base = cf.constant_curvature_log_metric(t, w, random_metric(rng, t))
    dirs = rng.standard_normal((3, t.n_vertices))
    dirs -= dirs.mean(axis=1, keepdims=True)
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    fro, to, _ = potential._probe(t.n_vertices, dirs, (1.0, 2.0, 4.0, 8.0))
    u_from, u_to = base.u + fro, base.u + to
    step = rng.standard_normal(u_to.shape)
    step *= 1e-3 / np.linalg.norm(step, axis=1, keepdims=True)
    u_from = np.vstack([u_from, u_to])
    u_to = np.vstack([u_to, u_to + step])
    target = resolve_target(t, None)
    ref = _kernels.segment_potential(
        u_from, u_to - u_from, target, 256, _mesh_arrays(t, w)
    )
    vals = cf.ricci_potential(t, w, u_from, u_to)
    assert np.all(np.abs(vals - ref) <= 1e-9 * (1.0 + np.abs(ref)))


def test_segment_potential_memory_bounded():
    # 1024 nodes at N=66: one block of them all would peak near 24 MB
    t = _mesh("oct66")
    rng = np.random.default_rng(63)
    args = _mesh_arrays(t, random_weight(rng, t))
    u0 = rng.normal(0.0, 0.3, (1, t.n_vertices))
    du = rng.normal(0.0, 0.3, (1, t.n_vertices))
    target = np.full(t.n_vertices, 4 * math.pi / t.n_vertices)
    # the first call builds and caches the rule, an 8 MB eigenproblem
    _kernels.segment_potential(u0, du, target, 2**10, args)
    tracemalloc.start()
    try:
        _kernels.segment_potential(u0, du, target, 2**10, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("lap_kind", [True, False])
def test_advance_result_layout(lap_kind):
    # the accepted-step count sits at index 1 of a 5-tuple, whose last
    # entry counts the geometry evaluations
    t, r, args = _arrays("octahedron", 56)
    target = np.full(t.n_vertices, 2 * math.pi / 3)
    res = _kernels.advance(
        np.log(r), args, target, lap_kind, cf.IntegratorOptions(max_steps=5),
        lambda *a: None,
    )
    assert len(res) == 5
    assert res[0] == "step_limit" and res[1] == 5
    assert res[3] > 0.0  # time advanced
    assert res[4] >= res[1]


def test_scan_subsets_result_layout():
    # the number of subsets checked sits at index 4
    t = mesh("octahedron")
    w = random_weight(np.random.default_rng(57), t)
    target = np.full(t.n_vertices, 4 * math.pi / t.n_vertices)
    res = _kernels.scan_subsets(
        t.n_vertices, target, t.edges[:, 0], t.edges[:, 1], t.faces,
        t.face_edges, math.pi - w.phi, 1e-12,
    )
    assert res[0] is False
    assert res[4] == 2**t.n_vertices - 2
    # check_admissible reports that count when the scan decides: a violated
    # target within the size guard
    bad = target.copy()
    bad[0] -= 8.0
    bad[1:] += 8.0 / (t.n_vertices - 1)
    res = _kernels.scan_subsets(
        t.n_vertices, bad, t.edges[:, 0], t.edges[:, 1], t.faces,
        t.face_edges, math.pi - w.phi, 1e-12,
    )
    assert res[0] is True and res[1] == [0]
    assert res[4] == cf.check_admissible(t, w, bad).subsets_checked


def test_corner_arrays_are_c_contiguous():
    # one metric gathers each stacked index at once, a batch row by row of
    # it; either way every per-corner array is C-contiguous, so the
    # curvature sum reads each row's corners in face order
    t = _mesh("oct66")
    rng = np.random.default_rng(66)
    args = _mesh_arrays(t, random_weight(rng, t))
    radii = rng.uniform(0.5, 2.0, (4, t.n_vertices))
    for r in (radii[0], radii):
        lens, G, cc, ang, K = _kernels._corners(r, args)
        assert len(G) == 3
        for a in (lens, *G, cc, ang, K):
            assert a.flags.c_contiguous and a.shape[: r.ndim - 1] == r.shape[:-1]


def _rkc_increment(s, z):
    """The s-stage step's increment R(z) - 1 on y' = z y from y = 1, by the
    recurrence that advance runs."""
    _, mu1, rows = _kernels._rkc(s)
    d0, d1 = 0.0, mu1 * z
    for mu, nu, mut in rows:
        d0, d1 = d1, mu * d1 + nu * d0 + mut * z * (1.0 + d1)
    return d1


def test_rkc_coefficients():
    # one stage is the Euler step; every stage row is a convex combination
    # to rounding; the step is stable on [-beta(s), 0], first-order
    # accurate, and beta grows with s
    beta1, mu1, rows = _kernels._rkc(1)
    assert mu1 == 1.0 and rows == []
    betas = []
    for s in range(1, _kernels.MAX_STAGES + 1):
        beta, mu1, rows = _kernels._rkc(s)
        assert len(rows) == s - 1
        for mu, nu, _ in rows:
            assert abs(mu + nu - 1.0) <= 4 * _kernels.EPS
        z = np.linspace(-beta, 0.0, 4001)
        R = 1.0 + _rkc_increment(s, z)
        assert np.abs(R).max() <= 1.0
        # the recurrence runs T_s(w0 + w1 z) / T_s(w0)
        w0 = 1.0 + _kernels.RKC_DAMPING / (s * s)
        T_s = np.polynomial.chebyshev.Chebyshev.basis(s)
        assert np.allclose(R, T_s(w0 + mu1 * w0 * z) / T_s(w0), rtol=0, atol=1e-9)
        dz = 1e-7 / beta
        assert _rkc_increment(s, -dz) / -dz == pytest.approx(1.0, abs=1e-6)
        betas.append(beta)
    assert all(b > a for a, b in zip(betas, betas[1:]))
    assert 1.9 * _kernels.MAX_STAGES**2 < betas[-1] < 2.0 * _kernels.MAX_STAGES**2


def test_one_stage_calabi_step_is_the_euler_step(monkeypatch):
    # below beta(1) / rho a Calabi trial is u + h v, bit for bit: one stage
    # starts its increment at 1.0 h v and has no rows
    beta, mu1, rows = _kernels._rkc(1)
    assert mu1 == 1.0 and rows == []
    monkeypatch.setattr(_kernels, "INITIAL_STEP", 1e-3)
    t, r, args = _arrays("octahedron", 58)
    target = np.full(t.n_vertices, 2 * math.pi / 3)
    s = _kernels.state(r, args)
    u0 = np.log(r)
    v = _kernels.lap_apply(s.B, args.ea, args.eb, s.K - target)
    res = _kernels.advance(
        u0, args, target, True,
        cf.IntegratorOptions(max_steps=1), lambda *a: None,
    )
    assert res[1] == 1 and res[3] == 1e-3 and res[4] == 1
    assert np.array_equal(res[2], u0 + 1e-3 * v)
