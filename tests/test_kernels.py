"""numpy kernels: error codes, the energy-noise bound, the rolled-gather
kernels against the loop over corners they replaced, the batch axes of
the curvature and quadrature kernels, the work, accuracy and memory of
the Gauss-Legendre segments, the Ricci descent guard, and the result
layouts that callers index into."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

import calabiflow as cf
from calabiflow import _kernels
from calabiflow.cli import main
from calabiflow.geometry import _mesh_arrays
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


def _node_loop_segment(u0, du, target, order, mesh):
    """The Gauss-Legendre segment as one curvature call per node: the
    reference the blocked kernel must match bit for bit."""
    x, w = np.polynomial.legendre.leggauss(order)
    total = 0.0
    for s, wk in zip(0.5 * (x + 1.0), 0.5 * w):
        K, err = _kernels.curvatures(np.exp(u0 + s * du), mesh)
        if err != _kernels.ERR_OK:
            return math.nan, err
        total += float(wk) * float(np.dot(K - target, du))
    return total, _kernels.ERR_OK


def _loop_corners(r, fv, fe, ea, eb, cphi):
    """The corner kernel as a loop over corners ``m``, the form it had
    before the rolled gathers: the reference they must match bit for bit.
    Returns ``(lens, L, cc, ang, K, err)``."""
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

    def verdict(c):
        if not np.all(np.isfinite(c)):
            return _kernels.ERR_NONFINITE
        if float(np.max(np.abs(c))) - 1.0 > _kernels.CLAMP_TOL:
            return _kernels.ERR_CLAMP
        return _kernels.ERR_OK

    corners = fv.ravel()
    if r.ndim == 1:
        err = verdict(c)
    else:
        errs = [verdict(row) for row in c]
        err = next((e for e in errs if e != _kernels.ERR_OK), _kernels.ERR_OK)
        corners = (np.arange(r.shape[0])[:, None] * n + corners).ravel()
    cc = np.clip(c, -1.0, 1.0)
    ang = np.arccos(cc)
    K = np.full(r.shape, 2.0 * math.pi)
    np.add.at(K.reshape(-1), corners, -ang.ravel())
    return lens, L, cc, ang, K, err


def _loop_state(r, fv, fe, ea, eb, cphi):
    """``_kernels.state`` as a loop over corners (see :func:`_loop_corners`)."""
    lens, L, cc, ang, K, err = _loop_corners(r, fv, fe, ea, eb, cphi)
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
    if err == _kernels.ERR_OK:
        if not (np.all(np.isfinite(B)) and np.all(np.isfinite(K))):
            err = _kernels.ERR_NONFINITE
        elif float(B.min()) <= 0.0 or float(B.max()) >= _kernels.TWO_SQRT3:
            err = _kernels.ERR_WEIGHT_BOUNDS
    return lens, ang, K, B, kn, err


def _same(got, want):
    """Equal codes and bit-equal arrays (NaN where the reference has NaN)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if isinstance(w, np.ndarray):
            assert g.shape == w.shape and np.array_equal(g, w, equal_nan=True)
        else:
            assert g == w


def _arrays(name, seed):
    t = mesh(name)
    rng = np.random.default_rng(seed)
    w = random_weight(rng, t)
    m = random_metric(rng, t)
    return t, m.r, _mesh_arrays(t, w)


def test_active_backend_is_numpy():
    assert cf.active_backend() == "numpy"


def test_error_codes_and_raise_mapping():
    with pytest.raises(cf.InternalConsistencyError):
        _kernels.raise_state_error(_kernels.ERR_NONFINITE)
    with pytest.raises(cf.InternalConsistencyError):
        _kernels.raise_state_error(_kernels.ERR_CLAMP)
    with pytest.raises(cf.InternalConsistencyError):
        _kernels.raise_state_error(_kernels.ERR_WEIGHT_BOUNDS)
    _kernels.raise_state_error(_kernels.ERR_OK)  # no-op


def test_energy_noise_bound_scales():
    t, r, args = _arrays("tetrahedron", 58)
    s = _kernels.state(r, args)
    assert s.err == _kernels.ERR_OK
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
    k_only, err = _kernels.curvatures(r, args)
    assert err == _kernels.ERR_OK
    assert np.array_equal(k_only, k_state)


@pytest.mark.parametrize("name", BATCH_MESHES)
def test_batched_curvatures_match_rows(name):
    t = _mesh(name)
    rng = np.random.default_rng(60)
    args = _mesh_arrays(t, random_weight(rng, t))
    radii = rng.uniform(0.5, 2.0, (5, t.n_vertices))
    kb, err = _kernels.curvatures(radii, args)
    assert err == _kernels.ERR_OK and kb.shape == radii.shape
    for r, k in zip(radii, kb):
        k1, err1 = _kernels.curvatures(r, args)
        assert err1 == _kernels.ERR_OK
        assert np.array_equal(k, k1)


@pytest.mark.parametrize("name", ["tetrahedron", "oct66"])
def test_batched_curvatures_first_failing_row(name):
    # with zero weights an edge is r_a + r_b long, so a negative radius
    # breaks the triangle inequality (clamp) and a NaN radius is non-finite
    t = _mesh(name)
    args = _mesh_arrays(t, cf.Weight(np.zeros(t.n_edges)))
    rng = np.random.default_rng(61)
    good = rng.uniform(0.5, 2.0, (2, t.n_vertices))
    clamp = np.ones(t.n_vertices)
    clamp[0] = -0.5
    nonfinite = np.ones(t.n_vertices)
    nonfinite[1] = np.nan
    assert _kernels.curvatures(clamp, args)[1] == _kernels.ERR_CLAMP
    assert _kernels.curvatures(nonfinite, args)[1] == _kernels.ERR_NONFINITE
    for rows, code in (
        ([good[0], clamp, nonfinite, good[1]], _kernels.ERR_CLAMP),
        ([good[0], nonfinite, clamp, good[1]], _kernels.ERR_NONFINITE),
    ):
        kb, err = _kernels.curvatures(np.array(rows), args)
        assert err == code
        for i in (0, 3):
            assert np.array_equal(kb[i], _kernels.curvatures(rows[i], args)[0])


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
            _same(_kernels.curvatures(r, mesh), _loop_corners(r, *old)[4:])
        _same(_kernels.curvatures(radii, mesh), _loop_corners(radii, *old)[4:])


@pytest.mark.parametrize("name", BATCH_MESHES)
def test_rolled_kernels_match_corner_loop_on_failing_rows(name):
    # the rows of test_batched_curvatures_first_failing_row, alone and in a
    # batch, with their error codes
    with np.errstate(all="ignore"):
        t = _mesh(name)
        mesh = _mesh_arrays(t, cf.Weight(np.zeros(t.n_edges)))
        old = mesh[:5]
        good = np.random.default_rng(61).uniform(0.5, 2.0, (2, t.n_vertices))
        clamp = np.ones(t.n_vertices)
        clamp[0] = -0.5
        nonfinite = np.ones(t.n_vertices)
        nonfinite[1] = np.nan
        codes = {_kernels.ERR_CLAMP: clamp, _kernels.ERR_NONFINITE: nonfinite}
        for code, r in codes.items():
            assert _kernels.state(r, mesh).err == code
            _same(_kernels.state(r, mesh), _loop_state(r, *old))
            _same(_kernels.curvatures(r, mesh), _loop_corners(r, *old)[4:])
        for middle in ([clamp, nonfinite], [nonfinite, clamp]):
            batch = np.array([good[0], *middle, good[1]])
            _same(_kernels.curvatures(batch, mesh), _loop_corners(batch, *old)[4:])


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
    values, err = _kernels.segment_potential(u0, du, target, order, args)
    assert values.shape == (1,) and err == _kernels.ERR_OK
    assert (values[0], err) == _node_loop_segment(u0[0], du[0], target, order, args)
    # radii overflow to inf part way along: same first failing node
    du[0, 0] = 1000.0
    with np.errstate(over="ignore"):
        values, err = _kernels.segment_potential(u0, du, target, order, args)
        ref_value, ref_err = _node_loop_segment(u0[0], du[0], target, order, args)
    assert err == ref_err == _kernels.ERR_NONFINITE
    assert math.isnan(values[0]) and math.isnan(ref_value)


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
        values, err = _kernels.segment_potential(u0, du, target, order, args)
        assert err == _kernels.ERR_OK and values.shape == (4,)
        for v, a, d in zip(values, u0, du):
            assert (v, err) == _node_loop_segment(a, d, target, order, args)
        # one start, broadcast against every step
        start = np.broadcast_to(u0[0], du.shape)
        values, _ = _kernels.segment_potential(start, du, target, order, args)
        for v, d in zip(values, du):
            assert v == _node_loop_segment(u0[0], d, target, order, args)[0]
    # radii overflow to inf part way along the third segment: every value
    # is NaN, and the code is that of the first failing row
    du[2, 0] = 1000.0
    with np.errstate(over="ignore"):
        values, err = _kernels.segment_potential(u0, du, target, 4, args)
        ref_err = _node_loop_segment(u0[2], du[2], target, 4, args)[1]
    assert err == ref_err == _kernels.ERR_NONFINITE
    assert values.shape == (4,) and np.all(np.isnan(values))


@pytest.mark.parametrize("rows", [None, 3])
def test_ricci_trial_geometry_calls(monkeypatch, rows):
    # one accepted Ricci step, no halving: the convexity guard reads the
    # curvatures at the trial point, one curvature call whatever the block
    # (the start is evaluated by state, which makes none)
    t = _mesh("octahedron")
    rng = np.random.default_rng(56)
    args = _mesh_arrays(t, random_weight(rng, t))
    if rows is not None:
        monkeypatch.setattr(_kernels, "BLOCK_FACES", rows * t.n_faces)
    target = np.full(t.n_vertices, 2 * math.pi / 3)
    u0 = np.log(random_metric(rng, t).r)
    calls = []
    curvatures = _kernels._curvatures
    monkeypatch.setattr(
        _kernels, "_curvatures", lambda *a: calls.append(1) or curvatures(*a)
    )
    res = _kernels.advance(
        u0, args, target, False, cf.IntegratorOptions(max_steps=1),
        lambda *a: None,
    )
    assert res[1] == 1 and res[3] == 1e-2  # accepted at full size
    assert len(calls) == 1


def test_potential_probe_curvature_calls(monkeypatch, capsys):
    # every segment of the probe (8 rays x 4 radii, and the three of the
    # path test) is one batched quadrature: one curvature call per row
    # block of each order tried.  Orders 8, 16 and 32 cover 35, 35 and 10
    # segments, in blocks of at most 512 rows on the tetrahedron's 4 faces.
    # The per-segment loop made 80 calls here.
    rows = []
    curvatures = _kernels._curvatures
    monkeypatch.setattr(
        _kernels,
        "_curvatures",
        lambda r, m: rows.append(r.shape[0]) or curvatures(r, m),
    )
    assert main(["potential-probe", "--mesh", "tetrahedron", "--seed", "3"]) == 0
    capsys.readouterr()
    assert rows == [280, 512, 48, 320]


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
        df, err = _kernels.segment_potential(
            us[:-1], np.diff(us, axis=0), trace.target, 4, _mesh_arrays(t, w)
        )
        assert err == _kernels.ERR_OK and np.all(df <= 0.0)


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
    ref, err = _kernels.segment_potential(u0, du, target, 256, args)
    assert err == _kernels.ERR_OK
    for order, tol in ((8, 1e-10), (16, 1e-12)):
        value, err = _kernels.segment_potential(u0, du, target, order, args)
        assert err == _kernels.ERR_OK
        assert abs(value[0] - ref[0]) < tol * (1.0 + abs(ref[0]))


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
        _, err = _kernels.segment_potential(u0, du, target, 2**10, args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err == _kernels.ERR_OK
    assert peak < 4 * 2**20


@pytest.mark.parametrize("lap_kind", [True, False])
def test_advance_result_layout(lap_kind):
    # the accepted-step count sits at index 1 of a 4-tuple
    t, r, args = _arrays("octahedron", 56)
    target = np.full(t.n_vertices, 2 * math.pi / 3)
    res = _kernels.advance(
        np.log(r), args, target, lap_kind, cf.IntegratorOptions(max_steps=5),
        lambda *a: None,
    )
    assert len(res) == 4
    assert res[0] == "step_limit" and res[1] == 5
    assert res[3] > 0.0  # time advanced


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
        lens, G, cc, ang, K, err = _kernels._corners(r, args)
        assert err == _kernels.ERR_OK and len(G) == 3
        for a in (lens, *G, cc, ang, K):
            assert a.flags.c_contiguous and a.shape[: r.ndim - 1] == r.shape[:-1]
