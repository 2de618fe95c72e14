"""numpy kernels: error codes, the energy-noise bound, the batch axis of
the curvature kernel, the work and memory of the Simpson segment, and the
result layouts that callers index into."""

import functools
import math
import tracemalloc

import numpy as np
import pytest

import calabiflow as cf
from calabiflow import _kernels
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


def _mesh_args(t, w):
    return t.faces, t.face_edges, t.edges[:, 0], t.edges[:, 1], w.cos_phi


def _node_loop_segment(u0, du, target, panels, fv, fe, ea, eb, cphi):
    """The Simpson segment as one curvature call per node: the reference
    the blocked kernel must match bit for bit."""
    m2 = 2 * panels
    total = 0.0
    for k in range(m2 + 1):
        s = k / m2
        K, err = _kernels.curvatures(np.exp(u0 + s * du), fv, fe, ea, eb, cphi)
        if err != _kernels.ERR_OK:
            return math.nan, err
        g = float(np.dot(K - target, du))
        if k == 0 or k == m2:
            w = 1.0
        elif k % 2 == 1:
            w = 4.0
        else:
            w = 2.0
        total += w * g
    return total / (3.0 * m2), _kernels.ERR_OK


def _arrays(name, seed):
    t = mesh(name)
    rng = np.random.default_rng(seed)
    w = random_weight(rng, t)
    m = random_metric(rng, t)
    return (
        t,
        m.r,
        t.faces,
        t.face_edges,
        t.edges[:, 0],
        t.edges[:, 1],
        w.cos_phi,
    )


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
    t, r, fv, fe, ea, eb, cphi = _arrays("tetrahedron", 58)
    _, _, _, K, B, kn, err = _kernels.state(r, fv, fe, ea, eb, cphi)
    assert err == _kernels.ERR_OK
    assert np.all(kn >= 0)
    # healthy metrics have curvature noise near machine precision
    assert np.max(kn) < 1e-12
    target = np.full(4, math.pi)
    energy = float(np.sum((K - target) ** 2))
    noise = _kernels._energy_noise(K, kn, target, energy)
    assert 0 <= noise < 1e-10


def test_curvatures_match_state():
    t, r, fv, fe, ea, eb, cphi = _arrays("icosahedron", 51)
    k_state = _kernels.state(r, fv, fe, ea, eb, cphi)[3]
    k_only, err = _kernels.curvatures(r, fv, fe, ea, eb, cphi)
    assert err == _kernels.ERR_OK
    assert np.array_equal(k_only, k_state)


@pytest.mark.parametrize("name", BATCH_MESHES)
def test_batched_curvatures_match_rows(name):
    t = _mesh(name)
    rng = np.random.default_rng(60)
    args = _mesh_args(t, random_weight(rng, t))
    radii = rng.uniform(0.5, 2.0, (5, t.n_vertices))
    kb, err = _kernels.curvatures(radii, *args)
    assert err == _kernels.ERR_OK and kb.shape == radii.shape
    for r, k in zip(radii, kb):
        k1, err1 = _kernels.curvatures(r, *args)
        assert err1 == _kernels.ERR_OK
        assert np.array_equal(k, k1)


@pytest.mark.parametrize("name", ["tetrahedron", "oct66"])
def test_batched_curvatures_first_failing_row(name):
    # with zero weights an edge is r_a + r_b long, so a negative radius
    # breaks the triangle inequality (clamp) and a NaN radius is non-finite
    t = _mesh(name)
    args = _mesh_args(t, cf.Weight(np.zeros(t.n_edges)))
    rng = np.random.default_rng(61)
    good = rng.uniform(0.5, 2.0, (2, t.n_vertices))
    clamp = np.ones(t.n_vertices)
    clamp[0] = -0.5
    nonfinite = np.ones(t.n_vertices)
    nonfinite[1] = np.nan
    assert _kernels.curvatures(clamp, *args)[1] == _kernels.ERR_CLAMP
    assert _kernels.curvatures(nonfinite, *args)[1] == _kernels.ERR_NONFINITE
    for rows, code in (
        ([good[0], clamp, nonfinite, good[1]], _kernels.ERR_CLAMP),
        ([good[0], nonfinite, clamp, good[1]], _kernels.ERR_NONFINITE),
    ):
        kb, err = _kernels.curvatures(np.array(rows), *args)
        assert err == code
        for i in (0, 3):
            assert np.array_equal(kb[i], _kernels.curvatures(rows[i], *args)[0])


@pytest.mark.parametrize("rows", [None, 3])
@pytest.mark.parametrize("panels", [1, 4, 16])
@pytest.mark.parametrize("name", BATCH_MESHES)
def test_segment_potential_matches_node_loop(monkeypatch, name, panels, rows):
    # rows=3: blocks whose edges fall anywhere in the Simpson pattern
    t = _mesh(name)
    if rows is not None:
        monkeypatch.setattr(_kernels, "BLOCK_FACES", rows * t.n_faces)
    rng = np.random.default_rng(62)
    args = _mesh_args(t, random_weight(rng, t))
    u0 = rng.normal(0.0, 0.3, t.n_vertices)
    du = rng.normal(0.0, 0.5, t.n_vertices)
    target = np.full(t.n_vertices, 2 * math.pi * t.chi / t.n_vertices)
    got = _kernels.segment_potential(u0, du, target, panels, *args)
    assert got == _node_loop_segment(u0, du, target, panels, *args)
    assert got[1] == _kernels.ERR_OK
    # radii overflow to inf part way along: same first failing node
    du[0] = 1000.0
    with np.errstate(over="ignore"):
        value, err = _kernels.segment_potential(u0, du, target, panels, *args)
        ref_value, ref_err = _node_loop_segment(u0, du, target, panels, *args)
    assert err == ref_err == _kernels.ERR_NONFINITE
    assert math.isnan(value) and math.isnan(ref_value)


@pytest.mark.parametrize("rows", [None, 3])
def test_ricci_trial_geometry_calls(monkeypatch, rows):
    # one accepted Ricci step, no halving: the descent guard's nodes 1..2P
    # (the last is the trial itself) take one curvature call per block
    t = _mesh("octahedron")
    rng = np.random.default_rng(56)
    args = _mesh_args(t, random_weight(rng, t))
    if rows is not None:
        monkeypatch.setattr(_kernels, "BLOCK_FACES", rows * t.n_faces)
    target = np.full(t.n_vertices, 2 * math.pi / 3)
    u0 = np.log(random_metric(rng, t).r)
    _, _, _, K, B, kn, _ = _kernels.state(np.exp(u0), *args)
    energy = float(np.sum((K - target) ** 2))
    calls = []
    corners = _kernels._corners
    monkeypatch.setattr(
        _kernels, "_corners", lambda *a: calls.append(1) or corners(*a)
    )
    res = _kernels.advance(
        u0.copy(), 1e-2, 0.0, 0, 1, args, target, False, u0.copy(),
        cf.IntegratorOptions(), K, B, kn, energy,
    )
    assert res[1] == 1 and res[4] == 1e-2  # accepted at full size
    assert len(calls) == (1 if rows is None else math.ceil(8 / rows))


def test_segment_potential_memory_bounded():
    # 8193 nodes at N=66: one block of them all would peak near 190 MB
    t = _mesh("oct66")
    rng = np.random.default_rng(63)
    args = _mesh_args(t, random_weight(rng, t))
    u0 = rng.normal(0.0, 0.3, t.n_vertices)
    du = rng.normal(0.0, 0.3, t.n_vertices)
    target = np.full(t.n_vertices, 4 * math.pi / t.n_vertices)
    tracemalloc.start()
    try:
        _, err = _kernels.segment_potential(u0, du, target, 2**12, *args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert err == _kernels.ERR_OK
    assert peak < 4 * 2**20


@pytest.mark.parametrize("lap_kind", [True, False])
def test_advance_result_layout(lap_kind):
    # the accepted-step count sits at index 1 of a 10-tuple
    t, r, fv, fe, ea, eb, cphi = _arrays("octahedron", 56)
    target = np.full(t.n_vertices, 2 * math.pi / 3)
    u0 = np.log(r)
    _, _, _, K, B, kn, err = _kernels.state(r, fv, fe, ea, eb, cphi)
    energy = float(np.sum((K - target) ** 2))
    res = _kernels.advance(
        u0.copy(), 1e-2, 0.0, 0, 5, (fv, fe, ea, eb, cphi), target, lap_kind,
        u0.copy(), cf.IntegratorOptions(), K, B, kn, energy,
    )
    assert len(res) == 10
    assert res[0] == _kernels.ADV_CHUNK_DONE and res[1] == 5
    assert res[4] > 0.0  # time advanced


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
    assert res[4] == cf.check_admissible(t, w, target).subsets_checked
