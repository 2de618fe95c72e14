"""numpy kernels: error codes, the energy-noise bound, and the result
layouts that callers index into."""

import math

import numpy as np
import pytest

import calabiflow as cf
from calabiflow import _kernels
from _util import mesh, random_metric, random_weight


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


@pytest.mark.parametrize("lap_kind", [True, False])
def test_advance_result_layout(lap_kind):
    # the accepted-step count sits at index 1 of a 10-tuple
    t, r, fv, fe, ea, eb, cphi = _arrays("octahedron", 56)
    target = np.full(t.n_vertices, 2 * math.pi / 3)
    u0 = np.log(r)
    _, _, _, K, B, kn, err = _kernels.state(r, fv, fe, ea, eb, cphi)
    energy = float(np.sum((K - target) ** 2))
    res = _kernels.advance(
        u0.copy(), 1e-2, 0.0, 0, 5,
        fv, fe, ea, eb, cphi, target, lap_kind,
        u0.copy(), 1e-10, 50.0, 1e12, 60, 1.2, 10, 4,
        K, B, kn, energy,
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
