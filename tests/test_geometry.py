"""Metric geometry: lengths, angles, curvatures, and their invariants."""

import math
import re

import numpy as np
import pytest

import calabiflow as cf
from _geometry_oracle import edge_length
from _util import MESH_NAMES, mesh, random_metric, random_weight, zero_weight


def test_edge_length_formula():
    rng = np.random.default_rng(0)
    for _ in range(200):
        ri, rj = rng.uniform(0.1, 10.0, 2)
        phi = rng.uniform(0.0, np.pi / 2)
        got = edge_length(ri, rj, phi)
        assert got == pytest.approx(
            math.sqrt(ri * ri + rj * rj + 2 * ri * rj * math.cos(phi)), rel=1e-15
        )
    # tangent circles: lengths add; orthogonal circles: Pythagoras
    assert edge_length(1.5, 2.5, 0.0) == pytest.approx(4.0, rel=1e-15)
    assert edge_length(3.0, 4.0, np.pi / 2) == pytest.approx(5.0, rel=1e-15)


def test_triangle_angles_sum_and_order():
    rng = np.random.default_rng(1)
    for _ in range(200):
        r = rng.uniform(0.1, 10.0, 3)
        phi = rng.uniform(0.0, np.pi / 2, 3)
        la = edge_length(r[1], r[2], phi[0])
        lb = edge_length(r[2], r[0], phi[1])
        lc = edge_length(r[0], r[1], phi[2])
        angles = cf.triangle_angles(la, lb, lc)
        assert sum(angles) == pytest.approx(math.pi, abs=1e-12)
        # the larger side faces the larger angle
        order_l = np.argsort([la, lb, lc])
        order_a = np.argsort(angles)
        assert np.array_equal(order_l, order_a)


def test_triangle_angles_rejects_degenerate():
    with pytest.raises(cf.DegenerateTriangleError):
        cf.triangle_angles(1.0, 1.0, 3.0)
    with pytest.raises(cf.DegenerateTriangleError):
        cf.triangle_angles(-1.0, 2.0, 2.0)


def test_packing_lengths_always_form_triangles():
    # For any positive radii and weights in [0, pi/2] the three packing
    # lengths of a face satisfy the strict triangle inequality.
    rng = np.random.default_rng(2)
    for _ in range(2000):
        r = rng.uniform(1e-3, 1e3, 3)
        phi = rng.uniform(0.0, np.pi / 2, 3)
        la = edge_length(r[1], r[2], phi[0])
        lb = edge_length(r[2], r[0], phi[1])
        lc = edge_length(r[0], r[1], phi[2])
        assert la < lb + lc and lb < la + lc and lc < la + lb


def test_unit_tetrahedron_frozen_values():
    t = mesh("tetrahedron")
    g = cf.compute_geometry(t, zero_weight(t), cf.PackingMetric.from_radii(np.ones(4)))
    assert np.allclose(g.lengths, 2.0, rtol=0, atol=1e-15)
    assert np.allclose(g.angles, math.pi / 3, rtol=0, atol=1e-15)
    assert np.allclose(g.curvatures, math.pi, rtol=0, atol=1e-12)
    assert g.avg_curvature == pytest.approx(math.pi, abs=1e-12)
    assert g.chi == 2


def test_skew_tetrahedron_frozen_values():
    # r = (2,1,1,1), tangent circles: faces at vertex 0 have sides (3,3,2),
    # the opposite face is equilateral with side 2. Angles are exact
    # cosine-law values, frozen here from that closed form.
    t = mesh("tetrahedron")
    m = cf.PackingMetric.from_radii([2.0, 1.0, 1.0, 1.0])
    g = cf.compute_geometry(t, zero_weight(t), m)
    k0 = 2 * math.pi - 3 * math.acos(7.0 / 9.0)
    kj = 2 * math.pi - 2 * math.acos(1.0 / 3.0) - math.pi / 3
    assert g.curvatures[0] == pytest.approx(4.2441638504548544, abs=1e-14)
    assert g.curvatures[0] == pytest.approx(k0, abs=1e-14)
    assert np.allclose(g.curvatures[1:], kj, rtol=0, atol=1e-14)
    lens = {tuple(sorted(e)): l for e, l in zip(t.edges, g.lengths)}
    for j in (1, 2, 3):
        assert lens[(0, j)] == pytest.approx(3.0, abs=1e-15)
    for ek, lv in lens.items():
        if 0 not in ek:
            assert lv == pytest.approx(2.0, abs=1e-15)


@pytest.mark.parametrize("name", MESH_NAMES)
def test_gauss_bonnet(name):
    t = mesh(name)
    rng = np.random.default_rng(hash(name) % 2**32)
    for _ in range(20):
        w = random_weight(rng, t)
        m = random_metric(rng, t, lo=0.1, hi=10.0)
        g = cf.compute_geometry(t, w, m)
        assert g.curvatures.sum() == pytest.approx(2 * math.pi * t.chi, abs=1e-9)
        assert g.avg_curvature == pytest.approx(2 * math.pi * t.chi / t.n_vertices, abs=1e-12)


@pytest.mark.parametrize("name", MESH_NAMES)
def test_curvature_scale_invariance(name):
    t = mesh(name)
    rng = np.random.default_rng(100 + hash(name) % 2**16)
    w = random_weight(rng, t)
    m = random_metric(rng, t)
    g = cf.compute_geometry(t, w, m)
    for s in (1e-3, 0.5, 7.0, 1e4):
        scaled = cf.PackingMetric.from_log_radii(m.u + math.log(s))
        gs = cf.compute_geometry(t, w, scaled)
        assert np.allclose(gs.curvatures, g.curvatures, rtol=0, atol=1e-11)
        assert np.allclose(gs.lengths, s * g.lengths, rtol=1e-12, atol=0)


def test_angle_sum_per_face():
    t = mesh("icosahedron")
    rng = np.random.default_rng(3)
    w = random_weight(rng, t)
    m = random_metric(rng, t)
    g = cf.compute_geometry(t, w, m)
    sums = g.angles.sum(axis=1)
    assert np.allclose(sums, math.pi, rtol=0, atol=1e-12)


def test_weight_validation():
    t = mesh("tetrahedron")
    with pytest.raises(cf.DomainError):
        cf.Weight(np.full(6, -0.1))
    with pytest.raises(cf.DomainError):
        cf.Weight(np.full(6, np.pi / 2 + 0.1))
    with pytest.raises(cf.DomainError):
        cf.Weight(np.array([np.nan] * 6))
    # the range prints as Python floats, not numpy scalar reprs
    with pytest.raises(cf.DomainError, match=r"got range \[0\.1, 2\.0\]$"):
        cf.Weight([2.0, 0.1, 0.2])
    w = cf.Weight(np.full(6, np.pi / 2))  # boundary values are allowed
    assert np.allclose(w.cos_phi, 0.0, atol=1e-16)


def test_edge_map_nan_is_a_value_not_a_gap():
    # a NaN weight is refused as non-finite, not taken for an unassigned
    # edge, and it does not hide a second assignment of its edge
    t = mesh("tetrahedron")
    rest = {(int(a), int(b)): 0.3 for a, b in t.edges[1:]}
    assert tuple(t.edges[0]) == (0, 1)
    with pytest.raises(cf.DomainError, match="weights must be finite"):
        cf.Weight.from_edge_map(t, {(0, 1): np.nan, **rest})
    with pytest.raises(cf.DomainError, match=r"edge \(0, 1\) assigned a weight twice"):
        cf.Weight.from_edge_map(t, {(0, 1): np.nan, (1, 0): 0.3, **rest})


@pytest.mark.parametrize("shape", [(6, 1), (6, 2), (6, 4), ()])
def test_weight_must_be_a_vector(shape):
    # a first axis of length E used to pass the size check, and every
    # kernel then failed to broadcast
    with pytest.raises(cf.DomainError, match=re.escape(f"an array of shape {shape}")):
        cf.Weight(np.zeros(shape))


def test_log_radii_past_the_float_range_are_refused_without_a_warning():
    # exp overflows above about 709.78; the suite turns the warning into an error
    with pytest.raises(cf.DomainError, match="radii must be finite"):
        cf.PackingMetric.from_log_radii([710.0, 0.0, 0.0, 0.0])


def test_metric_validation():
    with pytest.raises(cf.DomainError):
        cf.PackingMetric.from_radii([1.0, -1.0])
    with pytest.raises(cf.DomainError):
        cf.PackingMetric.from_radii([1.0, 0.0])
    with pytest.raises(cf.DomainError):
        cf.PackingMetric.from_radii([])
    with pytest.raises(cf.DomainError):
        cf.PackingMetric(np.array([1.0, 1.0]), np.array([0.0, 0.5]))
    m = cf.PackingMetric.from_log_radii([0.0, 1.0])
    assert m.r == pytest.approx([1.0, math.e])
    # metrics are immutable
    with pytest.raises(ValueError):
        m.r[0] = 2.0


def test_compute_geometry_size_mismatch():
    t = mesh("tetrahedron")
    with pytest.raises(cf.DomainError):
        cf.compute_geometry(t, zero_weight(t), cf.PackingMetric.from_radii(np.ones(5)))
    with pytest.raises(cf.DomainError):
        cf.compute_geometry(t, cf.Weight(np.zeros(5)), cf.PackingMetric.from_radii(np.ones(4)))


def test_radii_refusal_names_the_first_bad_radius():
    for radii, message in [
        ([1.0, 0.0, -2.0], "all radii must be positive; radius 1 is 0.0"),
        ([1.0, math.nan], "all radii must be positive; radius 1 is nan"),
        ([], "all radii must be positive; none given"),
    ]:
        with pytest.raises(cf.DomainError) as info:
            cf.PackingMetric.from_radii(radii)
        assert str(info.value) == message
