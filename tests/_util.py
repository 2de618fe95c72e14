"""Shared helpers for the test suite: builtin meshes and random draws."""

import numpy as np

import calabiflow as cf

MESH_NAMES = ("tetrahedron", "octahedron", "icosahedron", "torus")


def mesh(name):
    return cf.parse_mesh(cf.mesh_text(name))


def random_weight(rng, t, lo=0.0, hi=np.pi / 2):
    return cf.Weight(rng.uniform(lo, hi, t.n_edges))


def zero_weight(t):
    return cf.Weight(np.zeros(t.n_edges))


def random_metric(rng, t, lo=0.5, hi=2.0):
    return cf.PackingMetric.from_radii(rng.uniform(lo, hi, t.n_vertices))


def gb_target(rng, t, spread=1.0):
    """A random target curvature on the Gauss-Bonnet hyperplane."""
    x = rng.normal(0.0, spread, t.n_vertices)
    x += (2.0 * np.pi * t.chi - x.sum()) / t.n_vertices
    return x
