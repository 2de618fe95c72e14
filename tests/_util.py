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


def stellar_text(t, face=0):
    """Mesh text of ``t`` with a vertex added inside face ``face`` and joined
    to its three corners.  On the icosahedron with every weight pi/2 the new
    degree-3 vertex fails its own inequality (4 pi / 13 < 2 pi - 3 pi / 2),
    so no constant-curvature metric exists."""
    n = t.n_vertices
    a, b, c = (int(v) for v in t.faces[face])
    faces = [tuple(int(v) for v in f) for i, f in enumerate(t.faces) if i != face]
    faces += [(a, b, n), (b, c, n), (c, a, n)]
    return f"{n + 1} {len(faces)}\n" + "".join(f"{x} {y} {z}\n" for x, y, z in faces)


def disjoint_text(*ts):
    """Mesh text of the disjoint union of the triangulations ``ts``."""
    faces, offset = [], 0
    for t in ts:
        faces += [tuple(int(v) + offset for v in f) for f in t.faces]
        offset += t.n_vertices
    return f"{offset} {len(faces)}\n" + "".join(f"{x} {y} {z}\n" for x, y, z in faces)
