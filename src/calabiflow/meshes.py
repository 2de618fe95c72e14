"""Canonical example triangulations.

Face lists for the small closed surfaces used throughout the test suite and
the command line examples, and midpoint refinement to grow larger ones.
Vertices are numbered from 0; faces are triples of vertex indices.  All of
these pass full validation: every edge lies in exactly two faces and every
vertex link is a single cycle.
"""

from __future__ import annotations

import numpy as np

from .mesh import Triangulation

TETRAHEDRON = (
    (0, 1, 2),
    (0, 1, 3),
    (0, 2, 3),
    (1, 2, 3),
)

# Octahedron: poles 0 and 5, equator 1-2-3-4.
OCTAHEDRON = (
    (0, 1, 2),
    (0, 2, 3),
    (0, 3, 4),
    (0, 4, 1),
    (5, 2, 1),
    (5, 3, 2),
    (5, 4, 3),
    (5, 1, 4),
)

# Icosahedron: pole 0, upper ring 1-5, lower ring 6-10, pole 11.
ICOSAHEDRON = tuple(
    [(0, 1 + i, 1 + (i + 1) % 5) for i in range(5)]
    + [(1 + i, 6 + i, 1 + (i + 1) % 5) for i in range(5)]
    + [(1 + (i + 1) % 5, 6 + i, 6 + (i + 1) % 5) for i in range(5)]
    + [(11, 6 + (i + 1) % 5, 6 + i) for i in range(5)]
)

# Seven-vertex triangulation of the torus (the complete graph K7 embedded in
# the torus): faces {i, i+1, i+3} and {i, i+3, i+2} modulo 7.
TORUS_7 = tuple(
    [(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
    + [(i, (i + 3) % 7, (i + 2) % 7) for i in range(7)]
)

_BY_NAME = {
    "tetrahedron": (4, TETRAHEDRON),
    "octahedron": (6, OCTAHEDRON),
    "icosahedron": (12, ICOSAHEDRON),
    "torus": (7, TORUS_7),
}


def mesh_text(name: str) -> str:
    """Render a named canonical mesh in the plain text mesh file format.

    The format is: optional ``#`` comment lines, a header line ``N F``
    (vertex count, face count), then ``F`` lines of three vertex indices.
    """
    try:
        n, faces = _BY_NAME[name]
    except KeyError:
        raise KeyError(f"unknown mesh name {name!r}; choices: {sorted(_BY_NAME)}") from None
    lines = [f"# {name}", f"{n} {len(faces)}"]
    lines += [f"{a} {b} {c}" for a, b, c in faces]
    return "\n".join(lines) + "\n"


def names() -> list[str]:
    return sorted(_BY_NAME)


def subdivide(t: Triangulation) -> Triangulation:
    """Midpoint refinement: one new vertex per edge, each face split in four.

    The result is again a closed triangulation with the same topology, so
    repeated calls grow vertex counts as N' = N + E.
    """
    n = t.n_vertices
    a, b, c = t.faces.T
    mbc, mca, mab = (n + t.face_edges).T
    faces = np.stack(
        [a, mab, mca, b, mbc, mab, c, mca, mbc, mab, mbc, mca], axis=1
    ).reshape(-1, 3)
    return Triangulation(n + t.n_edges, faces)
