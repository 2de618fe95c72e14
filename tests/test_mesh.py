"""Mesh parsing, validation, and combinatorial helpers."""

import numpy as np
import pytest

import calabiflow as cf
from calabiflow.mesh import _component_labels, data_lines
from calabiflow.meshes import subdivide
from _mesh_oracle import build, component_labels, subdivide_faces
from _util import MESH_NAMES, mesh


EXPECTED_SIZES = {
    "tetrahedron": (4, 6, 4, 2),
    "octahedron": (6, 12, 8, 2),
    "icosahedron": (12, 30, 20, 2),
    "torus": (7, 21, 14, 0),
}


@pytest.mark.parametrize("name", MESH_NAMES)
def test_builtin_sizes(name):
    t = mesh(name)
    assert (t.n_vertices, t.n_edges, t.n_faces, t.chi) == EXPECTED_SIZES[name]
    assert t.chi == t.n_vertices - t.n_edges + t.n_faces


@pytest.mark.parametrize("name", MESH_NAMES)
def test_edge_table_consistency(name):
    t = mesh(name)
    # edges sorted ascending within a row and lexicographically across rows
    assert np.all(t.edges[:, 0] < t.edges[:, 1])
    keys = [tuple(e) for e in t.edges]
    assert keys == sorted(keys)
    assert t.edge_index == {k: i for i, k in enumerate(keys)}
    # every edge lies in exactly the two faces recorded for it
    for e, (a, b) in enumerate(keys):
        for f in t.edge_faces[e]:
            assert {a, b} <= set(int(v) for v in t.faces[f])
    # face_edges[f, m] joins the two corners other than m
    for f in range(t.n_faces):
        tri = [int(v) for v in t.faces[f]]
        for m in range(3):
            others = sorted(tri[:m] + tri[m + 1 :])
            assert keys[t.face_edges[f, m]] == tuple(others)


@pytest.mark.parametrize("name", MESH_NAMES)
def test_degrees(name):
    t = mesh(name)
    deg = np.zeros(t.n_vertices, dtype=int)
    for a, b in t.edges:
        deg[a] += 1
        deg[b] += 1
    assert np.array_equal(t.degrees, deg)
    # closed surface: every vertex has degree >= 3
    assert t.degrees.min() >= 3


def test_parse_comments_and_blank_lines():
    text = """
    # tetrahedron with comments
    4 4   # header
    0 1 2
    0 1 3  # a face

    0 2 3
    1 2 3
    """
    t = cf.parse_mesh(text)
    assert (t.n_vertices, t.n_faces) == (4, 4)


def test_lines_end_at_newline_only():
    # a CRLF ending is stripped; a form feed or a lone CR inside a line
    # separates tokens, and line numbers count newlines as grep -n does
    text = "4 3\r\n0 1\f2\r\n0 1 3\r0 2 3 # two faces\n\n1 2 3\n"
    assert data_lines(text) == [
        (1, "4 3"), (2, "0 1\f2"), (3, "0 1 3\r0 2 3"), (5, "1 2 3")
    ]
    with pytest.raises(cf.MeshSyntaxError, match="^line 3: expected 3 integers, got 6"):
        cf.parse_mesh(text)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("", "empty"),
        ("4\n0 1 2\n", "expected 2 integers"),
        ("4 4\n0 1 2\n", "promises 4 faces"),
        ("4 1\n0 1 x\n", "not an integer"),
        ("0 1\n0 1 2\n", "must be positive"),
        ("4 2\n0 1 2\n0 1\n", "expected 3 integers"),
        ("4 1\n0 1 -99999999999999999999\n", "line 2: token 3"),
    ],
)
def test_syntax_errors(text, fragment):
    with pytest.raises(cf.MeshSyntaxError) as exc:
        cf.parse_mesh(text)
    assert fragment in str(exc.value)


@pytest.mark.parametrize(
    "n, faces, fragment",
    [
        (4, [(0, 1, 1), (0, 2, 3)], "repeats a vertex"),
        (4, [(0, 1, 2), (0, 2, 1), (0, 1, 3), (0, 3, 1)], "same vertex set"),
        (4, [(0, 1, 2), (0, 1, 3)], "expected exactly 2"),
        (5, [(0, 1, 2), (0, 1, 3)], "expected exactly 2"),
        (2, [(0, 1, 2)], "at least 3 vertices"),
        (4, [(0, 1, 2), (0, 1, 4)], "outside range"),
        (2**62, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], "vertex 4 lies in no face"),
        (4, [(0, 1, 2), (0, 1, 10**20)], f"index {10**20} outside range [0, 4)"),
        (4, [(0, 1, 2), (0, 1)], "face 1 = (0, 1) is not three integer"),
        (4, [(0, 1, 2), None], "face 1 = None is not three integer"),
        (4, [(0, 1, 2), (0, 1, float("nan"))], "face 1 = (0, 1, nan) is not three integer"),
        (4, [(0, 1, 2.7), (0, 1, 3), (0, 2, 3), (1, 2, 3)], "face 0 = (0, 1, 2.7) is not"),
        # a cast to int64 would wrap this index to -1
        (
            4,
            np.array([(0, 1, 2), (0, 1, 2**64 - 1)], dtype=np.uint64),
            "index 18446744073709551615 outside range [0, 4)",
        ),
        (4, np.array([(0, 1, 2, 3), (0, 1, 2, 3)]), "faces must be triples"),
        (4, [(0, 1, 2)], "at least 2 faces"),
    ],
)
def test_validation_errors(n, faces, fragment):
    with pytest.raises(cf.MeshValidationError) as exc:
        cf.Triangulation(n, faces)
    assert fragment in str(exc.value)


def test_integral_float_faces_accepted():
    faces = [(0, 1, 2.0), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    for given in (faces, np.array(faces)):
        assert np.array_equal(cf.Triangulation(4, given).faces, mesh("tetrahedron").faces)


def test_pinched_link_rejected():
    # Two tetrahedra glued at a single vertex: every edge lies in two faces
    # but the shared vertex's link is two disjoint cycles.
    faces = [
        (0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3),
        (3, 4, 5), (3, 4, 6), (3, 5, 6), (4, 5, 6),
    ]
    with pytest.raises(cf.MeshValidationError, match="link"):
        cf.Triangulation(7, faces)


def test_subdivision_preserves_topology():
    t = mesh("octahedron")
    s = subdivide(t)
    assert s.n_vertices == t.n_vertices + t.n_edges == 18
    assert s.n_faces == 4 * t.n_faces
    assert s.chi == t.chi
    s2 = subdivide(s)
    assert s2.n_vertices == 66
    assert s2.chi == 2
    tor2 = subdivide(mesh("torus"))
    assert tor2.chi == 0


def _oracle_meshes():
    for name in MESH_NAMES:
        yield name, mesh(name)
    t = mesh("octahedron")
    while t.n_vertices < 1026:
        yield f"octahedron N={t.n_vertices}", t
        t = subdivide(t)
    yield "octahedron N=1026", t
    t = mesh("torus")
    for level in (1, 2):
        t = subdivide(t)
        yield f"torus x{level}", t


def test_tables_match_the_loop_oracle():
    for label, t in _oracle_meshes():
        ref = build(t.n_vertices, t.faces)
        for name in ("edges", "edge_faces", "face_edges", "degrees"):
            got, want = getattr(t, name), ref[name]
            assert got.dtype == want.dtype and np.array_equal(got, want), (label, name)
        for got, want in zip(t.kernel_index, ref["kernel_index"], strict=True):
            assert np.array_equal(got, want), label
        assert t.edge_index == ref["edge_index"] and t.chi == ref["chi"], label
        # midpoint refinement emits the oracle's faces in the oracle's order
        assert np.array_equal(
            subdivide(t).faces, subdivide_faces(t.n_vertices, t.faces, t.edge_index)
        ), label


def _connectivity_meshes():
    """``(label, mesh, number of components)``."""
    for name in MESH_NAMES:
        yield name, mesh(name), 1
    for name in ("octahedron", "torus"):
        t = mesh(name)
        for level in (1, 2):
            t = subdivide(t)
            yield f"{name} x{level}", t, 1
    # disjoint unions, with the vertex labels shuffled across the copies
    rng = np.random.default_rng(24)
    for copies in (2, 3):
        for name in MESH_NAMES:
            t = mesh(name)
            n = copies * t.n_vertices
            faces = np.concatenate([t.faces + k * t.n_vertices for k in range(copies)])
            shuffled = rng.permutation(n)[faces]
            yield f"{copies} x {name}", cf.Triangulation(n, shuffled), copies


def test_connected_matches_breadth_first_search():
    for label, t, components in _connectivity_meshes():
        want = component_labels(t.n_vertices, t.edges.tolist())
        assert len(set(want.tolist())) == components, label
        got = _component_labels(t.n_vertices, t.edges[:, 0], t.edges[:, 1])
        assert np.array_equal(got, want), label
        assert t.connected == (components == 1), label


def _glued(t, shared):
    """``(N, faces)`` of two copies of ``t``, each vertex ``v`` of the second
    copy in ``shared`` identified with vertex ``shared[v]`` of the first.
    Unless two shared vertices are adjacent, every edge still lies in two
    faces, and each shared vertex has a link of two cycles."""
    n = t.n_vertices
    rest = iter(range(n, 2 * n))
    label = [shared[v] if v in shared else next(rest) for v in range(n)]
    second = [[label[int(v)] for v in f] for f in t.faces]
    return 2 * n - len(shared), t.faces.tolist() + second


# each corrupted mesh carries two or more faults; the message names the one
# the documented check order finds first
_OCTA = mesh("octahedron").faces.tolist()
_CORRUPTED = [
    # two faces repeat a vertex: the first is named
    (6, _OCTA[:2] + [[1, 4, 1]] + _OCTA[3:5] + [[5, 5, 2]] + _OCTA[6:]),
    # a repeated vertex outranks an earlier duplicate vertex set
    (6, _OCTA + [_OCTA[0][::-1], [2, 2, 3]]),
    # two duplicated sets: the earliest later face is named, with its first twin
    (6, [_OCTA[4], _OCTA[1], _OCTA[4][::-1]] + _OCTA + [_OCTA[1]]),
    # a duplicate set outranks bad edges and unused vertices
    (9, _OCTA[:6] + [_OCTA[0][::-1]]),
    # two open edges: the first in corner order is named, not the least
    (6, [_OCTA[5], _OCTA[7]] + _OCTA[:5]),
    # an edge in three faces and an unused vertex
    (7, _OCTA + [[0, 1, 5]]),
    # several unused vertices (3, 4, 5 and 9): the smallest is named
    (10, [[v if v < 3 else v + 3 for v in f] for f in _OCTA]),
    # pinched links at several vertices: the smallest is named
    _glued(mesh("icosahedron"), {0: 11, 11: 0}),
    # (the octahedron's own vertices are pairwise apart once subdivided)
    _glued(subdivide(mesh("octahedron")), {0: 5, 2: 3, 4: 4}),
]


@pytest.mark.parametrize("n, faces", _CORRUPTED)
def test_first_offender_matches_the_loop_oracle(n, faces):
    with pytest.raises(cf.MeshValidationError) as want:
        build(n, faces)
    with pytest.raises(cf.MeshValidationError) as got:
        cf.Triangulation(n, faces)
    assert str(got.value) == str(want.value)


def test_vertex_subset_canonical_form():
    t = mesh("tetrahedron")
    s = cf.VertexSubset.of(t, [2, 0, 2])
    assert s.members == (0, 2)
    assert len(s) == 2 and list(s) == [0, 2]
    with pytest.raises(ValueError):
        cf.VertexSubset.of(t, [])
    with pytest.raises(ValueError):
        cf.VertexSubset.of(t, [0, 1, 2, 3])
    with pytest.raises(ValueError):
        cf.VertexSubset.of(t, [4])


def test_subcomplex_euler_oracle():
    t = mesh("tetrahedron")
    # single vertex: a point
    assert cf.subcomplex_euler(t, [0]) == 1
    # an edge: two vertices, one edge
    assert cf.subcomplex_euler(t, [0, 1]) == 1
    # a face: full triangle
    assert cf.subcomplex_euler(t, [0, 1, 2]) == 1
    # everything: the sphere itself
    assert cf.subcomplex_euler(t, [0, 1, 2, 3]) == 2
    octa = mesh("octahedron")
    # two antipodal vertices of the octahedron span no edge
    pairs = {tuple(e) for e in octa.edges}
    v = 0
    opp = next(u for u in range(1, 6) if (v, u) not in pairs)
    assert cf.subcomplex_euler(octa, [v, opp]) == 2


def test_link_pairs_oracle():
    t = mesh("tetrahedron")
    lk = cf.link_pairs(t, [0])
    assert lk == [((1, 2), 0), ((1, 3), 0), ((2, 3), 0)]
    # link of a 2-subset: faces with exactly one vertex inside
    lk2 = cf.link_pairs(t, [0, 1])
    assert lk2 == [((2, 3), 0), ((2, 3), 1)]
    # link of everything is empty
    assert cf.link_pairs(t, [0, 1, 2, 3]) == []
