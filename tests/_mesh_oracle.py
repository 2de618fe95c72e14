"""Loop construction of a triangulation's tables: the reference the tests
hold ``calabiflow.mesh.Triangulation`` and ``meshes.subdivide`` against.

``build(n, faces)`` validates and derives the tables one face and one edge
at a time, in the order the checks are documented; it raises
``MeshValidationError`` with the same message as the library would.
"""

from collections import deque

import numpy as np

from calabiflow.errors import MeshValidationError


def build(n_vertices, faces):
    """``dict`` of ``edges``, ``edge_faces``, ``face_edges``,
    ``kernel_index``, ``degrees``, ``edge_index`` and ``chi``."""
    if n_vertices < 3:
        raise MeshValidationError(f"need at least 3 vertices, got {n_vertices}")
    fa = np.asarray(faces, dtype=np.int64)
    if fa.ndim != 2 or fa.shape[1] != 3:
        raise MeshValidationError("faces must be triples of vertex indices")
    if fa.shape[0] < 2:
        raise MeshValidationError("a closed surface needs at least 2 faces")
    if fa.min() < 0 or fa.max() >= n_vertices:
        bad = int(fa.min()) if fa.min() < 0 else int(fa.max())
        raise MeshValidationError(
            f"face vertex index {bad} outside range [0, {n_vertices})"
        )
    for f, (a, b, c) in enumerate(fa):
        if a == b or b == c or a == c:
            raise MeshValidationError(f"face {f} = ({a}, {b}, {c}) repeats a vertex")
    seen = {}
    for f, tri in enumerate(fa):
        key = tuple(sorted(int(v) for v in tri))
        if key in seen:
            raise MeshValidationError(
                f"faces {seen[key]} and {f} have the same vertex set {key}"
            )
        seen[key] = f

    edge_faces = {}
    for f, (a, b, c) in enumerate(fa):
        for u, v in ((b, c), (c, a), (a, b)):
            key = (int(min(u, v)), int(max(u, v)))
            edge_faces.setdefault(key, []).append(f)
    for key, fs in edge_faces.items():
        if len(fs) != 2:
            raise MeshValidationError(
                f"edge {key} lies in {len(fs)} face(s), expected exactly 2"
            )
    edge_keys = sorted(edge_faces)
    edges = np.array(edge_keys, dtype=np.int64)
    edge_index = {key: e for e, key in enumerate(edge_keys)}
    fe = np.empty((fa.shape[0], 3), dtype=np.int64)
    for f, (a, b, c) in enumerate(fa):
        fe[f, 0] = edge_index[(min(b, c), max(b, c))]
        fe[f, 1] = edge_index[(min(c, a), max(c, a))]
        fe[f, 2] = edge_index[(min(a, b), max(a, b))]
    roll1, roll2 = [1, 2, 0], [2, 0, 1]
    corner = 3 * np.arange(fa.shape[0])[:, None]
    kernel_index = (
        np.array([edges[:, 0], edges[:, 1]]),
        np.array([fa, fa[:, roll1], fa[:, roll2]]),
        np.array([fe, fe[:, roll1], fe[:, roll2]]),
        corner + roll1,
        corner + roll2,
    )

    deg = np.zeros(n_vertices, dtype=np.int64)
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
    if deg.min() == 0:
        raise MeshValidationError(f"vertex {int(np.argmin(deg))} lies in no face")

    link = [dict() for _ in range(n_vertices)]
    nfaces_at = np.zeros(n_vertices, dtype=np.int64)
    for a, b, c in fa:
        for v, (p, q) in ((a, (b, c)), (b, (c, a)), (c, (a, b))):
            link[int(v)].setdefault(int(p), []).append(int(q))
            link[int(v)].setdefault(int(q), []).append(int(p))
            nfaces_at[v] += 1
    for v in range(n_vertices):
        adj = link[v]
        start = next(iter(adj))
        stack, seen_v = [start], {start}
        while stack:
            for nxt in adj[stack.pop()]:
                if nxt not in seen_v:
                    seen_v.add(nxt)
                    stack.append(nxt)
        if len(seen_v) != len(adj) or nfaces_at[v] != len(adj):
            raise MeshValidationError(f"link of vertex {v} is not a single cycle")

    return dict(
        edges=edges,
        edge_faces=np.array([edge_faces[k] for k in edge_keys], dtype=np.int64),
        face_edges=fe,
        kernel_index=kernel_index,
        degrees=deg,
        edge_index=edge_index,
        chi=n_vertices - len(edge_keys) + fa.shape[0],
    )


def subdivide_faces(n_vertices, faces, edge_index):
    """Midpoint refinement's face list, one face at a time."""
    out = []
    for a, b, c in faces:
        a, b, c = int(a), int(b), int(c)
        mab = n_vertices + edge_index[(min(a, b), max(a, b))]
        mbc = n_vertices + edge_index[(min(b, c), max(b, c))]
        mca = n_vertices + edge_index[(min(c, a), max(c, a))]
        out += [(a, mab, mca), (b, mbc, mab), (c, mca, mbc), (mab, mbc, mca)]
    return np.array(out, dtype=np.int64)


def component_labels(n_vertices, edges):
    """The smallest vertex of each vertex's component of the edge graph, by
    breadth-first search from each vertex not yet reached, in order."""
    adj = [[] for _ in range(n_vertices)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    label = [-1] * n_vertices
    for start in range(n_vertices):
        if label[start] < 0:
            label[start] = start
            queue = deque([start])
            while queue:
                for nxt in adj[queue.popleft()]:
                    if label[nxt] < 0:
                        label[nxt] = start
                        queue.append(nxt)
    return np.array(label)
