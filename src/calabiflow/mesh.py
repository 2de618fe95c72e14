"""Combinatorial closed triangulated surfaces.

A :class:`Triangulation` is a purely combinatorial object: a vertex count
and a list of triangular faces.  Construction validates that the face list
describes a closed surface (every edge in exactly two faces, every vertex
link a single cycle) and derives the edge table, vertex degrees and the
Euler characteristic.  Instances are immutable after construction and safe
to share across threads.

Orientability is not required anywhere downstream, so face orientation is
neither checked nor normalized.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, MeshSyntaxError, MeshValidationError

__all__ = [
    "Triangulation",
    "VertexSubset",
    "parse_mesh",
    "subcomplex_euler",
    "link_pairs",
    "resolve_target",
]


class Triangulation:
    """A closed triangulated surface, given combinatorially.

    Parameters
    ----------
    n_vertices : int
        Number of vertices; faces index into ``range(n_vertices)``.
    faces : sequence of triples
        Triangles as vertex index triples.  Order of faces and of vertices
        within a face is preserved (it fixes deterministic summation orders
        downstream) but carries no orientation meaning.

    Attributes
    ----------
    faces : (F, 3) int64 array
    edges : (E, 2) int64 array
        Each row sorted ascending; rows in lexicographic order.
    face_edges : (F, 3) int64 array
        ``face_edges[f, m]`` is the edge id of the edge *opposite* corner
        ``m`` of face ``f`` (i.e. the edge joining the other two corners).
    edge_faces : (E, 2) int64 array
        The two face ids incident to each edge, in face order.
    kernel_index : tuple of int64 arrays
        ``(ea, eb, fv1, fv2, fe1, fe2, c1, c2)``, the index arrays the
        geometry kernels gather through (see ``_kernels.Mesh``): the edge
        endpoints as contiguous arrays, then ``faces``, ``face_edges`` and
        the flat corner index ``3 f + m`` rolled by one corner and by two.
    degrees : (N,) int64 array
        Vertex degrees (number of incident edges).
    chi : int
        Euler characteristic ``N - E + F``.

    Raises
    ------
    MeshValidationError
        If the face list is not a closed triangulated surface.
    """

    def __init__(self, n_vertices: int, faces: Sequence[Sequence[int]]):
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
                raise MeshValidationError(
                    f"face {f} = ({a}, {b}, {c}) repeats a vertex"
                )
        seen: dict[tuple[int, int, int], int] = {}
        for f, tri in enumerate(fa):
            key = tuple(sorted(int(v) for v in tri))
            if key in seen:
                raise MeshValidationError(
                    f"faces {seen[key]} and {f} have the same vertex set {key}"
                )
            seen[key] = f

        self.n_vertices = int(n_vertices)
        self.faces = fa
        self.faces.setflags(write=False)
        self.n_faces = fa.shape[0]

        # Edge table: sorted pairs, lexicographic; each edge must lie in
        # exactly two faces.
        edge_faces: dict[tuple[int, int], list[int]] = {}
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
        self.edges = np.array(edge_keys, dtype=np.int64)
        self.edges.setflags(write=False)
        self.n_edges = len(edge_keys)
        self.edge_index = {key: e for e, key in enumerate(edge_keys)}
        self.edge_faces = np.array([edge_faces[k] for k in edge_keys], dtype=np.int64)
        self.edge_faces.setflags(write=False)

        fe = np.empty((self.n_faces, 3), dtype=np.int64)
        for f, (a, b, c) in enumerate(fa):
            fe[f, 0] = self.edge_index[(min(b, c), max(b, c))]
            fe[f, 1] = self.edge_index[(min(c, a), max(c, a))]
            fe[f, 2] = self.edge_index[(min(a, b), max(a, b))]
        self.face_edges = fe
        self.face_edges.setflags(write=False)

        # entry [f, m] of a rolled array belongs to corner (m + k) % 3
        roll1, roll2 = [1, 2, 0], [2, 0, 1]
        corner = 3 * np.arange(self.n_faces)[:, None]
        index = (
            self.edges[:, 0].copy(),
            self.edges[:, 1].copy(),
            fa[:, roll1],
            fa[:, roll2],
            fe[:, roll1],
            fe[:, roll2],
            corner + roll1,
            corner + roll2,
        )
        for arr in index:
            arr.setflags(write=False)
        self.kernel_index = index

        deg = np.zeros(self.n_vertices, dtype=np.int64)
        for a, b in self.edges:
            deg[a] += 1
            deg[b] += 1
        self.degrees = deg
        self.degrees.setflags(write=False)
        if deg.min() == 0:
            v = int(np.argmin(deg))
            raise MeshValidationError(f"vertex {v} lies in no face")

        self._check_links()
        self.chi = self.n_vertices - self.n_edges + self.n_faces

    def _check_links(self):
        # With every edge already known to lie in exactly two faces, each
        # vertex link is a union of cycles; a surface vertex needs exactly
        # one.  Walk the link graph of each vertex and check connectivity.
        link: list[dict[int, list[int]]] = [dict() for _ in range(self.n_vertices)]
        nfaces_at = np.zeros(self.n_vertices, dtype=np.int64)
        for a, b, c in self.faces:
            for v, (p, q) in ((a, (b, c)), (b, (c, a)), (c, (a, b))):
                link[int(v)].setdefault(int(p), []).append(int(q))
                link[int(v)].setdefault(int(q), []).append(int(p))
                nfaces_at[v] += 1
        for v in range(self.n_vertices):
            adj = link[v]
            start = next(iter(adj))
            stack = [start]
            seen = {start}
            while stack:
                cur = stack.pop()
                for nxt in adj[cur]:
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
            if len(seen) != len(adj) or nfaces_at[v] != len(adj):
                raise MeshValidationError(
                    f"link of vertex {v} is not a single cycle"
                )

    def __repr__(self):
        return (
            f"Triangulation(N={self.n_vertices}, E={self.n_edges}, "
            f"F={self.n_faces}, chi={self.chi})"
        )


@dataclass(frozen=True)
class VertexSubset:
    """A nonempty proper subset of the vertices, in canonical sorted form."""

    members: tuple[int, ...]

    @classmethod
    def of(cls, t: Triangulation, members: Iterable[int]) -> "VertexSubset":
        ms = tuple(sorted(set(int(v) for v in members)))
        if not ms:
            raise ValueError("vertex subset must be nonempty")
        if ms[0] < 0 or ms[-1] >= t.n_vertices:
            raise ValueError(f"vertex index outside [0, {t.n_vertices})")
        if len(ms) == t.n_vertices:
            raise ValueError("vertex subset must be proper")
        return cls(ms)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def parse_mesh(text: str) -> Triangulation:
    """Parse the plain text mesh format into a validated triangulation.

    Format: ``#`` starts a comment (rest of line ignored), blank lines are
    skipped, the first data line is ``N F``, followed by exactly ``F``
    lines of three 0-based vertex indices each.

    Raises
    ------
    MeshSyntaxError
        On malformed text; the message includes the offending line number.
    MeshValidationError
        If the parsed face list fails surface validation.
    """
    rows: list[tuple[int, list[str]]] = []
    for ln, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            rows.append((ln, body.split()))
    if not rows:
        raise MeshSyntaxError("empty mesh file")

    def ints(ln: int, toks: list[str], want: int) -> list[int]:
        if len(toks) != want:
            raise MeshSyntaxError(
                f"line {ln}: expected {want} integers, got {len(toks)} token(s)"
            )
        out = []
        for k, tok in enumerate(toks):
            try:
                out.append(int(tok))
            except ValueError:
                raise MeshSyntaxError(
                    f"line {ln}: token {k + 1} ({tok!r}) is not an integer"
                ) from None
        return out

    ln0, head = rows[0]
    n, f = ints(ln0, head, 2)
    if n <= 0 or f <= 0:
        raise MeshSyntaxError(f"line {ln0}: N and F must be positive, got {n} {f}")
    if len(rows) - 1 != f:
        raise MeshSyntaxError(
            f"header promises {f} faces but file has {len(rows) - 1} face line(s)"
        )
    faces = [ints(ln, toks, 3) for ln, toks in rows[1:]]
    return Triangulation(n, faces)


def _members(t: Triangulation, subset) -> tuple[int, ...]:
    if isinstance(subset, VertexSubset):
        ms = subset.members
    else:
        ms = tuple(sorted(set(int(v) for v in subset)))
    if not ms:
        raise ValueError("vertex subset must be nonempty")
    if ms[0] < 0 or ms[-1] >= t.n_vertices:
        raise ValueError(f"vertex index outside [0, {t.n_vertices})")
    return ms


def subcomplex_euler(t: Triangulation, subset) -> int:
    """Euler characteristic of the full subcomplex spanned by ``subset``.

    The subcomplex consists of all vertices of ``subset`` together with
    every edge and face whose vertices all lie in ``subset``.  The subset
    may be any nonempty set of vertices, including all of them (in which
    case this returns ``t.chi``).
    """
    ms = _members(t, subset)
    inside = np.zeros(t.n_vertices, dtype=bool)
    inside[list(ms)] = True
    e_in = int(np.sum(inside[t.edges[:, 0]] & inside[t.edges[:, 1]]))
    f_in = int(
        np.sum(inside[t.faces[:, 0]] & inside[t.faces[:, 1]] & inside[t.faces[:, 2]])
    )
    return len(ms) - e_in + f_in


def link_pairs(t: Triangulation, subset) -> list[tuple[tuple[int, int], int]]:
    """Link of a vertex subset, as (edge, vertex) pairs.

    A pair ``((a, b), v)`` belongs to the link of ``I`` when ``v`` is in
    ``I``, neither ``a`` nor ``b`` is, and ``{a, b, v}`` is a face.  The
    result is sorted by ``(a, b, v)`` so repeated calls are deterministic.
    """
    ms = _members(t, subset)
    inside = np.zeros(t.n_vertices, dtype=bool)
    inside[list(ms)] = True
    out = []
    for a, b, c in t.faces:
        for v, (p, q) in ((a, (b, c)), (b, (c, a)), (c, (a, b))):
            if inside[v] and not inside[p] and not inside[q]:
                edge = (int(min(p, q)), int(max(p, q)))
                out.append((edge, int(v)))
    out.sort()
    return out


def resolve_target(t: Triangulation, target) -> np.ndarray:
    """A target curvature vector, checked against the mesh.

    ``None`` means the average curvature ``K_av = 2 pi chi / N`` at every
    vertex.  Anything else must be ``N`` finite numbers whose sum of
    squares is finite too: the flows' energy and the admissibility check
    sum such squares.
    """
    if target is None:
        return np.full(t.n_vertices, 2.0 * math.pi * t.chi / t.n_vertices)
    tgt = np.ascontiguousarray(target, dtype=np.float64)
    if tgt.shape != (t.n_vertices,):
        raise DomainError(
            f"target curvature has {tgt.shape} entries for {t.n_vertices} vertices"
        )
    with np.errstate(all="ignore"):
        squares = float(np.sum(tgt * tgt))
    if not math.isfinite(squares):
        raise DomainError("target curvature and its sum of squares must be finite")
    return tgt
