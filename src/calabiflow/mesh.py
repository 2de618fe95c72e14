"""Combinatorial closed triangulated surfaces.

A :class:`Triangulation` is a purely combinatorial object: a vertex count
and a list of triangular faces.  Construction validates that the face list
describes a closed surface (every edge in exactly two faces, every vertex
link a single cycle) and derives the edge table, vertex degrees and the
Euler characteristic.  Instances are immutable after construction (the
component labels are computed on first access and kept) and safe to share
across threads.

Orientability is not required anywhere downstream, so face orientation is
neither checked nor normalized.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import DomainError, MeshSyntaxError, MeshValidationError

__all__ = [
    "Triangulation",
    "VertexSubset",
    "data_lines",
    "parse_mesh",
    "subcomplex_euler",
    "link_pairs",
    "resolve_target",
]

_INT64_MIN, _INT64_MAX = int(np.iinfo(np.int64).min), int(np.iinfo(np.int64).max)


def _face_indices(f: int, face) -> list[int]:
    """Face ``f`` as three Python ints; a float entry must be integral."""
    try:
        values = list(face)
        out = [int(v) for v in values]
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or len(out) != 3 or out != values:
        raise MeshValidationError(f"face {f} = {face!r} is not three integer vertex indices")
    return out


def _component_labels(n: int, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """The smallest node of each node's component in the graph on
    ``range(n)`` with edges ``(i[k], j[k])``: each round hooks the larger
    root of every edge that joins two trees onto the smaller, then jumps
    pointers until every node points at its root."""
    parent = np.arange(n)
    while True:
        pi, pj = parent[i], parent[j]
        if np.array_equal(pi, pj):
            return parent
        np.minimum.at(parent, np.maximum(pi, pj), np.minimum(pi, pj))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped


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
    edge_index : dict
        ``(a, b) -> e`` for every row ``e = (a, b)`` of ``edges``.
    face_edges : (F, 3) int64 array
        ``face_edges[f, m]`` is the edge id of the edge *opposite* corner
        ``m`` of face ``f`` (i.e. the edge joining the other two corners).
    edge_faces : (E, 2) int64 array
        The two face ids incident to each edge, in face order.
    kernel_index : tuple of int64 arrays
        ``(ends, fv3, fe3, c1, c2)``, the index arrays the geometry kernels
        gather through (see ``_kernels.Mesh``): the edge endpoints stacked
        as (2, E), ``faces`` and ``face_edges`` each stacked with their
        rolls by one corner and by two as (3, F, 3), and the flat corner
        index ``3 f + m`` rolled by one corner and by two.
    degrees : (N,) int64 array
        Vertex degrees (number of incident edges).
    chi : int
        Euler characteristic ``N - E + F``.
    components : (N,) int64 array
        The smallest vertex in each vertex's component of the edge graph,
        computed on first access; ``connected`` is whether there is one.

    Raises
    ------
    MeshValidationError
        If the face list is not a closed triangulated surface.  The checks
        run in this order, and each names its first offender: the first
        face that is not three integers (a float must be integral); the
        first face that repeats a vertex; the first face whose vertex set an
        earlier face has, with the earliest such face; the first edge, in
        corner order, that does not lie in exactly two faces; the smallest
        vertex in no face; the smallest vertex whose link is not a single
        cycle.  Corner order visits faces in order and, within face ``f``,
        the edges opposite corners 0, 1 and 2.

    Notes
    -----
    The tables are built with array operations.  A stable sort of the
    corner slots by edge ``(min, max)`` gives ``edges`` in lexicographic
    order, and each edge's two slots in face order, hence ``edge_faces``.
    ``edge_index`` maps each edge ``(a, b)`` (``a < b``) to its row.  No
    array of ``N`` entries is allocated before every vertex is known to
    lie in a face, so an ``N`` beyond ``3 F`` is refused without one.
    """

    def __init__(self, n_vertices: int, faces: Sequence[Sequence[int]]):
        if n_vertices < 3:
            raise MeshValidationError(f"need at least 3 vertices, got {n_vertices}")
        try:
            fa = np.asarray(faces)
        except ValueError:  # ragged, or a face that is not a sequence
            fa = None
        # unsigned arrays go face by face too: a cast to int64 would wrap an
        # index above its range to a negative one
        if fa is None or fa.dtype.kind not in "bi":
            fa = [_face_indices(f, face) for f, face in enumerate(faces)]
        try:
            # a copy: freezing it leaves the caller's array writeable
            fa = np.array(fa, dtype=np.int64)
        except OverflowError:
            bad = next(v for f in fa for v in f if not _INT64_MIN <= v <= _INT64_MAX)
            raise MeshValidationError(
                f"face vertex index {bad} outside range [0, {n_vertices})"
            ) from None
        if fa.ndim != 2 or fa.shape[1] != 3:
            raise MeshValidationError("faces must be triples of vertex indices")
        if fa.shape[0] < 2:
            raise MeshValidationError("a closed surface needs at least 2 faces")
        if fa.min() < 0 or fa.max() >= n_vertices:
            bad = int(fa.min()) if fa.min() < 0 else int(fa.max())
            raise MeshValidationError(
                f"face vertex index {bad} outside range [0, {n_vertices})"
            )
        nf = fa.shape[0]
        a, b, c = fa.T
        repeats = np.flatnonzero((a == b) | (b == c) | (a == c))
        if repeats.size:
            f = int(repeats[0])
            raise MeshValidationError(
                f"face {f} = ({a[f]}, {b[f]}, {c[f]}) repeats a vertex"
            )
        # vertex sets in a stable sort (np.unique would import numpy.ma on
        # first use): each run of equal sets lists its faces ascending, so
        # the first face that repeats a set is second in its run
        sets = np.sort(fa, axis=1)
        order = np.lexsort(sets.T[::-1])
        sets = sets[order]
        later = np.flatnonzero(np.all(sets[1:] == sets[:-1], axis=1)) + 1
        if later.size:
            k = later[np.argmin(order[later])]
            key = tuple(int(v) for v in sets[k])
            raise MeshValidationError(
                f"faces {order[k - 1]} and {order[k]} have the same vertex set {key}"
            )

        self.n_vertices = int(n_vertices)
        self.faces = fa
        self.faces.setflags(write=False)
        self.n_faces = nf

        # Edge table: corner slot 3 f + m holds the edge opposite corner m,
        # as (min, max); a stable sort by that pair gives the edges in
        # lexicographic order, each run of slots in face order.
        p, q = fa[:, [1, 2, 0]].ravel(), fa[:, [2, 0, 1]].ravel()
        lo, hi = np.minimum(p, q), np.maximum(p, q)
        order = np.lexsort((hi, lo))
        lo, hi = lo[order], hi[order]
        run_start = np.flatnonzero(
            np.r_[True, (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])]
        )
        counts = np.diff(np.r_[run_start, order.size])
        bad = np.flatnonzero(counts != 2)
        if bad.size:
            k = bad[np.argmin(order[run_start[bad]])]
            key = (int(lo[run_start[k]]), int(hi[run_start[k]]))
            raise MeshValidationError(
                f"edge {key} lies in {counts[k]} face(s), expected exactly 2"
            )
        # every run has two slots: sorted slots 2 e and 2 e + 1 are edge e
        self.edges = np.stack([lo[0::2], hi[0::2]], axis=1)
        self.edges.setflags(write=False)
        self.n_edges = self.edges.shape[0]
        self.edge_index = dict(
            zip(zip(lo[0::2].tolist(), hi[0::2].tolist()), range(self.n_edges))
        )
        self.edge_faces = (order // 3).reshape(-1, 2)
        self.edge_faces.setflags(write=False)
        fe = np.empty(3 * nf, dtype=np.int64)
        fe[order] = np.arange(3 * nf) // 2
        fe = fe.reshape(nf, 3)
        self.face_edges = fe
        self.face_edges.setflags(write=False)

        # entry [f, m] of a rolled array belongs to corner (m + k) % 3
        roll1, roll2 = [1, 2, 0], [2, 0, 1]
        corner = 3 * np.arange(nf)[:, None]
        index = (
            np.ascontiguousarray(self.edges.T),
            np.stack([fa, fa[:, roll1], fa[:, roll2]]),
            np.stack([fe, fe[:, roll1], fe[:, roll2]]),
            corner + roll1,
            corner + roll2,
        )
        for arr in index:
            arr.setflags(write=False)
        self.kernel_index = index

        # no array of N entries before every vertex is known to lie in a
        # face, which bounds N by 3 F
        used = np.sort(fa, axis=None)
        used = used[np.r_[True, used[1:] != used[:-1]]]
        if used.size < n_vertices:
            gaps = np.flatnonzero(used != np.arange(used.size))
            v = int(gaps[0]) if gaps.size else used.size
            raise MeshValidationError(f"vertex {v} lies in no face")
        self.degrees = np.bincount(self.edges.ravel(), minlength=self.n_vertices)
        self.degrees.setflags(write=False)

        self._check_links()
        self.chi = self.n_vertices - self.n_edges + self.n_faces

    def _check_links(self):
        # With every edge in exactly two faces and no two faces on one
        # vertex set, each vertex link is a 2-regular simple graph, so it is
        # a single cycle exactly when it is connected.  Link node 2 e + s is
        # the far end of edge e seen from its endpoint edges[e, s]; corner m
        # of face f joins the nodes of its two face edges (the rolled
        # face_edges) at its vertex.
        owner = self.edges.ravel()
        v = self.faces.ravel()
        e1, e2 = self.kernel_index[2][1].ravel(), self.kernel_index[2][2].ravel()
        i = 2 * e1 + (self.edges[e1, 1] == v)
        j = 2 * e2 + (self.edges[e2, 1] == v)
        labels = _component_labels(owner.size, i, j)
        roots = np.flatnonzero(labels == np.arange(owner.size))
        cycles = np.bincount(owner[roots], minlength=self.n_vertices)
        if cycles.max() > 1:
            v = int(np.argmax(cycles > 1))
            raise MeshValidationError(f"link of vertex {v} is not a single cycle")

    @functools.cached_property
    def components(self) -> np.ndarray:
        return _component_labels(self.n_vertices, self.edges[:, 0], self.edges[:, 1])

    @functools.cached_property
    def connected(self) -> bool:
        """True iff the edge graph is connected."""
        return not self.components.any()

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
        ms = _members(t, members)
        if len(ms) == t.n_vertices:
            raise ValueError("vertex subset must be proper")
        return cls(ms)

    def __len__(self):
        return len(self.members)

    def __iter__(self):
        return iter(self.members)


def data_lines(text: str) -> list[tuple[int, str]]:
    """``(lineno, line)`` for each line of ``text`` that is not blank once
    its ``#`` comment is cut, ``line`` stripped.  Lines end at ``\\n`` and
    count from 1, as ``grep -n`` counts them; any other whitespace, a
    ``\\r`` or a form feed included, only separates tokens."""
    lines = enumerate(text.split("\n"), 1)
    return [(n, line) for n, raw in lines if (line := raw.split("#", 1)[0].strip())]


def parse_mesh(text: str) -> Triangulation:
    """Parse the plain text mesh format into a validated triangulation.

    Format: the data lines of :func:`data_lines` (``#`` starts a comment,
    blank lines are skipped, lines end at ``\\n``); the first is ``N F``,
    followed by exactly ``F`` lines of three 0-based vertex indices each.

    Raises
    ------
    MeshSyntaxError
        On malformed text, including an integer that does not fit in 64
        bits; the message includes the offending line number.
    MeshValidationError
        If the parsed face list fails surface validation.
    """
    rows = data_lines(text)
    if not rows:
        raise MeshSyntaxError("empty mesh file")

    def ints(ln: int, line: str, want: int) -> list[int]:
        toks = line.split()
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
            if not _INT64_MIN <= out[-1] <= _INT64_MAX:
                raise MeshSyntaxError(
                    f"line {ln}: token {k + 1} ({tok!r}) does not fit in 64 bits"
                )
        return out

    ln0, head = rows[0]
    n, f = ints(ln0, head, 2)
    if n <= 0 or f <= 0:
        raise MeshSyntaxError(f"line {ln0}: N and F must be positive, got {n} {f}")
    if len(rows) - 1 != f:
        raise MeshSyntaxError(
            f"header promises {f} faces but file has {len(rows) - 1} face line(s)"
        )
    faces = [ints(ln, line, 3) for ln, line in rows[1:]]
    return Triangulation(n, faces)


def _members(t: Triangulation, subset) -> tuple[int, ...]:
    """The sorted distinct members of a nonempty subset of ``range(N)``."""
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
    sum such squares.  Every entry point that takes a target (the flows,
    the potential, the energy, the admissibility check) reads it here.
    """
    if target is None:
        return np.full(t.n_vertices, 2.0 * math.pi * t.chi / t.n_vertices)
    tgt = np.ascontiguousarray(target, dtype=np.float64)
    if tgt.ndim != 1:
        raise DomainError(f"target must be a vector, got an array of shape {tgt.shape}")
    if tgt.size != t.n_vertices:
        raise DomainError(f"target has {tgt.size} entries for {t.n_vertices} vertices")
    with np.errstate(all="ignore"):
        squares = float(np.sum(tgt * tgt))
    if not math.isfinite(squares):
        raise DomainError("target curvature and its sum of squares must be finite")
    return tgt
