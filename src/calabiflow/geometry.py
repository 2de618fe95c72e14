"""Circle packing metrics and their induced Euclidean geometry.

A circle packing metric on a weighted triangulation assigns a radius
``r_i > 0`` to every vertex; together with an intersection-angle weight
``phi`` in ``[0, pi/2]`` per edge this induces an edge length

    l_ij = sqrt(r_i^2 + r_j^2 + 2 r_i r_j cos(phi_ij)).

For weights in ``[0, pi/2]`` these lengths always satisfy the strict
triangle inequality, so every face carries a genuine Euclidean triangle.
The combinatorial Gauss curvature at a vertex is ``2 pi`` minus the sum of
the incident corner angles, and satisfies the combinatorial Gauss-Bonnet
identity ``sum_i K_i = 2 pi chi``.

All objects here are immutable value types; operations are pure functions,
safe to call from multiple threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import _kernels
from .errors import DegenerateTriangleError, DomainError
from .mesh import Triangulation

__all__ = [
    "Weight",
    "PackingMetric",
    "GeometryState",
    "triangle_angles",
    "compute_geometry",
]

PHI_MAX = math.pi / 2.0


def _check_phi(phi: np.ndarray):
    if not np.all(np.isfinite(phi)):
        raise DomainError("weights must be finite")
    if phi.size and (phi.min() < 0.0 or phi.max() > PHI_MAX):
        raise DomainError(
            f"weights must lie in [0, pi/2]; got range "
            f"[{float(phi.min())!r}, {float(phi.max())!r}]"
        )


@dataclass(frozen=True)
class Weight:
    """Per-edge intersection angles ``phi`` in ``[0, pi/2]``.

    The ``phi`` array is aligned with ``Triangulation.edges``.
    """

    phi: np.ndarray

    def __post_init__(self):
        # a copy: freezing it leaves the caller's array writeable
        arr = np.array(self.phi, dtype=np.float64, order="C")
        _check_phi(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "phi", arr)

    @classmethod
    def uniform(cls, t: Triangulation, value: float) -> "Weight":
        return cls(np.full(t.n_edges, float(value)))

    @classmethod
    def from_edge_map(cls, t: Triangulation, pairs: Mapping[tuple, float]) -> "Weight":
        """Build from a ``{(a, b): phi}`` mapping covering every edge once."""
        phi = np.zeros(t.n_edges)
        assigned = np.zeros(t.n_edges, dtype=bool)
        for (a, b), value in pairs.items():
            key = (min(int(a), int(b)), max(int(a), int(b)))
            if key not in t.edge_index:
                raise DomainError(f"{key} is not an edge of the triangulation")
            e = t.edge_index[key]
            if assigned[e]:
                raise DomainError(f"edge {key} assigned a weight twice")
            assigned[e] = True
            phi[e] = float(value)
        missing = np.flatnonzero(~assigned)
        if missing.size:
            a, b = t.edges[missing[0]]
            raise DomainError(f"edge ({a}, {b}) has no weight assigned")
        return cls(phi)

    @property
    def cos_phi(self) -> np.ndarray:
        return np.cos(self.phi)


def _check_fit(t: Triangulation, w: Weight, m: PackingMetric | None = None):
    """Refuse a weight without one entry per edge of ``t``, or a metric
    without one radius per vertex.  Every public entry point passes its
    weight and metric through here before it reads them."""
    sizes = [("weight", w.phi.shape[0], t.n_edges, "edges")]
    if m is not None:
        sizes.append(("metric", m.n, t.n_vertices, "vertices"))
    for what, have, want, items in sizes:
        if have != want:
            raise DomainError(f"{what} has {have} entries for {want} {items}")


def _mesh_arrays(
    t: Triangulation, w: Weight, m: PackingMetric | None = None
) -> _kernels.Mesh:
    """The kernels' :class:`_kernels.Mesh` of a weighted mesh, once the
    weight (and the metric, if given) pass :func:`_check_fit`.

    Only the weight cosines are computed here.  The stacked index arrays
    through which the kernels gather, and the faces, opposite edges and
    edge endpoints that are views of their first rows, come from
    ``t.kernel_index``, built once with the triangulation.
    """
    _check_fit(t, w, m)
    ends, fv3, fe3, c1, c2 = t.kernel_index
    cphi = w.cos_phi
    return _kernels.Mesh(
        fv3[0], fe3[0], ends[0], ends[1], cphi, ends, fv3, fe3, c1, c2,
        cphi.take(fe3[0]), cphi.take(fe3[1]),
    )


class PackingMetric:
    """Vertex radii ``r`` together with their logarithms ``u = ln r``.

    Both arrays are kept and must stay consistent; use
    :meth:`from_radii` or :meth:`from_log_radii`.
    """

    __slots__ = ("r", "u")

    def __init__(self, r: np.ndarray, u: np.ndarray):
        # copies: freezing them leaves the caller's arrays writeable
        r = np.array(r, dtype=np.float64, order="C")
        u = np.array(u, dtype=np.float64, order="C")
        if r.ndim != 1 or r.shape != u.shape:
            raise DomainError("radii and log-radii must be 1-d arrays of equal length")
        if not np.all(np.isfinite(r)) or not np.all(np.isfinite(u)):
            raise DomainError("radii must be finite")
        if r.size == 0 or r.min() <= 0.0:
            raise DomainError("all radii must be positive")
        # consistency within 1e-12 relative
        if float(np.max(np.abs(u - np.log(r)))) > 1e-12 * (1.0 + float(np.max(np.abs(u)))):
            raise DomainError("log radii are inconsistent with radii")
        r.setflags(write=False)
        u.setflags(write=False)
        self.r = r
        self.u = u

    @classmethod
    def from_radii(cls, r: Iterable[float]) -> "PackingMetric":
        arr = np.asarray(list(r) if not isinstance(r, np.ndarray) else r, dtype=np.float64)
        if arr.size and arr.min() > 0.0:
            return cls(arr, np.log(arr))
        raise DomainError("all radii must be positive")

    @classmethod
    def from_log_radii(cls, u: Iterable[float]) -> "PackingMetric":
        arr = np.asarray(list(u) if not isinstance(u, np.ndarray) else u, dtype=np.float64)
        return cls(np.exp(arr), arr)

    @property
    def n(self) -> int:
        return self.r.shape[0]

    def __repr__(self):
        return f"PackingMetric(r={np.array2string(self.r, precision=6)})"


@dataclass(frozen=True)
class GeometryState:
    """Derived geometry of one metric: lengths, angles, curvatures.

    Attributes
    ----------
    lengths : (E,) array
        Edge lengths, aligned with ``Triangulation.edges``.
    angles : (F, 3) array
        Corner angles; ``angles[f, m]`` belongs to vertex ``faces[f, m]``.
    curvatures : (N,) array
        Combinatorial Gauss curvatures ``K_i``.
    avg_curvature : float
        The constant-curvature value ``2 pi chi / N``.
    """

    lengths: np.ndarray
    angles: np.ndarray
    curvatures: np.ndarray
    avg_curvature: float
    chi: int

    def gauss_bonnet_residual(self) -> float:
        return float(self.curvatures.sum() - 2.0 * math.pi * self.chi)


def triangle_angles(l_a: float, l_b: float, l_c: float) -> tuple[float, float, float]:
    """Angles of the Euclidean triangle with side lengths ``l_a, l_b, l_c``.

    Returns the angles opposite ``l_a``, ``l_b`` and ``l_c`` in that order.
    Arccos arguments are clamped to ``[-1, 1]`` to absorb roundoff.

    Raises
    ------
    DegenerateTriangleError
        If any strict triangle inequality fails.  Unreachable for the
        lengths of a packing with weights in ``[0, pi/2]``; the guard
        exists for direct callers.
    """
    a, b, c = float(l_a), float(l_b), float(l_c)
    if min(a, b, c) <= 0.0:
        raise DegenerateTriangleError(f"side lengths must be positive: {(a, b, c)}")
    if a + b <= c or b + c <= a or c + a <= b:
        raise DegenerateTriangleError(
            f"triangle inequality fails for sides {(a, b, c)}"
        )

    def one(opp, s1, s2):
        arg = (s1 * s1 + s2 * s2 - opp * opp) / (2.0 * s1 * s2)
        return math.acos(min(1.0, max(-1.0, arg)))

    return one(a, b, c), one(b, c, a), one(c, a, b)


def compute_geometry(t: Triangulation, w: Weight, m: PackingMetric) -> GeometryState:
    """Edge lengths, corner angles and Gauss curvatures of a metric.

    Curvature accumulation runs in a fixed face-major order, so repeated
    calls are bit-identical.
    """
    mesh = _mesh_arrays(t, w, m)
    s = _kernels.state(m.r, mesh)
    _kernels.raise_state_error(s.err)
    return GeometryState(
        lengths=s.lens,
        angles=s.ang,
        curvatures=s.K,
        avg_curvature=2.0 * math.pi * t.chi / t.n_vertices,
        chi=t.chi,
    )
