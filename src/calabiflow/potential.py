"""Energy and potential functions of the curvature flows.

The Calabi energy ``C(u) = sum_i (K_i - Kbar_i)^2`` is the Lyapunov
function of the Calabi flows.  The Ricci potential

    f(u) = integral from u_base to u of sum_i (K_i - Kbar_i) du_i

is well defined because the 1-form is closed (its Jacobian, the dual
Laplacian, is symmetric); it is convex, and strictly convex transverse to
the constant direction, which makes the constant-curvature metric the
unique minimum up to scaling.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from . import _kernels
from .errors import DomainError, InternalConsistencyError, QuadratureError
from .errors import NoConstantCurvatureMetric
# nothing here calls integrate: perfbench's tracer rebinds potential.integrate
# and needs the name to exist
from .flows import integrate  # noqa: F401
from .geometry import PackingMetric, Weight, _check_fit, _mesh_arrays, compute_geometry
from .mesh import Triangulation, resolve_target
from .thurston import _at_floor, _newton

__all__ = [
    "calabi_energy",
    "ricci_potential",
    "properness_probe",
    "constant_curvature_log_metric",
]

# largest Gauss-Legendre order ricci_potential tries
MAX_NODES = 2**10
# largest relative path residual a probe accepts: the form is closed
PATH_TOL = 1e-7


def calabi_energy(
    t: Triangulation, w: Weight, m: PackingMetric, target=None
) -> float:
    """``sum_i (K_i - target_i)^2`` (target defaults to the average curvature)."""
    tgt = resolve_target(t, target)
    geo = compute_geometry(t, w, m)
    return float(np.sum((geo.curvatures - tgt) ** 2))


def ricci_potential(
    t: Triangulation,
    w: Weight,
    u_from: np.ndarray,
    u_to: np.ndarray,
    target=None,
    tol: float = 1e-8,
) -> float | np.ndarray:
    """Line integral of ``<K - target, du>`` along straight segments.

    ``u_from`` and ``u_to`` are log-radius vectors (n,) or batches of them
    (m, n), broadcast against each other; the result is a float for one
    segment and an (m,) array for a batch, 0.0 for a segment of zero
    length.  For weights in [0, pi/2] no triangle degenerates at any
    radii, so the integrand is analytic in the segment parameter and
    Gauss-Legendre quadrature converges exponentially.  Every segment
    tries orders 4, 8, 16, ... and stops at the first order that agrees
    with the one before within ``tol * (1 + |value|)``; each order is one
    batched kernel call over the segments still open, so a segment's value
    is that of a call on it alone, bit for bit.  Past ``MAX_NODES`` nodes
    a :class:`QuadratureError` is raised.  Path independence (integrating
    via any intermediate point gives the same value) follows from
    closedness of the form and is what :func:`properness_probe` and the
    ``potential-probe`` CLI verify.
    """
    tgt = resolve_target(t, target)
    if not 0.0 < tol < math.inf:
        raise DomainError("tol must be positive and finite")
    u_from = np.asarray(u_from, dtype=np.float64)
    u_to = np.asarray(u_to, dtype=np.float64)
    n = t.n_vertices
    shapes = (u_from.shape, u_to.shape)
    if not all(len(s) in (1, 2) and s[-1] == n for s in shapes):
        raise DomainError("segment endpoints must be log-radius vectors")
    try:
        u_from, u_to = np.broadcast_arrays(u_from, u_to)
    except ValueError:
        raise DomainError(f"segment endpoint shapes {shapes} do not match") from None
    if not (np.all(np.isfinite(u_from)) and np.all(np.isfinite(u_to))):
        raise DomainError("segment endpoints must be finite")
    du = (u_to - u_from).reshape(-1, n)
    u0 = u_from.reshape(-1, n)
    mesh = _mesh_arrays(t, w)
    values = np.zeros(du.shape[0])
    todo = np.flatnonzero(du.any(axis=1))
    order, prev = 4, None
    while todo.size:
        if order > MAX_NODES:
            raise QuadratureError(
                f"Gauss-Legendre orders did not agree within {tol!r} by "
                f"{MAX_NODES} nodes"
            )
        cur = _kernels.segment_potential(u0[todo], du[todo], tgt, order, mesh)
        if prev is not None:
            done = np.abs(cur - prev) < tol * (1.0 + np.abs(cur))
            values[todo[done]] = cur[done]
            todo, cur = todo[~done], cur[~done]
        prev = cur
        order *= 2
    return values if u_to.ndim == 2 else float(values[0])


@contextlib.contextmanager
def _probe_guard(radius: float):
    """Turn a probe's failure far out along a ray into a one-line
    ``DomainError`` naming its largest radius: there the cosine law fails
    in floating point at some node, or the quadrature stops converging,
    and neither fails monotonically along a ray, so no cheaper test
    predicts it.  ``ricci_potential`` raises ``InternalConsistencyError``
    only from those geometry checks."""
    try:
        yield
    except (InternalConsistencyError, QuadratureError):
        raise DomainError(
            f"the Ricci potential cannot be evaluated out to radius {radius!r} "
            "from the base metric: the radii there spread past the range in "
            "which the cosine law and the quadrature hold in floating point"
        ) from None


def _probe(n, directions, radii):
    """The rays and the path test of a probe, as offsets from its base:
    ``(offsets_from, offsets_to, finish)``.

    Refuses no radii or directions, radii not positive and finite, and
    directions not of length ``n``, zero or not orthogonal to the
    constants; each direction is made unit.  The segments are each ray
    ``s d`` in pieces between its sorted distinct radii from 0, ray-major,
    then the path legs ``0 -> mid -> far``: ``far`` is ray 0 at the largest
    radius, ``mid`` half way to it on ray 1 (ray 0 if alone).  ``finish``
    maps the segments' values to the (rays, len(radii)) running sums at
    ``radii`` as given, and the legs' relative residual against ray 0.
    """
    radii = [float(s) for s in radii]
    if not radii or not all(0.0 < s < math.inf for s in radii):
        raise DomainError("give at least one probe radius, each positive and finite")
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    if directions.shape[1] != n or not len(directions):
        raise DomainError("give at least one direction, with one entry per vertex")
    dirs = []
    for idx, d in enumerate(directions):
        norm = float(np.linalg.norm(d))
        if norm == 0.0:
            raise DomainError(f"direction {idx} is zero")
        d = d / norm
        if abs(float(d.sum())) > 1e-9 * math.sqrt(n):
            raise DomainError(f"direction {idx} has a component along the constant vectors")
        dirs.append(d)
    levels, where = np.unique(radii, return_inverse=True)
    to = levels[:, None] * np.array(dirs)[:, None, :]
    fro = np.concatenate([np.zeros_like(to[:, :1]), to[:, :-1]], axis=1)
    mid = 0.5 * levels[-1] * dirs[min(1, len(dirs) - 1)]
    fro = np.vstack([fro.reshape(-1, n), np.zeros(n), mid])
    to = np.vstack([to.reshape(-1, n), mid, to[0, -1]])

    def finish(values):
        ray = np.cumsum(values[:-2].reshape(len(dirs), -1), axis=1)
        direct = float(ray[0, -1])
        residual = abs(direct - (float(values[-2]) + float(values[-1])))
        return ray[:, where], residual / (1.0 + abs(direct))

    return fro, to, finish


def properness_probe(
    t: Triangulation,
    w: Weight,
    base: PackingMetric,
    directions: np.ndarray | None = None,
    radii=(1.0, 2.0, 4.0, 8.0),
) -> list[tuple[int, float, float]]:
    """Sample the Ricci potential along rays off a base metric.

    Directions must be orthogonal to the constant vectors (the potential
    is flat along scaling); they are normalized here.  Radii may come in
    any order and repeat.  All radii and directions are checked before any
    integration; each ray is then integrated once, piece by piece between
    its radii, in one batched :func:`ricci_potential` call with a path to
    ray 0's far end (:func:`_probe`); the form is closed, so a path off by
    more than ``PATH_TOL`` raises ``InternalConsistencyError``.  Returns
    rows ``(direction_index, radius, f)``, direction-major, radii in the
    order given.  When the base is the constant-curvature metric, each
    row's value must be positive and increase with radius — that growth is
    the properness that forces existence of the minimum.  A potential that
    cannot be evaluated out to the largest radius raises ``DomainError``.
    """
    _check_fit(t, w, base)
    n = t.n_vertices
    radii = [float(s) for s in radii]
    if directions is None:
        directions = np.zeros((n - 1, n))
        for k in range(1, n):
            directions[k - 1, :k] = 1.0
            directions[k - 1, k] = -float(k)
            directions[k - 1] /= math.sqrt(k * (k + 1.0))
    fro, to, finish = _probe(n, directions, radii)
    with _probe_guard(max(radii)):
        rows, residual = finish(ricci_potential(t, w, base.u + fro, base.u + to))
    if residual > PATH_TOL:
        raise InternalConsistencyError(
            f"the Ricci potential depends on the path: relative residual {residual!r}"
        )
    return [
        (idx, s, float(v))
        for idx, ray in enumerate(rows)
        for s, v in zip(radii, ray)
    ]


def constant_curvature_log_metric(
    t: Triangulation,
    w: Weight,
    seed_metric: PackingMetric | None = None,
) -> PackingMetric:
    """The constant-curvature metric in the conformal class of the seed.

    Found by the damped Newton solve of ``K(u) = K_av`` from the seed that
    also decides admissibility (``thurston._newton``, which refuses a
    disconnected surface): its last iterate, kept at the seed's ``sum u``.
    Raises :class:`NoConstantCurvatureMetric` when that iterate is short of
    the roundoff floor (``thurston._at_floor``), since the solve stalled,
    met its step limit or collapsed, as it does when the constant curvature
    is not admissible, and ``InternalConsistencyError`` when the seed's
    geometry does not evaluate.
    """
    _check_fit(t, w, seed_metric)
    seed = seed_metric or PackingMetric.from_radii(np.ones(t.n_vertices))
    tgt = resolve_target(t, None)
    iterates = []
    _newton(t, w, tgt, seed.u, lambda u, s: iterates.append((u, s)))
    u, s = iterates[-1]
    if not _at_floor(s, tgt):
        dev = float(np.max(np.abs(s.K - tgt)))
        raise NoConstantCurvatureMetric(
            f"the Newton solve of K = K_av stopped at max|K - K_av| = {dev:.3g}")
    return PackingMetric.from_log_radii(u - (u.sum() - seed.u.sum()) / t.n_vertices)
