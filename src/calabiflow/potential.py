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

import math

import numpy as np

from . import _kernels
from .errors import DomainError, NoConstantCurvatureMetric, QuadratureError
from .flows import FlowKind, IntegratorOptions, integrate
from .geometry import PackingMetric, Weight, _mesh_arrays, compute_geometry
from .laplacian import assemble
from .mesh import Triangulation, resolve_target

__all__ = [
    "calabi_energy",
    "energy_gradient",
    "ricci_potential",
    "restricted_hessian_check",
    "properness_probe",
    "constant_curvature_log_metric",
]

MAX_PANELS = 2**20


def calabi_energy(
    t: Triangulation, w: Weight, m: PackingMetric, target=None
) -> float:
    """``sum_i (K_i - target_i)^2`` (target defaults to the average curvature)."""
    tgt = resolve_target(t, target)
    geo = compute_geometry(t, w, m)
    return float(np.sum((geo.curvatures - tgt) ** 2))


def energy_gradient(
    t: Triangulation, w: Weight, m: PackingMetric, target=None
) -> np.ndarray:
    """Gradient of the Calabi energy in ``u``: ``2 L (K - target)``.

    Always orthogonal to the constant vectors, which is why the Calabi
    flows conserve ``sum u``.
    """
    tgt = resolve_target(t, target)
    geo = compute_geometry(t, w, m)
    lap = assemble(t, w, m)
    # apply() is the discrete Laplacian -L f, so the gradient 2 L (K - Kbar)
    # needs the sign flipped
    return -2.0 * lap.apply(geo.curvatures - tgt)


def _segment(t, w, u0, du, tgt, panels):
    val, err = _kernels.segment_potential(u0, du, tgt, panels, *_mesh_arrays(t, w))
    _kernels.raise_state_error(err)
    return val


def ricci_potential(
    t: Triangulation,
    w: Weight,
    u_from: np.ndarray,
    u_to: np.ndarray,
    target=None,
    tol: float = 1e-8,
) -> float:
    """Line integral of ``<K - target, du>`` along the straight segment.

    Uses composite Simpson quadrature with panel doubling until the
    Richardson error estimate ``|S_2M - S_M| / 15`` drops below
    ``tol * (1 + |value|)``.  Path independence (integrating via any
    intermediate point gives the same value) follows from closedness of
    the form and is what the ``potential-probe`` CLI verifies.
    """
    tgt = resolve_target(t, target)
    u_from = np.ascontiguousarray(u_from, dtype=np.float64)
    u_to = np.ascontiguousarray(u_to, dtype=np.float64)
    if u_from.shape != (t.n_vertices,) or u_to.shape != (t.n_vertices,):
        raise DomainError("segment endpoints must be log-radius vectors")
    du = u_to - u_from
    if not np.any(du):
        return 0.0
    panels = 4
    prev = _segment(t, w, u_from, du, tgt, panels)
    while panels <= MAX_PANELS:
        panels *= 2
        cur = _segment(t, w, u_from, du, tgt, panels)
        if abs(cur - prev) / 15.0 < tol * (1.0 + abs(cur)):
            return float(cur)
        prev = cur
    raise QuadratureError(
        f"Simpson refinement did not settle below {tol!r} within "
        f"{MAX_PANELS} panels"
    )


def restricted_hessian_check(
    t: Triangulation, w: Weight, m: PackingMetric
) -> float:
    """Smallest eigenvalue of the potential's Hessian transverse to constants.

    The Hessian of the Ricci potential at ``u`` is the dual Laplacian, so
    this is exactly ``lambda_1(L)``; a positive value certifies local
    strict convexity off the scaling direction.
    """
    return assemble(t, w, m).lambda1()


def properness_probe(
    t: Triangulation,
    w: Weight,
    base: PackingMetric,
    directions: np.ndarray | None = None,
    radii=(1.0, 2.0, 4.0, 8.0),
    target=None,
    tol: float = 1e-8,
) -> list[tuple[int, float, float]]:
    """Sample the Ricci potential along rays off a base metric.

    Directions must be orthogonal to the constant vectors (the potential
    is flat along scaling); they are normalized here.  Returns rows
    ``(direction_index, radius, f)``.  When the base is the
    constant-curvature metric, each row's value must be positive and
    increase with radius — that growth is the properness that forces
    existence of the minimum.
    """
    if directions is None:
        n = t.n_vertices
        directions = np.zeros((n - 1, n))
        for k in range(1, n):
            directions[k - 1, :k] = 1.0
            directions[k - 1, k] = -float(k)
            directions[k - 1] /= math.sqrt(k * (k + 1.0))
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    if directions.shape[1] != t.n_vertices:
        raise DomainError("each direction must have one entry per vertex")
    rows: list[tuple[int, float, float]] = []
    for idx, d in enumerate(directions):
        norm = float(np.linalg.norm(d))
        if norm == 0.0:
            raise DomainError(f"direction {idx} is zero")
        d = d / norm
        if abs(float(d.sum())) > 1e-9 * math.sqrt(t.n_vertices):
            raise DomainError(
                f"direction {idx} has a component along the constant vectors"
            )
        for s in radii:
            s = float(s)
            if s <= 0:
                raise DomainError("probe radii must be positive")
            val = ricci_potential(
                t, w, base.u, base.u + s * d, target=target, tol=tol
            )
            rows.append((idx, s, float(val)))
    return rows


def constant_curvature_log_metric(
    t: Triangulation,
    w: Weight,
    seed_metric: PackingMetric | None = None,
    opts: IntegratorOptions = IntegratorOptions(curvature_tol=1e-12),
) -> PackingMetric:
    """The constant-curvature metric in the conformal class of the seed.

    Found by running the Calabi flow with the settings ``opts``; the
    result keeps the seed's ``sum u`` (the flow conserves it).  Raises
    :class:`NoConstantCurvatureMetric` when the flow does not converge.
    """
    seed = seed_metric or PackingMetric.from_radii(np.ones(t.n_vertices))
    trace = integrate(FlowKind.calabi(), t, w, seed, opts)
    if trace.status != "converged":
        raise NoConstantCurvatureMetric(
            f"calabi flow ended with status {trace.status!r}"
        )
    u = trace.final_metric.u
    u = u - (u.sum() - seed.u.sum()) / t.n_vertices
    return PackingMetric.from_log_radii(u)
