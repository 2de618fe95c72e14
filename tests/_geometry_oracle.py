"""Per-face and closed-form references the tests hold the library against.

The half weights of one face, by the cosine-law chain rule and by the
dual-length quotient, in plain ``math``; the induced edge length; the flow
velocity, the curvature derivative along it and the Calabi energy gradient.
The library itself assembles ``L`` in one way only (``calabiflow.assemble``,
through ``_kernels.state``); these are the independent routes it is checked
against.
"""

import math

import numpy as np

from calabiflow import _kernels
from calabiflow.errors import DomainError, InternalConsistencyError
from calabiflow.geometry import (
    PHI_MAX,
    _check_phi,
    _mesh_arrays,
    compute_geometry,
    triangle_angles,
)
from calabiflow.laplacian import assemble
from calabiflow.mesh import resolve_target

# slot of the face edge between two local vertices in (phi_01, phi_12, phi_20)
_EDGE_SLOT = {(0, 1): 0, (1, 0): 0, (1, 2): 1, (2, 1): 1, (0, 2): 2, (2, 0): 2}


def _face_inputs(r, phi, corner, moving):
    """``(r_c, r_m, r_o), (phi_cm, phi_co, phi_mo), (l_cm, l_co, l_mo)``
    of one face, validated once."""
    if corner == moving or not {corner, moving} <= {0, 1, 2}:
        raise DomainError("corner and moving must be distinct members of {0, 1, 2}")
    r = [float(x) for x in r]
    phi = [float(x) for x in phi]
    if len(r) != 3 or len(phi) != 3:
        raise DomainError("expected three radii and three weights")
    if any(x <= 0.0 for x in r):
        raise DomainError("radii must be positive")
    if not all(math.isfinite(x) for x in phi):
        raise DomainError("weights must be finite")
    if min(phi) < 0.0 or max(phi) > PHI_MAX:
        raise DomainError(
            f"weights must lie in [0, pi/2]; got range [{min(phi)!r}, {max(phi)!r}]"
        )
    other = 3 - corner - moving
    r_c, r_m, r_o = r[corner], r[moving], r[other]
    p_cm = phi[_EDGE_SLOT[corner, moving]]
    p_co = phi[_EDGE_SLOT[corner, other]]
    p_mo = phi[_EDGE_SLOT[moving, other]]

    def length(a, b, p):
        return math.sqrt(a * a + b * b + 2.0 * a * b * math.cos(p))

    lengths = (length(r_c, r_m, p_cm), length(r_c, r_o, p_co), length(r_m, r_o, p_mo))
    return (r_c, r_m, r_o), (p_cm, p_co, p_mo), lengths


def half_weight_analytic(r, phi, corner, moving):
    """One face's contribution to ``B``, by the cosine-law chain rule.

    ``r = (r_0, r_1, r_2)`` are the radii at the face's vertices and
    ``phi = (phi_01, phi_12, phi_20)`` the weights of its edges.  Returns
    the derivative of the angle at ``corner`` with respect to the radius at
    ``moving``, times that radius.
    """
    (r_c, r_m, r_o), (p_cm, _, p_mo), (l_cm, l_co, l_mo) = _face_inputs(
        r, phi, corner, moving
    )
    theta_c, theta_m, _ = triangle_angles(l_mo, l_co, l_cm)
    bracket = (r_m + r_o * math.cos(p_mo)) - (l_mo * math.cos(theta_m) / l_cm) * (
        r_m + r_c * math.cos(p_cm)
    )
    return r_m / (l_cm * l_co * math.sin(theta_c)) * bracket


def _aux_cos(r_near, side, r_far):
    """Angle cosine in the auxiliary triangle (r_near, side; r_far opposite)."""
    arg = (r_near * r_near + side * side - r_far * r_far) / (2.0 * r_near * side)
    if abs(arg) - 1.0 > _kernels.CLAMP_TOL:
        raise InternalConsistencyError(
            f"auxiliary triangle degenerate (cos = {arg!r}); unreachable for "
            "weights in [0, pi/2]"
        )
    return min(1.0, max(-1.0, arg))


def half_weight_dual(r, phi, corner, moving):
    """One face's contribution to ``B``, as dual length over primal length.

    The circles at ``moving`` and ``other`` (resp. ``corner`` and
    ``moving``) meet in a point that spans an auxiliary triangle with the
    corresponding primal edge; the half-contribution is the quotient of the
    resulting dual edge length by the primal edge length.  Agrees with
    :func:`half_weight_analytic` to roundoff.
    """
    (r_c, r_m, r_o), _, (l_cm, l_co, l_mo) = _face_inputs(r, phi, corner, moving)
    _, theta_m, _ = triangle_angles(l_mo, l_co, l_cm)
    cos_aux1 = _aux_cos(r_m, l_mo, r_o)
    cos_aux2 = _aux_cos(r_m, l_cm, r_c)
    dual = r_m * (cos_aux1 - math.cos(theta_m) * cos_aux2) / math.sin(theta_m)
    return dual / l_cm


def dual_edge_weights(t, w, m):
    """``B`` per edge of a weighted mesh, summed face by face from
    :func:`half_weight_dual`; the weight of the edge opposite corner ``k``
    is the face's half weight with corner ``k + 1`` and moving ``k + 2``."""
    b = np.zeros(t.n_edges)
    for f, tri in enumerate(t.faces):
        r = m.r[tri]
        # phi of the local edges (0, 1), (1, 2), (2, 0): opposite corners 2, 0, 1
        phi = w.phi[t.face_edges[f, [2, 0, 1]]]
        for k in range(3):
            b[t.face_edges[f, k]] += half_weight_dual(r, phi, (k + 1) % 3, (k + 2) % 3)
    return b


def edge_length(r_i, r_j, phi):
    """Length induced on an edge by radii ``r_i, r_j`` and weight ``phi``.

    Accepts scalars or equal-shaped arrays.
    """
    ri = np.asarray(r_i, dtype=np.float64)
    rj = np.asarray(r_j, dtype=np.float64)
    ph = np.asarray(phi, dtype=np.float64)
    if np.any(ri <= 0.0) or np.any(rj <= 0.0):
        raise DomainError("radii must be positive")
    _check_phi(np.atleast_1d(ph))
    out = np.sqrt(ri * ri + rj * rj + 2.0 * ri * rj * np.cos(ph))
    return float(out) if out.ndim == 0 else out


def velocity(kind, t, w, m):
    """The right-hand side du/dt of a flow kind at a metric."""
    target = resolve_target(t, kind.target)
    s = _kernels.state(np.exp(m.u), _mesh_arrays(t, w))
    _kernels.raise_state_error(s.err)
    dev = s.K - target
    if kind.uses_laplacian:
        return _kernels.lap_apply(s.B, t.edges[:, 0], t.edges[:, 1], dev)
    return -dev


def curvature_derivative_check(kind, t, w, m, fd_step=1e-6):
    """Residual between the finite-difference curvature derivative along the
    flow and its closed forms.

    Compares ``(K(u + s v) - K(u - s v)) / 2s`` against ``L v``, and for the
    plain Calabi flow also against ``-L (L K)``.  Returns the largest
    absolute residual.
    """
    v = velocity(kind, t, w, m)
    mesh = _mesh_arrays(t, w)

    def curv_at(u):
        k, err = _kernels.curvatures(np.exp(u), mesh)
        _kernels.raise_state_error(err)
        return k

    fd = (curv_at(m.u + fd_step * v) - curv_at(m.u - fd_step * v)) / (2.0 * fd_step)
    lap = assemble(t, w, m)
    residual = float(np.max(np.abs(fd - lap.matrix @ v)))
    if kind.name == "calabi":
        curv = curv_at(m.u)
        closed = -(lap.matrix @ (lap.matrix @ curv))
        residual = max(residual, float(np.max(np.abs(fd - closed))))
    return residual


def energy_gradient(t, w, m, target=None):
    """Gradient of the Calabi energy in ``u``: ``2 L (K - target)``.

    Always orthogonal to the constant vectors, which is why the Calabi
    flows conserve ``sum u``.
    """
    tgt = resolve_target(t, target)
    geo = compute_geometry(t, w, m)
    lap = assemble(t, w, m)
    # lap_apply is the discrete Laplacian -L f, so the gradient 2 L (K - Kbar)
    # needs the sign flipped
    return -2.0 * _kernels.lap_apply(
        lap.weights, lap.edges[:, 0], lap.edges[:, 1], geo.curvatures - tgt
    )
