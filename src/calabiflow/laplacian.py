"""The dual Laplacian of a circle packing metric.

The matrix ``L = d K / d u`` (curvatures differentiated in log radii;
growing one radius shrinks the angles at its vertex and widens those at its
neighbours, so ``L`` is positive semi-definite) is a weighted graph
Laplacian: ``L_ij = -B_ij`` for an edge ``ij`` and ``L_ii = sum_k B_ik``,
where the edge weight ``B_ij`` collects one half-contribution

    d theta_i / d r_j * r_j

from each of the two faces containing the edge.  Each half-contribution
lies in ``(0, sqrt(3))``, hence ``0 < B_ij < 2 sqrt(3)``; the kernel of
``L`` is exactly the constant vectors, so the rank is ``N - 1``.

Two independent routes compute the half-contributions: a closed-form chain
rule through the cosine law (the default), and a ratio of dual edge length
to primal edge length computed from two auxiliary triangles spanned by the
circle intersection points.  The dual route exists as a cross-check and is
exercised by the test suite and a CLI flag.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
import scipy.linalg as scipy_linalg
import scipy.sparse as sparse
import scipy.sparse.linalg as sparse_linalg

from . import _kernels
from .errors import DomainError, InternalConsistencyError
from .geometry import PHI_MAX, PackingMetric, Weight, triangle_angles
from .mesh import Triangulation

__all__ = [
    "DualLaplacian",
    "half_weight_analytic",
    "half_weight_dual",
    "assemble",
]

DENSE_LIMIT = 512


# slot of the face edge between two local vertices in (phi_01, phi_12, phi_20)
_EDGE_SLOT = {(0, 1): 0, (1, 0): 0, (1, 2): 1, (2, 1): 1, (0, 2): 2, (2, 0): 2}


def _face_inputs(r, phi, corner: int, moving: int):
    """``(r_c, r_m, r_o), (phi_cm, phi_co, phi_mo), (l_cm, l_co, l_mo)``
    of one face, validated once.  Plain ``math``: these routines run once
    per face in the oracles, where numpy's per-call cost would dominate.
    """
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


def half_weight_analytic(r, phi, corner: int, moving: int) -> float:
    """One face's contribution to ``B``, by the cosine-law chain rule.

    Parameters
    ----------
    r : (r_0, r_1, r_2)
        Radii at the face's three vertices.
    phi : (phi_01, phi_12, phi_20)
        Weights of the three face edges.
    corner, moving : int
        Differentiates the angle at ``corner`` with respect to the radius
        at ``moving`` (then multiplies by that radius).
    """
    (r_c, r_m, r_o), (p_cm, _, p_mo), (l_cm, l_co, l_mo) = _face_inputs(
        r, phi, corner, moving
    )
    theta_c, theta_m, _ = triangle_angles(l_mo, l_co, l_cm)
    bracket = (r_m + r_o * math.cos(p_mo)) - (l_mo * math.cos(theta_m) / l_cm) * (
        r_m + r_c * math.cos(p_cm)
    )
    return r_m / (l_cm * l_co * math.sin(theta_c)) * bracket


def _aux_cos(r_near: float, side: float, r_far: float) -> float:
    """Angle cosine in the auxiliary triangle (r_near, side; r_far opposite)."""
    arg = (r_near * r_near + side * side - r_far * r_far) / (2.0 * r_near * side)
    if abs(arg) - 1.0 > _kernels.CLAMP_TOL:
        raise InternalConsistencyError(
            f"auxiliary triangle degenerate (cos = {arg!r}); unreachable for "
            "weights in [0, pi/2]"
        )
    return min(1.0, max(-1.0, arg))


def half_weight_dual(r, phi, corner: int, moving: int) -> float:
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


def _dual_halves(t: Triangulation, w: Weight, m: PackingMetric) -> np.ndarray:
    """Vectorized dual-route half-contributions, aligned like face_edges."""
    r = m.r
    # lengths and clamped corner cosines come from the kernels' cosine law;
    # only the dual-length formula below is this route's own
    with np.errstate(all="ignore"):
        _, L, cc, _, _, err = _kernels._corners(
            r, t.faces, t.face_edges, t.edges[:, 0], t.edges[:, 1], w.cos_phi
        )
    if err == _kernels.ERR_CLAMP:
        raise InternalConsistencyError("cosine-law value left [-1, 1]")
    sn = np.sqrt(1.0 - cc * cc)
    rv = r[t.faces]
    halves = np.empty_like(L)
    for mm in range(3):
        p = (mm + 1) % 3
        q = (mm + 2) % 3
        r_c, r_m, r_o = rv[:, p], rv[:, q], rv[:, mm]
        l_cm, l_mo = L[:, mm], L[:, p]
        aux1 = (r_m * r_m + l_mo * l_mo - r_o * r_o) / (2.0 * r_m * l_mo)
        aux2 = (r_m * r_m + l_cm * l_cm - r_c * r_c) / (2.0 * r_m * l_cm)
        for aux in (aux1, aux2):
            if float(np.max(np.abs(aux))) - 1.0 > _kernels.CLAMP_TOL:
                raise InternalConsistencyError("auxiliary triangle degenerate")
        aux1 = np.clip(aux1, -1.0, 1.0)
        aux2 = np.clip(aux2, -1.0, 1.0)
        halves[:, mm] = r_m * (aux1 - cc[:, q] * aux2) / (sn[:, q] * l_cm)
    return halves


class DualLaplacian:
    """Assembled dual Laplacian: edge weights plus the matrix itself.

    The matrix is dense for N <= 512 and CSR-sparse above.  ``weights``
    holds ``B`` per edge, aligned with the triangulation's edge table.
    """

    def __init__(self, n: int, edges: np.ndarray, weights: np.ndarray):
        self.n = int(n)
        self.edges = edges
        self.weights = np.asarray(weights, dtype=np.float64)
        if self.weights.shape[0] != edges.shape[0]:
            raise DomainError("one weight per edge required")
        if self.weights.size and not np.all(np.isfinite(self.weights)):
            raise DomainError("edge weights must be finite")
        if self.weights.size and (
            float(self.weights.min()) <= 0.0
            or float(self.weights.max()) >= 2.0 * math.sqrt(3.0)
        ):
            raise DomainError(
                "edge weights must lie in the open interval (0, 2*sqrt(3))"
            )
        a = edges[:, 0]
        b = edges[:, 1]
        diag = np.zeros(self.n)
        np.add.at(diag, a, self.weights)
        np.add.at(diag, b, self.weights)
        if self.n <= DENSE_LIMIT:
            mat = np.zeros((self.n, self.n))
            mat[a, b] = -self.weights
            mat[b, a] = -self.weights
            mat[np.arange(self.n), np.arange(self.n)] = diag
            self.matrix = mat
        else:
            rows = np.concatenate([a, b, np.arange(self.n)])
            cols = np.concatenate([b, a, np.arange(self.n)])
            vals = np.concatenate([-self.weights, -self.weights, diag])
            self.matrix = sparse.csr_matrix(
                (vals, (rows, cols)), shape=(self.n, self.n)
            )
        self.row_sum_residuals = self.matrix @ np.ones(self.n)

    @property
    def is_dense(self) -> bool:
        return isinstance(self.matrix, np.ndarray)

    def apply(self, f: np.ndarray) -> np.ndarray:
        """Discrete Laplacian of a vertex function: sum_j B_ij (f_j - f_i)."""
        f = np.asarray(f, dtype=np.float64)
        if f.shape != (self.n,):
            raise DomainError(f"expected a vector of length {self.n}")
        return _kernels.lap_apply(self.weights, self.edges[:, 0], self.edges[:, 1], f)

    @cached_property
    def _eigh(self):
        if not self.is_dense:
            raise InternalConsistencyError("full spectrum needs the dense path")
        vals, vecs = np.linalg.eigh(self.matrix)
        return vals, vecs

    def eigenvalues(self) -> np.ndarray:
        """All eigenvalues ascending (dense storage only)."""
        return self._eigh[0]

    def spectral_summary(self) -> tuple[float, float, float]:
        """(smallest, second smallest, largest) eigenvalue."""
        if self.is_dense:
            vals = self.eigenvalues()
            return float(vals[0]), float(vals[1]), float(vals[-1])
        lo = self._smallest_two()[0]
        hi = sparse_linalg.eigsh(
            self.matrix, k=1, which="LA", v0=self._start_vector()
        )[0]
        return float(lo[0]), float(lo[1]), float(hi[0])

    def _start_vector(self):
        # fixed ARPACK start vector so repeated runs are deterministic
        return np.linspace(1.0, 2.0, self.n)

    def _smallest_two(self):
        """The two smallest eigenpairs (sparse path), ascending.

        Shift-invert about a small negative ``sigma``: ``L - sigma I`` is
        then positive definite, so its factorization cannot be singular,
        and the two eigenvalues nearest ``sigma`` are still 0 and lambda1.
        """
        sigma = -1e-3 * float(self.matrix.diagonal().max())
        vals, vecs = sparse_linalg.eigsh(
            self.matrix, k=2, sigma=sigma, which="LM", v0=self._start_vector()
        )
        order = np.argsort(vals)
        return vals[order], vecs[:, order]

    def lambda1(self) -> float:
        """Smallest eigenvalue of L restricted to the complement of the kernel.

        Dense path: the constant direction is lifted above the spectrum by
        the rank-one shift ``(c/N) 11^T`` with ``c`` beyond the Gershgorin
        bound, and only the smallest eigenpair of the shifted matrix is
        computed.  Sparse path: shift-invert (see :meth:`_smallest_two`).
        The result is validated against the Rayleigh quotient of the
        corresponding eigenvector.
        """
        if self.is_dense:
            lift = 2.0 * self._norm_estimate() / self.n
            vals, vecs = scipy_linalg.eigh(
                self.matrix + lift, subset_by_index=[0, 0]
            )
            lam = float(vals[0])
            vec = vecs[:, 0]
        else:
            vals, vecs = self._smallest_two()
            lam = float(vals[1])
            vec = vecs[:, 1]
        quotient = float(vec @ (self.matrix @ vec) / (vec @ vec))
        scale = max(abs(lam), 1e-12 * self._norm_estimate())
        if abs(quotient - lam) > 1e-8 * scale:
            raise InternalConsistencyError(
                f"eigenvalue {lam!r} fails Rayleigh validation ({quotient!r})"
            )
        return lam

    def _norm_estimate(self) -> float:
        diag = self.matrix.diagonal()
        return 2.0 * float(np.max(diag)) if len(diag) else 0.0

    def coordinate_lines(self) -> list[str]:
        """The matrix as sorted ``i j value`` lines, both symmetric entries."""
        entries = []
        diag = self.matrix.diagonal()
        for i in range(self.n):
            entries.append((i, i, float(diag[i])))
        for (a, b), wgt in zip(self.edges, self.weights):
            entries.append((int(a), int(b), -float(wgt)))
            entries.append((int(b), int(a), -float(wgt)))
        entries.sort(key=lambda e: (e[0], e[1]))
        return [f"{i} {j} {v:.17g}" for i, j, v in entries]


def assemble(
    t: Triangulation, w: Weight, m: PackingMetric, route: str = "analytic"
) -> DualLaplacian:
    """Assemble the dual Laplacian of a metric.

    ``route`` selects how half-contributions are computed: ``"analytic"``
    (closed-form chain rule, the default) or ``"dual"`` (dual-length
    quotient, the verification path).  Both must agree to roundoff.
    """
    if m.n != t.n_vertices or w.phi.shape[0] != t.n_edges:
        raise DomainError("mesh, weight and metric sizes are inconsistent")
    if route == "analytic":
        _, _, _, _, b, _, err = _kernels.state(
            m.r, t.faces, t.face_edges, t.edges[:, 0], t.edges[:, 1], w.cos_phi
        )
        _kernels.raise_state_error(err)
    elif route == "dual":
        halves = _dual_halves(t, w, m)
        b = np.zeros(t.n_edges)
        np.add.at(b, t.face_edges.ravel(), halves.ravel())
        if float(b.min()) <= 0.0 or float(b.max()) >= _kernels.TWO_SQRT3:
            raise InternalConsistencyError(
                "an edge weight left the open interval (0, 2*sqrt(3))"
            )
    else:
        raise DomainError(f"unknown assembly route {route!r}")
    return DualLaplacian(t.n_vertices, t.edges, b)

