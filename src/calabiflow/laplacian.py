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

The half-contributions come from the closed-form chain rule through the
cosine law, computed by the geometry kernels (``_kernels.state``) along
with the curvatures.

scipy is needed only for ``lambda1``, CSR assembly above ``DENSE_LIMIT``
and the sparse Newton solve, and it is loaded on first use.
"""

from __future__ import annotations

import math

import numpy as np

from . import _kernels
from .errors import DomainError, InternalConsistencyError
from .geometry import PackingMetric, Weight, _mesh_arrays
from .mesh import Triangulation

__all__ = ["DualLaplacian", "assemble"]

DENSE_LIMIT = 512


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
            import scipy.sparse as sparse

            rows = np.concatenate([a, b, np.arange(self.n)])
            cols = np.concatenate([b, a, np.arange(self.n)])
            vals = np.concatenate([-self.weights, -self.weights, diag])
            self.matrix = sparse.csr_matrix(
                (vals, (rows, cols)), shape=(self.n, self.n)
            )

    @property
    def is_dense(self) -> bool:
        return isinstance(self.matrix, np.ndarray)

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A solution of ``L x = rhs - mean(rhs)`` (the Newton step): dense,
        ``(L + 11^T/N) x = rhs``; sparse, vertex 0 pinned and ``rhs``
        projected onto the range of ``L``, so its Gauss-Bonnet rounding is
        spread over all vertices as in the dense solve, not left on row 0.
        """
        if self.is_dense:
            return np.linalg.solve(self.matrix + 1.0 / self.n, rhs)
        import scipy.sparse.linalg as sparse_linalg

        x = np.zeros(self.n)
        x[1:] = sparse_linalg.spsolve(
            self.matrix[1:, 1:].tocsc(), (rhs - rhs.mean())[1:]
        )
        return x

    def lambda1(self) -> float:
        """Smallest eigenvalue of L restricted to the complement of the kernel.

        The Hessian of the Ricci potential is ``L``, so a positive value
        certifies strict convexity of the potential off the constants.

        Dense path: the constant direction is lifted above the spectrum by
        the rank-one shift ``(c/N) 11^T`` with ``c`` beyond the Gershgorin
        bound, and only the smallest eigenpair of the shifted matrix is
        computed.  Sparse path: the two smallest eigenpairs by shift-invert
        about a small negative ``sigma``, from a fixed ARPACK start vector
        so that repeated runs agree; ``L - sigma I`` is then positive
        definite, so its factorization cannot be singular, and the two
        eigenpairs nearest ``sigma`` are still those of 0 and lambda1.  The
        result is validated against the Rayleigh quotient of the
        corresponding eigenvector.
        """
        if self.is_dense:
            import scipy.linalg as scipy_linalg

            lift = 2.0 * self._norm_estimate() / self.n
            vals, vecs = scipy_linalg.eigh(
                self.matrix + lift, subset_by_index=[0, 0]
            )
            lam = float(vals[0])
            vec = vecs[:, 0]
        else:
            import scipy.sparse.linalg as sparse_linalg

            sigma = -1e-3 * float(self.matrix.diagonal().max())
            vals, vecs = sparse_linalg.eigsh(
                self.matrix, k=2, sigma=sigma, which="LM",
                v0=np.linspace(1.0, 2.0, self.n),
            )
            second = np.argsort(vals)[1]
            lam = float(vals[second])
            vec = vecs[:, second]
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


def assemble(t: Triangulation, w: Weight, m: PackingMetric) -> DualLaplacian:
    """Assemble the dual Laplacian of a metric."""
    mesh = _mesh_arrays(t, w, m)
    _, _, _, _, b, _, err = _kernels.state(m.r, mesh)
    _kernels.raise_state_error(err)
    return DualLaplacian(t.n_vertices, t.edges, b)
