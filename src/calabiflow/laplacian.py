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

Below ``DENSE_LIMIT`` vertices everything runs on numpy.  Above it the
Newton solve is matrix-free conjugate gradients, and scipy is needed only
for ``lambda1`` and for reading ``matrix`` (CSR there); it is loaded on
first use.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from numpy.linalg import LinAlgError, cholesky, eigvalsh

from . import _kernels
from .errors import DomainError, InternalConsistencyError
from .geometry import PackingMetric, Weight, _mesh_arrays
from .mesh import Triangulation

__all__ = ["DualLaplacian", "assemble"]

DENSE_LIMIT = 512


class DualLaplacian:
    """Assembled dual Laplacian: edge weights plus the matrix itself.

    ``weights`` holds ``B`` per edge, aligned with the triangulation's edge
    table, and ``diag`` the diagonal of L.  ``matrix`` is dense for N <=
    512; above, it is CSR-sparse and built on first read.
    """

    def __init__(self, n: int, edges: np.ndarray, weights: np.ndarray):
        self.n = int(n)
        self.edges = edges = np.asarray(edges)
        self.weights = w = np.asarray(weights, dtype=np.float64)
        # checked by shape and dtype alone: no pass over the edges
        dtype = edges.dtype
        if edges.shape[1:] != (2,) or dtype == bool or not np.can_cast(dtype, np.intp):
            raise DomainError(f"edges must be (E, 2) integers, got {dtype} {edges.shape}")
        if w.shape != edges.shape[:1]:
            raise DomainError(f"one weight per edge required, got {w.shape} for {edges.shape}")
        # a NaN fails both comparisons
        if w.size and not (w.min() > 0.0 and w.max() < 2.0 * math.sqrt(3.0)):
            raise DomainError("edge weights must lie in the open interval (0, 2*sqrt(3))")
        a = edges[:, 0]
        b = edges[:, 1]
        # bincount adds in input order from zero, as add.at into zeros does
        ends = np.concatenate([a, b])
        try:
            self.diag = np.bincount(ends, np.concatenate([w, w]), minlength=self.n)
        except ValueError:  # a negative endpoint
            self.diag = np.empty(0)
        if self.diag.size != self.n:  # an endpoint of n or more lengthens it
            raise DomainError(f"edge endpoints must lie in [0, {self.n})")
        if self.is_dense:
            # an instance attribute shadows the lazy CSR ``matrix`` below
            mat = np.zeros((self.n, self.n))
            mat[a, b] = -self.weights
            mat[b, a] = -self.weights
            mat[np.arange(self.n), np.arange(self.n)] = self.diag
            self.matrix = mat

    @property
    def is_dense(self) -> bool:
        return self.n <= DENSE_LIMIT

    @functools.cached_property
    def matrix(self):
        import scipy.sparse as sparse

        a, b = self.edges.T
        rows = np.concatenate([a, b, np.arange(self.n)])
        cols = np.concatenate([b, a, np.arange(self.n)])
        vals = np.concatenate([-self.weights, -self.weights, self.diag])
        return sparse.csr_matrix((vals, (rows, cols)), shape=(self.n, self.n))

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """A solution of ``L x = rhs - mean(rhs)`` (the Newton step).

        Dense, ``(L + 11^T/N) x = rhs``.  Sparse, conjugate gradients on the
        complement of the constants (Hestenes-Stiefel 1952) with a Jacobi
        preconditioner projected onto it, so ``sum x = 0`` and the
        Gauss-Bonnet rounding in ``rhs`` is spread over all vertices.  They
        stop at a residual of ``1e-3 min(1, max|b|) |b|_2``, ``b = rhs -
        mean(rhs)``, an inexact Newton step that keeps the local convergence
        superlinear (the factor stays >= 1e-10, which roundoff can meet), after
        N iterations, or where ``p^T L p`` underflows (deep escapes).
        """
        if self.is_dense:
            return np.linalg.solve(self.matrix + 1.0 / self.n, rhs)
        ea, eb = self.edges.T
        x = np.zeros(self.n)
        res = rhs - rhs.mean()
        eta = 1e-3 * min(1.0, max(float(np.abs(res).max()), 1e-7))
        stop = eta * float(np.linalg.norm(res))
        # from p = 0 the first direction is the preconditioned residual
        p = np.zeros(self.n)
        rz = 1.0
        for _ in range(self.n):
            if float(np.linalg.norm(res)) <= stop:
                break
            z = res / self.diag
            z -= z.mean()
            rz, rz_prev = float(res @ z), rz
            p = z + (rz / rz_prev) * p
            # lap_apply gives -L p
            lp = -_kernels.lap_apply(self.weights, ea, eb, p)
            curv = float(p @ lp)
            if not curv > 0.0:  # weights so small that p^T L p underflows
                break
            alpha = rz / curv
            x += alpha * p
            res -= alpha * lp
        return x

    def lambda1(self) -> float:
        """Smallest eigenvalue of L restricted to the complement of the kernel.

        The Hessian of the Ricci potential is ``L``, so a positive value
        certifies strict convexity of the potential off the constants.

        Dense path: the constant direction is lifted above the spectrum by
        the rank-one shift ``(c/N) 11^T`` with ``c`` beyond the Gershgorin
        bound.  The smallest eigenvalue ``lam`` of the lifted ``M`` is
        certified by Sylvester's law of inertia: ``M - (lam - d) I`` has a
        Cholesky factor and ``M - (lam + d) I`` has none, ``d = 1e-8
        max(|lam|, 1e-12 |M|)``.  Sparse path: the two smallest
        eigenpairs by shift-invert about a small negative ``sigma``, from a
        fixed ARPACK start vector so that repeated runs agree; ``L - sigma
        I`` is then positive definite, so its factorization cannot be
        singular, and the two eigenpairs nearest ``sigma`` are still those
        of 0 and lambda1, validated by the Rayleigh quotient of the
        eigenvector.  A failed check raises ``InternalConsistencyError``.
        """
        floor = 1e-12 * self._norm_estimate()
        if self.is_dense:
            lifted = self.matrix + 2.0 * self._norm_estimate() / self.n
            lam = float(eigvalsh(lifted)[0])
            slack = 1e-8 * max(abs(lam), floor)
            eye = np.eye(self.n)
            if not _definite(lifted - (lam - slack) * eye) or _definite(
                lifted - (lam + slack) * eye
            ):
                raise InternalConsistencyError(
                    f"eigenvalue {lam!r} fails the inertia certificate"
                )
            return lam
        import scipy.sparse.linalg as sparse_linalg

        sigma = -1e-3 * float(self.diag.max())
        vals, vecs = sparse_linalg.eigsh(
            self.matrix, k=2, sigma=sigma, which="LM",
            v0=np.linspace(1.0, 2.0, self.n),
        )
        second = np.argsort(vals)[1]
        lam = float(vals[second])
        vec = vecs[:, second]
        quotient = float(vec @ (self.matrix @ vec) / (vec @ vec))
        if abs(quotient - lam) > 1e-8 * max(abs(lam), floor):
            raise InternalConsistencyError(
                f"eigenvalue {lam!r} fails Rayleigh validation ({quotient!r})"
            )
        return lam

    def _norm_estimate(self) -> float:
        return 2.0 * float(self.diag.max()) if self.n else 0.0

    def coordinate_lines(self) -> list[str]:
        """The matrix as sorted ``i j value`` lines, both symmetric entries."""
        entries = [(i, i, float(d)) for i, d in enumerate(self.diag)]
        for (a, b), wgt in zip(self.edges, self.weights):
            entries.append((int(a), int(b), -float(wgt)))
            entries.append((int(b), int(a), -float(wgt)))
        entries.sort(key=lambda e: (e[0], e[1]))
        return [f"{i} {j} {v:.17g}" for i, j, v in entries]


def _definite(a: np.ndarray) -> bool:
    """Whether ``a`` has a Cholesky factor (is numerically positive definite)."""
    try:
        cholesky(a)
    except LinAlgError:
        return False
    return True


def assemble(t: Triangulation, w: Weight, m: PackingMetric) -> DualLaplacian:
    """Assemble the dual Laplacian of a metric."""
    mesh = _mesh_arrays(t, w, m)
    return DualLaplacian(t.n_vertices, t.edges, _kernels.state(m.r, mesh).B)
