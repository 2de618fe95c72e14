"""Admissibility of target curvatures (Thurston's condition).

A curvature vector is realized by some circle packing metric iff it lies
on the Gauss-Bonnet hyperplane and, for every nonempty proper vertex
subset ``I``, satisfies the strict inequality

    sum_{i in I} target_i > -sum_{(e,v) in Lk(I)} (pi - Phi(e)) + 2 pi chi(F_I)

where ``F_I`` is the subcomplex spanned by ``I`` and ``Lk(I)`` its link.

A check first runs a damped Newton solve of ``K(u) = target``
(:func:`_newton`, which also finds the constant-curvature metric in
``potential``): the Ricci potential is convex with Hessian ``L``
(Chow-Luo, J. Diff. Geom. 2003), so the solve runs toward a realizing
metric when one exists and off to infinity when none does.  The line
search only steers the solve; the verdict comes from one of two
certificates, checked at every iterate:

- *admissible*: on a connected surface the face angle sums give, for every
  proper subset, ``slack(I; K(u)) = sum over faces with two vertices in I
  of the outer angle + sum over faces with one vertex in I of
  (pi - Phi_opp - inner angle)``, so ``slack(I; target) >= g(u) -
  ||K(u) - target||_1`` with ``g(u)`` the smallest such corner term.  The
  bound must beat the tolerance plus a rounding allowance that covers the
  per-face angle-sum error.
- *inadmissible* (meshes above ``SIZE_GUARD`` only): the inequality fails
  on some prefix of the vertices sorted by ``u``; all ``N - 1`` prefixes
  are evaluated at once from cumulative sums.

A target the solve cannot decide falls back to an exhaustive scan over all
``2^N - 2`` subsets in (size, lexicographic) order with early exit, so a
reported violator is minimal in that order; the scan is refused above
``SIZE_GUARD`` vertices unless forced.  On meshes within the guard every
inadmissible target is reported by the scan.  The scan screens blocks of
subsets at once and confirms flagged subsets one by one (see
``_kernels.scan_subsets``): about 0.7 us a subset on 2 cores, so a full
scan takes 0.15 s at 18 vertices and 12 s at 24, and doubles with each
further vertex.  Borderline subsets (strict inequality holds but by no
more than the tolerance) are conservatively reported as violations and
flagged, since the admissible set is open.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import DomainError, EnumerationSizeError
from .geometry import Weight, _check_fit, _mesh_arrays
from .laplacian import DualLaplacian
from .mesh import (
    Triangulation,
    VertexSubset,
    link_pairs,
    resolve_target,
    subcomplex_euler,
)

__all__ = [
    "AdmissibilityReport",
    "check_gauss_bonnet",
    "check_admissible",
    "subset_inequality",
    "enumerate_rows",
    "SIZE_GUARD",
]

SIZE_GUARD = 24
VIOLATION_TOL = 1e-12
GAUSS_BONNET_TOL = 1e-9

# The Newton solve stops after NEWTON_STEPS steps, when NEWTON_HALVINGS
# halvings of a step do not lower |K - target|, or at its roundoff floor,
# max|K - target| < max(CURVATURE_TOL, curvature noise bound).
NEWTON_STEPS = 50
NEWTON_HALVINGS = 30
CURVATURE_TOL = 1e-12
# rounding allowance of the admissible certificate, on top of the measured
# per-face angle-sum error: it covers the rounding of the curvature and
# norm sums, a few ulps per vertex (below 1e-9 up to about 1e5 vertices)
CERTIFICATE_SLACK = 1e-9


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of an admissibility check.

    ``subsets_checked`` counts the subsets the fallback scan evaluated; it
    is 0 when the Newton solve decided the verdict.
    """

    verdict: str  # admissible | inadmissible | gauss_bonnet_violation
    subset: Optional[tuple[int, ...]]
    lhs: Optional[float]
    rhs: Optional[float]
    borderline: bool
    subsets_checked: int
    elapsed_s: float

    @property
    def admissible(self) -> bool:
        return self.verdict == "admissible"

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "subset": list(self.subset) if self.subset is not None else None,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "borderline": self.borderline,
            "subsets_checked": self.subsets_checked,
        }


def check_gauss_bonnet(target, chi: int) -> bool:
    """True iff the target sums to ``2 pi chi`` within 1e-9."""
    total = float(np.sum(np.asarray(target, dtype=np.float64)))
    return abs(total - 2.0 * math.pi * chi) < GAUSS_BONNET_TOL


def subset_inequality(
    t: Triangulation, w: Weight, target: np.ndarray, subset: VertexSubset
) -> tuple[float, float]:
    """(LHS, RHS) of the subset inequality, by direct recomputation.

    This is the reference implementation the scan kernels must agree
    with; it builds the link and the spanned subcomplex explicitly.
    """
    _check_fit(t, w)
    target = np.asarray(target, dtype=np.float64)
    lhs = float(np.sum(target[list(subset.members)]))
    link = 0.0
    for (a, b), _v in link_pairs(t, subset):
        link += math.pi - float(w.phi[t.edge_index[(a, b)]])
    rhs = -link + 2.0 * math.pi * subcomplex_euler(t, subset)
    return lhs, rhs


def _explicit_target(t: Triangulation, target) -> np.ndarray:
    """:func:`resolve_target`, except that ``None`` is refused: a check
    needs the target spelled out, ``resolve_target(t, None)`` for the
    average curvature ``K_av``."""
    if target is None:
        raise DomainError("an admissibility check needs an explicit target curvature")
    return resolve_target(t, target)


def _slack_bound(ang, pmp_f, dev) -> float:
    """``g(u) - ||K(u) - target||_1``, a lower bound on the slack of every
    nonempty proper subset on a connected surface.

    ``ang`` are the corner angles (F, 3), ``pmp_f`` the ``pi - Phi`` of the
    edge opposite each corner and ``dev = K(u) - target``; ``g(u)`` is the
    smallest of ``theta`` and ``pi - Phi_opp - theta`` over all corners.
    """
    g = min(float(ang.min()), float((pmp_f - ang).min()))
    return g - float(np.abs(dev).sum())


def _prefix_violation(t: Triangulation, pmp, target, u):
    """The first prefix of the vertices sorted by ``u`` that violates its
    inequality, as ``(members, lhs, rhs)``, or None.

    All ``N - 1`` prefixes are evaluated at once: a prefix of size ``k``
    holds the vertices of rank below ``k``, so it spans an edge or face
    whose largest rank is below ``k``, and a face with sorted ranks
    ``r0 < r1 < r2`` is in its link for ``k`` in ``(r0, r1]``.
    """
    n = t.n_vertices
    order = np.argsort(u, kind="stable")
    rank = np.empty(n, dtype=np.int64)
    rank[order] = np.arange(n)
    lhs = np.cumsum(target[order])[:-1]
    e_in = np.cumsum(np.bincount(rank[t.edges].max(axis=1), minlength=n))[:-1]
    fr = rank[t.faces]
    f_in = np.cumsum(np.bincount(fr.max(axis=1), minlength=n))[:-1]
    link = pmp[t.face_edges[np.arange(t.n_faces), fr.argmin(axis=1)]]
    r0, r1 = np.sort(fr, axis=1)[:, :2].T
    diff = np.bincount(r0 + 1, link, minlength=n + 1) - np.bincount(
        r1 + 1, link, minlength=n + 1
    )
    lk = np.cumsum(diff)[1:n]
    sizes = np.arange(1, n)
    rhs = -lk + 2.0 * math.pi * (sizes - e_in + f_in)
    hits = np.flatnonzero(lhs <= rhs + VIOLATION_TOL)
    if not hits.size:
        return None
    k = int(hits[0])
    members = tuple(sorted(int(v) for v in order[: k + 1]))
    return members, float(lhs[k]), float(rhs[k])


def _newton(t: Triangulation, w: Weight, target, u):
    """Damped Newton iterates of ``K(u) = target``, starting from ``u``.

    Yields ``(u, state)`` at the start and after each step: the log radii
    and their ``_kernels.State``.  Each step solves
    ``L delta = -(K - target)`` (:meth:`DualLaplacian.solve`) and halves
    ``delta`` until ``||K - target||_2`` falls.  The iteration ends after
    ``NEWTON_STEPS`` steps, when ``NEWTON_HALVINGS`` halvings of a step do
    not lower the norm, after the first iterate at its roundoff floor (see
    ``CURVATURE_TOL``), or at once when the geometry at ``u`` does not
    evaluate.  Only valid on a connected surface.
    """
    n = t.n_vertices
    mesh = _mesh_arrays(t, w)
    # radii that overflow are reported by the error code
    with np.errstate(all="ignore"):
        r = np.exp(u)
    s = _kernels.state(r, mesh)
    if s.err != _kernels.ERR_OK:
        return
    for _ in range(NEWTON_STEPS):
        yield u, s
        dev = s.K - target
        if float(np.abs(dev).max()) < max(CURVATURE_TOL, float(s.kn.max())):
            return
        delta = DualLaplacian(n, t.edges, s.B).solve(-dev)
        norm = float(np.linalg.norm(dev))
        for _ in range(NEWTON_HALVINGS):
            with np.errstate(all="ignore"):
                r = np.exp(u + delta)
            trial = _kernels.state(r, mesh)
            ok = trial.err == _kernels.ERR_OK
            if ok and float(np.linalg.norm(trial.K - target)) < norm:
                u, s = u + delta, trial
                break
            delta = 0.5 * delta
        else:
            return
    yield u, s


def _newton_verdict(t: Triangulation, w: Weight, target):
    """Decide admissibility by the Newton solve :func:`_newton` from ``u = 0``.

    Returns ``("admissible", None)`` or ``("inadmissible", (members, lhs,
    rhs))`` once a certificate (see the module docstring) holds at an
    iterate, and None when the solve ends undecided.  Within
    ``SIZE_GUARD`` a violated prefix ends the solve undecided, since the
    scan reports the canonical violator there.  Only valid on a connected
    surface.
    """
    n = t.n_vertices
    pmp = math.pi - w.phi
    pmp_f = pmp[t.face_edges]
    for u, s in _newton(t, w, target, np.zeros(n)):
        dev = s.K - target
        # the bound holds for corner values whose face sums are exactly pi;
        # moving each face's computed angles by a third of its sum's error
        # changes g and |K - target|_1 by at most the summed error
        allowance = float(np.abs(s.ang.sum(axis=1) - math.pi).sum()) + CERTIFICATE_SLACK
        if _slack_bound(s.ang, pmp_f, dev) > VIOLATION_TOL + allowance:
            return "admissible", None
        found = _prefix_violation(t, pmp, target, u)
        if found is not None:
            return ("inadmissible", found) if n > SIZE_GUARD else None
    return None


def _verdict(t: Triangulation, w: Weight, tgt: np.ndarray, force: bool):
    """``(verdict, certificate, subsets_checked)`` of :func:`check_admissible`,
    from the Gauss-Bonnet gate, the Newton solve or the scan, in that order.
    The certificate is ``(members, lhs, rhs)`` or None; a Gauss-Bonnet
    violation has no members, the target's sum and ``2 pi chi``."""
    if not check_gauss_bonnet(tgt, t.chi):
        total = float(np.sum(tgt))
        return "gauss_bonnet_violation", (None, total, 2.0 * math.pi * t.chi), 0
    solved = _newton_verdict(t, w, tgt) if t.connected else None
    if solved is not None:
        return (*solved, 0)
    if t.n_vertices > SIZE_GUARD and not force:
        raise EnumerationSizeError(
            f"the Newton solve left admissibility over {t.n_vertices} vertices "
            f"undecided, and the fallback scan checks 2^{t.n_vertices} - 2 "
            "subsets (exponential enumeration); pass force=True to run it anyway"
        )
    found, members, lhs, rhs, checked = _kernels.scan_subsets(
        t.n_vertices, tgt, t.edges[:, 0], t.edges[:, 1], t.faces, t.face_edges,
        math.pi - w.phi, VIOLATION_TOL,
    )
    if not found:
        return "admissible", None, int(checked)
    certificate = (tuple(int(v) for v in members), float(lhs), float(rhs))
    return "inadmissible", certificate, int(checked)


def check_admissible(
    t: Triangulation,
    w: Weight,
    target,
    force: bool = False,
) -> AdmissibilityReport:
    """Decide whether ``target`` is realizable, with a certificate.

    A target off the Gauss-Bonnet hyperplane is reported as such.  Then,
    on a connected surface, a Newton solve tries to certify the verdict
    (see the module docstring); a certified verdict reports
    ``subsets_checked = 0``.  A target the solve leaves undecided, and
    every inadmissible target within ``SIZE_GUARD`` vertices, goes to the
    exhaustive subset scan, whose violator is minimal in (size,
    lexicographic) order.  Above 24 vertices (an enumeration of over
    1.6e7 subsets) an undecided target raises ``EnumerationSizeError``
    unless ``force`` is true.
    """
    tgt = _explicit_target(t, target)
    _check_fit(t, w)
    start = time.perf_counter()
    verdict, certificate, checked = _verdict(t, w, tgt, force)
    members, lhs, rhs = certificate or (None, None, None)
    return AdmissibilityReport(
        verdict=verdict,
        subset=members,
        lhs=lhs,
        rhs=rhs,
        borderline=verdict == "inadmissible" and lhs > rhs,
        subsets_checked=checked,
        elapsed_s=time.perf_counter() - start,
    )


def enumerate_rows(
    t: Triangulation, w: Weight, target
) -> list[tuple[tuple[int, ...], float, float]]:
    """All per-subset (members, LHS, RHS) rows, for small-mesh dumps.

    Unlike the scan this does not stop early; it exists for the
    ``--dump-subsets`` CLI flag and for cross-checking the kernels.
    """
    tgt = _explicit_target(t, target)
    _check_fit(t, w)
    if t.n_vertices > 16:
        raise EnumerationSizeError(
            "per-subset dumps are limited to 16 vertices"
        )
    from itertools import combinations

    rows = []
    for size in range(1, t.n_vertices):
        for members in combinations(range(t.n_vertices), size):
            subset = VertexSubset.of(t, members)
            lhs, rhs = subset_inequality(t, w, tgt, subset)
            rows.append((members, lhs, rhs))
    return rows
