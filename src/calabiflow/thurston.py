"""Admissibility of target curvatures (Thurston's condition).

A curvature vector is realized by some circle packing metric iff it lies
on the Gauss-Bonnet hyperplane and, for every nonempty proper vertex
subset ``I``, satisfies the strict inequality

    sum_{i in I} target_i > -sum_{(e,v) in Lk(I)} (pi - Phi(e)) + 2 pi chi(F_I)

where ``F_I`` is the subcomplex spanned by ``I`` and ``Lk(I)`` its link.
The check is an exhaustive scan over all ``2^N - 2`` subsets in
(size, lexicographic) order with early exit, so a reported violator is
minimal in that order.  Borderline subsets (strict inequality holds but
by no more than the tolerance) are conservatively reported as violations
and flagged, since the admissible set is open.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _kernels
from .errors import DomainError, EnumerationSizeError
from .geometry import Weight
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
    "constant_curvature_exists",
    "subset_inequality",
    "enumerate_rows",
    "SIZE_GUARD",
]

SIZE_GUARD = 24
VIOLATION_TOL = 1e-12
GAUSS_BONNET_TOL = 1e-9


@dataclass(frozen=True)
class AdmissibilityReport:
    """Outcome of the exhaustive subset scan."""

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
    target = np.asarray(target, dtype=np.float64)
    lhs = float(np.sum(target[list(subset.members)]))
    link = 0.0
    for (a, b), _v in link_pairs(t, subset):
        link += math.pi - float(w.phi[t.edge_index[(a, b)]])
    rhs = -link + 2.0 * math.pi * subcomplex_euler(t, subset)
    return lhs, rhs


def _explicit_target(t: Triangulation, target) -> np.ndarray:
    """:func:`resolve_target`, except that ``None`` is refused: a check
    needs the target spelled out (see :func:`constant_curvature_exists`)."""
    if target is None:
        raise DomainError("an admissibility check needs an explicit target curvature")
    return resolve_target(t, target)


def check_admissible(
    t: Triangulation,
    w: Weight,
    target,
    force: bool = False,
) -> AdmissibilityReport:
    """Scan every nonempty proper vertex subset for a violated inequality.

    Refuses meshes with more than 24 vertices (an exponential enumeration
    of over 1.6e7 subsets) unless ``force`` is true.
    """
    tgt = _explicit_target(t, target)
    if w.phi.shape[0] != t.n_edges:
        raise DomainError("weight does not match the mesh")
    if t.n_vertices > SIZE_GUARD and not force:
        raise EnumerationSizeError(
            f"admissibility scan over {t.n_vertices} vertices means checking "
            f"2^{t.n_vertices} - 2 subsets (exponential enumeration); pass "
            "force=True to run it anyway"
        )
    start = time.perf_counter()
    if not check_gauss_bonnet(tgt, t.chi):
        return AdmissibilityReport(
            verdict="gauss_bonnet_violation",
            subset=None,
            lhs=float(np.sum(tgt)),
            rhs=2.0 * math.pi * t.chi,
            borderline=False,
            subsets_checked=0,
            elapsed_s=time.perf_counter() - start,
        )
    pmp = math.pi - w.phi
    found, members, lhs, rhs, checked = _kernels.scan_subsets(
        t.n_vertices,
        tgt,
        t.edges[:, 0],
        t.edges[:, 1],
        t.faces,
        t.face_edges,
        pmp,
        VIOLATION_TOL,
    )
    elapsed = time.perf_counter() - start
    if found:
        return AdmissibilityReport(
            verdict="inadmissible",
            subset=tuple(int(v) for v in members),
            lhs=float(lhs),
            rhs=float(rhs),
            borderline=bool(lhs > rhs),
            subsets_checked=int(checked),
            elapsed_s=elapsed,
        )
    return AdmissibilityReport(
        verdict="admissible",
        subset=None,
        lhs=None,
        rhs=None,
        borderline=False,
        subsets_checked=int(checked),
        elapsed_s=elapsed,
    )


def constant_curvature_exists(
    t: Triangulation, w: Weight, force: bool = False
) -> AdmissibilityReport:
    """Admissibility of the constant target ``K_av = 2 pi chi / N``."""
    return check_admissible(t, w, resolve_target(t, None), force=force)


def enumerate_rows(
    t: Triangulation, w: Weight, target
) -> list[tuple[tuple[int, ...], float, float]]:
    """All per-subset (members, LHS, RHS) rows, for small-mesh dumps.

    Unlike the scan this does not stop early; it exists for the
    ``--dump-subsets`` CLI flag and for cross-checking the kernels.
    """
    tgt = _explicit_target(t, target)
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
