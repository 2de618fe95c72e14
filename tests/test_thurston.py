"""Admissibility of target curvatures: oracle cross-check and edge cases."""

import itertools
import math

import numpy as np
import pytest

import calabiflow as cf
from calabiflow.thurston import SIZE_GUARD, enumerate_rows, subset_inequality
from calabiflow.meshes import subdivide
from _util import gb_target, mesh, random_weight, zero_weight

TWO_PI = 2 * math.pi
TOL = 1e-12


def _oracle_scan(t, w, target):
    """Reference admissibility scan, written independently with plain sets.

    Enumerates nonempty proper subsets by (size, lexicographic) order and
    returns the first subset with lhs <= rhs + TOL, or None.
    """
    phi_of = {tuple(e): w.phi[i] for i, e in enumerate(map(tuple, t.edges))}
    faces = [tuple(int(v) for v in f) for f in t.faces]
    for size in range(1, t.n_vertices):
        for comb in itertools.combinations(range(t.n_vertices), size):
            inside = set(comb)
            lhs = float(sum(target[v] for v in comb))
            # Euler characteristic of the spanned subcomplex
            e_in = sum(
                1 for a, b in phi_of if a in inside and b in inside
            )
            f_in = sum(1 for f in faces if set(f) <= inside)
            chi_sub = size - e_in + f_in
            # link contribution: faces with exactly one vertex inside
            link = 0.0
            for f in faces:
                ins = [v for v in f if v in inside]
                if len(ins) == 1:
                    a, b = sorted(v for v in f if v not in inside)
                    link += math.pi - phi_of[(a, b)]
            rhs = -link + TWO_PI * chi_sub
            if lhs <= rhs + TOL:
                return comb, lhs, rhs
    return None


# the torus needs wider draws: its vertices have degree six, which pushes
# the singleton right-hand sides far down
@pytest.mark.parametrize(
    "name, spread", [("tetrahedron", 2.0), ("octahedron", 2.0), ("torus", 6.0)]
)
def test_scan_matches_oracle_on_random_targets(name, spread):
    t = mesh(name)
    rng = np.random.default_rng(40 + t.n_vertices)
    verdicts = set()
    for k in range(40):
        w = random_weight(rng, t) if k % 2 else zero_weight(t)
        target = gb_target(rng, t, spread=spread)
        rep = cf.check_admissible(t, w, target)
        expected = _oracle_scan(t, w, target)
        verdicts.add(rep.verdict)
        if expected is None:
            assert rep.verdict == "admissible"
            assert rep.subset is None
        else:
            comb, lhs, rhs = expected
            assert rep.verdict == "inadmissible"
            assert rep.subset == comb
            assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=1e-12)
            assert rep.rhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)
    # the draw must exercise both outcomes for the cross-check to mean much
    assert verdicts == {"admissible", "inadmissible"}


def test_subset_inequality_matches_oracle_rows():
    t = mesh("tetrahedron")
    rng = np.random.default_rng(41)
    w = random_weight(rng, t)
    target = gb_target(rng, t)
    rows = enumerate_rows(t, w, target)
    assert len(rows) == 2**4 - 2
    for members, lhs, rhs in rows:
        s = cf.VertexSubset.of(t, members)
        l2, r2 = subset_inequality(t, w, target, s)
        assert (l2, r2) == (pytest.approx(lhs), pytest.approx(rhs))
    # spot value: singleton {0} under zero weights has rhs = -3 pi + 2 pi
    w0 = zero_weight(t)
    l0, r0 = subset_inequality(t, w0, target, cf.VertexSubset.of(t, [0]))
    assert l0 == pytest.approx(target[0])
    assert r0 == pytest.approx(-math.pi)


@pytest.mark.parametrize("name", ["tetrahedron", "octahedron", "icosahedron", "torus"])
def test_average_curvature_admissible_on_builtins(name):
    t = mesh(name)
    w = zero_weight(t)
    k_av = np.full(t.n_vertices, TWO_PI * t.chi / t.n_vertices)
    rep = cf.check_admissible(t, w, k_av)
    assert rep.verdict == "admissible"
    assert rep.admissible
    assert rep.subsets_checked == 2**t.n_vertices - 2
    assert cf.constant_curvature_exists(t, w)
    assert rep.elapsed_s >= 0.0


def test_known_inadmissible_target():
    t = mesh("tetrahedron")
    w = zero_weight(t)
    bad = np.array([-TWO_PI, TWO_PI, TWO_PI, TWO_PI])
    rep = cf.check_admissible(t, w, bad)
    assert rep.verdict == "inadmissible"
    assert not rep.admissible
    assert rep.subset == (0,)
    assert rep.lhs == pytest.approx(-TWO_PI)
    assert rep.rhs == pytest.approx(-math.pi)
    assert not rep.borderline
    assert rep.subsets_checked == 1  # minimal violator found immediately


def test_gauss_bonnet_gate():
    t = mesh("tetrahedron")
    w = zero_weight(t)
    assert cf.check_gauss_bonnet(np.full(4, math.pi), 2)
    assert not cf.check_gauss_bonnet(np.full(4, math.pi + 0.1), 2)
    rep = cf.check_admissible(t, w, np.full(4, math.pi + 0.1))
    assert rep.verdict == "gauss_bonnet_violation"
    assert rep.subset is None
    assert rep.subsets_checked == 0


def test_borderline_annotation():
    # lhs above rhs but within tolerance: flagged as a violation (the
    # admissible set is open) and annotated borderline.
    t = mesh("tetrahedron")
    w = zero_weight(t)
    lhs0 = -math.pi + 5e-13
    rest = (TWO_PI * 2 - lhs0) / 3.0
    target = np.array([lhs0, rest, rest, rest])
    rep = cf.check_admissible(t, w, target)
    assert rep.verdict == "inadmissible"
    assert rep.subset == (0,)
    assert rep.borderline
    # clearly below rhs: not borderline
    target2 = np.array([-math.pi - 1.0, rest, rest, rest])
    target2[1:] = (TWO_PI * 2 - target2[0]) / 3.0
    rep2 = cf.check_admissible(t, w, target2)
    assert rep2.verdict == "inadmissible"
    assert not rep2.borderline


def test_size_guard_and_force():
    big = subdivide(subdivide(mesh("octahedron")))
    assert big.n_vertices == 66 > SIZE_GUARD
    w = zero_weight(big)
    k_av = np.full(66, TWO_PI * 2 / 66)
    with pytest.raises(cf.EnumerationSizeError):
        cf.check_admissible(big, w, k_av)
    # force works when an early violator cuts the enumeration short
    tor = subdivide(mesh("torus"))
    assert tor.n_vertices == 28 > SIZE_GUARD
    wt = zero_weight(tor)
    bad = np.zeros(28)
    bad[0] = -4 * TWO_PI
    bad[1:] += (0.0 - bad.sum()) / 27.0
    rep = cf.check_admissible(tor, wt, bad, force=True)
    assert rep.verdict == "inadmissible"
    assert rep.subset == (0,)


def test_input_validation():
    t = mesh("tetrahedron")
    w = zero_weight(t)
    with pytest.raises(cf.DomainError):
        cf.check_admissible(t, w, np.ones(5))
    with pytest.raises(cf.DomainError):
        cf.check_admissible(t, w, np.array([np.nan, 0, 0, 0]))
    with pytest.raises(cf.DomainError):
        cf.check_admissible(t, cf.Weight(np.zeros(7)), np.full(4, math.pi))
    with pytest.raises(cf.DomainError):
        enumerate_rows(subdivide(subdivide(mesh("octahedron"))), None, None)


def test_report_determinism_and_dict():
    t = mesh("octahedron")
    rng = np.random.default_rng(42)
    w = random_weight(rng, t)
    target = gb_target(rng, t, spread=2.5)
    r1 = cf.check_admissible(t, w, target)
    r2 = cf.check_admissible(t, w, target)
    assert r1.as_dict() == r2.as_dict()
    d = r1.as_dict()
    assert "elapsed_s" not in d  # timing is not part of the comparable payload
    assert set(d) == {"verdict", "subset", "lhs", "rhs", "borderline", "subsets_checked"}
