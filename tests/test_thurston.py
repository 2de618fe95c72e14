"""Admissibility of target curvatures: oracle cross-check and edge cases."""

import itertools
import math

import numpy as np
import pytest

import calabiflow as cf
from calabiflow import _kernels, thurston
from calabiflow.geometry import _mesh_arrays
from calabiflow.laplacian import DENSE_LIMIT
from calabiflow.thurston import (
    CURVATURE_TOL,
    SIZE_GUARD,
    VIOLATION_TOL,
    enumerate_rows,
    subset_inequality,
)
from calabiflow.meshes import subdivide
from _scan_oracle import scan_subsets as loop_scan
from _util import gb_target, mesh, random_metric, random_weight, zero_weight

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


def _scan(t, w, target):
    """``_kernels.scan_subsets`` as ``check_admissible`` calls it."""
    return _kernels.scan_subsets(*_args(t, w, target))


def _args(t, w, target):
    """The arguments ``check_admissible`` passes to the scan."""
    return (
        t.n_vertices, target, t.edges[:, 0], t.edges[:, 1], t.faces,
        t.face_edges, math.pi - w.phi, VIOLATION_TOL,
    )


def _realizable_target(rng, t, w):
    """The curvature of a random metric: admissible by construction."""
    return cf.compute_geometry(t, w, random_metric(rng, t)).curvatures


def _violating_target(rng, t, w, members=None):
    """A Gauss-Bonnet target whose inequality fails by 0.5 on ``members``,
    by default a random subset of 1 to 3 vertices."""
    target = _realizable_target(rng, t, w)
    if members is None:
        members = rng.choice(t.n_vertices, int(rng.integers(1, 4)), replace=False)
    lhs, rhs = subset_inequality(t, w, target, cf.VertexSubset.of(t, members))
    inside = np.zeros(t.n_vertices, dtype=bool)
    inside[members] = True
    shift = lhs - rhs + 0.5
    target[inside] -= shift / inside.sum()
    target[~inside] += shift / (~inside).sum()
    return target


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
    assert rep.subsets_checked == 0  # the Newton solve decided
    assert rep.elapsed_s >= 0.0
    found, _, _, _, checked = _scan(t, w, k_av)
    assert not found
    assert checked == 2**t.n_vertices - 2


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


def test_size_guard_and_force(monkeypatch):
    big = subdivide(subdivide(mesh("octahedron")))
    assert big.n_vertices == 66 > SIZE_GUARD
    w = zero_weight(big)
    k_av = np.full(66, TWO_PI * 2 / 66)
    rep = cf.check_admissible(big, w, k_av)
    assert rep.verdict == "admissible" and rep.subsets_checked == 0
    tor = subdivide(mesh("torus"))
    assert tor.n_vertices == 28 > SIZE_GUARD
    wt = zero_weight(tor)
    bad = np.zeros(28)
    bad[0] = -4 * TWO_PI
    bad[1:] += (0.0 - bad.sum()) / 27.0
    rep = cf.check_admissible(tor, wt, bad)
    assert rep.verdict == "inadmissible" and rep.subsets_checked == 0
    lhs, rhs = subset_inequality(tor, wt, bad, cf.VertexSubset.of(tor, rep.subset))
    assert lhs <= rhs + VIOLATION_TOL
    # an undecided solve meets the guard; force runs the scan, which an
    # early violator cuts short
    monkeypatch.setattr(thurston, "_newton_verdict", lambda t, w, target: None)
    with pytest.raises(cf.EnumerationSizeError):
        cf.check_admissible(big, w, k_av)
    with pytest.raises(cf.EnumerationSizeError):
        cf.check_admissible(tor, wt, bad)
    rep = cf.check_admissible(tor, wt, bad, force=True)
    assert rep.verdict == "inadmissible"
    assert rep.subset == (0,)
    assert rep.subsets_checked == 1


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


@pytest.mark.parametrize(
    "t",
    [mesh(name) for name in ("tetrahedron", "octahedron", "icosahedron", "torus")]
    + [subdivide(mesh("octahedron"))],
    ids=lambda t: f"N={t.n_vertices}",
)
def test_solve_matches_scan_on_seeded_targets(t):
    # a certified admissible verdict never contradicts the scan, and every
    # other target within the guard gets the scan's report unchanged
    rng = np.random.default_rng(50 + t.n_vertices)
    spread = 6.0 if t.chi == 0 else 2.0
    solved = 0
    for k in range(18):
        w = random_weight(rng, t) if k % 2 else zero_weight(t)
        make = (_realizable_target, _violating_target, None)[k % 3]
        target = make(rng, t, w) if make else gb_target(rng, t, spread=spread)
        rep = cf.check_admissible(t, w, target)
        if make is _realizable_target:
            assert rep.verdict == "admissible"
        if rep.admissible:
            assert rep.subsets_checked == 0
            solved += 1
            if t.n_vertices > 16:
                continue  # a full 2^18 scan is too long for a unit test
        found, members, lhs, rhs, checked = _scan(t, w, target)
        assert rep.admissible == (not found)
        if found:
            assert rep.subset == tuple(members)
            assert (rep.lhs, rep.rhs, rep.subsets_checked) == (lhs, rhs, checked)
            assert rep.borderline == (lhs > rhs)
    assert solved >= 6


@pytest.mark.parametrize("name", ["tetrahedron", "octahedron", "icosahedron", "torus"])
def test_slack_bound_below_every_subset_slack(name):
    # g(u) - |K(u) - target|_1 <= lhs - rhs for every subset, at targets
    # near and far from K(u)
    t = mesh(name)
    rng = np.random.default_rng(60 + t.n_vertices)
    for k in range(3):
        w = random_weight(rng, t) if k % 2 else zero_weight(t)
        # lhs is linear in the target and rhs does not depend on it
        zero = np.zeros(t.n_vertices)
        rows = [(list(m), rhs) for m, _, rhs in enumerate_rows(t, w, zero)]
        u = rng.uniform(-1.0, 1.0, t.n_vertices)
        s = _kernels.state(np.exp(u), _mesh_arrays(t, w))
        assert s.err == _kernels.ERR_OK
        ang, K = s.ang, s.K
        pmp_f = (math.pi - w.phi)[t.face_edges]
        for eps in (0.0, 1e-3, 0.3):
            noise = rng.normal(0.0, eps, t.n_vertices)
            target = K + noise - noise.mean()
            bound = thurston._slack_bound(ang, pmp_f, K - target)
            slack = min(float(np.sum(target[m])) - rhs for m, rhs in rows)
            assert bound <= slack + 1e-12
        # at target = K(u), each subset's slack is the sum of its corner
        # terms, and the bound is the smallest corner term
        terms = [
            [(float(ang[f, c]), float(pmp_f[f, c] - ang[f, c])) for c in range(3)]
            for f in range(t.n_faces)
        ]
        g = min(min(pair) for face in terms for pair in face)
        assert thurston._slack_bound(ang, pmp_f, 0.0 * K) == g > 0.0
        for members, rhs in rows:
            inside = set(members)
            total = 0.0
            for f, face in enumerate(terms):
                ins = [c for c in range(3) if int(t.faces[f, c]) in inside]
                if len(ins) == 1:
                    total += face[ins[0]][1]  # pi - Phi_opp - theta_in
                elif len(ins) == 2:
                    total += face[3 - sum(ins)][0]  # theta_out
            assert float(np.sum(K[members])) - rhs == pytest.approx(total, abs=1e-12)


def test_prefix_violation_is_the_first_violated_prefix():
    t = mesh("icosahedron")
    rng = np.random.default_rng(70)
    hits = 0
    for k in range(12):
        w = random_weight(rng, t)
        u = rng.normal(0.0, 1.0, t.n_vertices)
        order = np.argsort(u, kind="stable")
        if k % 2:
            target = _violating_target(rng, t, w, order[: 1 + k % 5])
        else:
            target = _realizable_target(rng, t, w)
        expected = None
        for size in range(1, t.n_vertices):
            members = tuple(sorted(int(v) for v in order[:size]))
            lhs, rhs = subset_inequality(t, w, target, cf.VertexSubset.of(t, members))
            if lhs <= rhs + VIOLATION_TOL:
                expected = members, lhs, rhs
                break
        got = thurston._prefix_violation(t, math.pi - w.phi, target, u)
        if expected is None:
            assert got is None
        else:
            hits += 1
            assert got[0] == expected[0]
            assert got[1:] == pytest.approx(expected[1:], abs=1e-12)
    assert hits == 6


def test_disconnected_mesh_keeps_scan_verdict():
    # on two disjoint tetrahedra the slack bound does not hold: no face
    # has one or two vertices in one tetrahedron's vertex set, so its slack
    # has no corner terms, and K = pi everywhere meets its inequality with
    # equality
    faces = [tuple(f) for f in cf.meshes.TETRAHEDRON]
    t = cf.Triangulation(8, faces + [tuple(v + 4 for v in f) for f in faces])
    assert not t.connected
    assert "connected" in vars(t)  # computed once per mesh
    assert mesh("torus").connected
    w = zero_weight(t)
    target = np.full(8, math.pi)
    assert thurston._newton_verdict(t, w, target) == ("admissible", None)
    rep = cf.check_admissible(t, w, target)
    assert rep.verdict == "inadmissible"
    assert rep.subset == (0, 1, 2, 3)
    assert rep.subsets_checked == _scan(t, w, target)[4]


def test_solve_decides_n66_without_force():
    t = subdivide(subdivide(mesh("octahedron")))
    rng = np.random.default_rng(80)
    for k in range(8):
        w = random_weight(rng, t)
        make = _violating_target if k % 2 else _realizable_target
        target = make(rng, t, w)
        rep = cf.check_admissible(t, w, target)
        assert rep.subsets_checked == 0
        if make is _realizable_target:
            assert rep.verdict == "admissible"
            continue
        assert rep.verdict == "inadmissible"
        lhs, rhs = subset_inequality(t, w, target, cf.VertexSubset.of(t, rep.subset))
        assert lhs <= rhs + VIOLATION_TOL
        assert (rep.lhs, rep.rhs) == pytest.approx((lhs, rhs), abs=1e-12)


def test_sparse_newton_spreads_the_gauss_bonnet_rounding():
    # above DENSE_LIMIT each Newton step is conjugate gradients on the
    # complement of the constants, and no vertex is pinned: sum(K - K_av),
    # the Gauss-Bonnet rounding, stays spread over the vertices instead of
    # piling up on one
    t = mesh("octahedron")
    while t.n_vertices <= DENSE_LIMIT:
        t = subdivide(t)
    assert t.n_vertices == 1026
    target = np.full(t.n_vertices, TWO_PI * t.chi / t.n_vertices)
    *_, (_, s) = thurston._newton(t, zero_weight(t), target, np.zeros(t.n_vertices))
    dev = s.K - target
    assert abs(dev[0]) <= 10.0 * np.abs(dev[1:]).max()
    assert np.abs(dev).max() < max(1e-12, s.kn.max())


@pytest.mark.parametrize("n", [66, 1026])
def test_newton_stops_at_its_roundoff_floor(monkeypatch, n):
    # drained, the solve makes no step after its first iterate within
    # max(CURVATURE_TOL, max kn) of the target: further steps only move the
    # curvature within its rounding (dense and sparse steps)
    t = _octahedron_above(n)
    target = np.full(n, TWO_PI * t.chi / n)
    iterates, solves = [], []
    solve = cf.DualLaplacian.solve
    monkeypatch.setattr(
        cf.DualLaplacian,
        "solve",
        lambda lap, rhs: solves.append(len(iterates)) or solve(lap, rhs),
    )
    for _, s in thurston._newton(t, zero_weight(t), target, np.zeros(n)):
        iterates.append(np.abs(s.K - target).max() < max(CURVATURE_TOL, s.kn.max()))
    assert iterates.index(True) == len(iterates) - 1
    assert solves == list(range(1, len(iterates)))


def _spsolve_step(lap, rhs):
    """The sparse Newton step by a direct solve: vertex 0 pinned and ``rhs``
    projected onto the range of ``L``."""
    import scipy.sparse.linalg

    x = np.zeros(lap.n)
    x[1:] = scipy.sparse.linalg.spsolve(
        lap.matrix[1:, 1:].tocsc(), (rhs - rhs.mean())[1:]
    )
    return x


def _octahedron_above(n):
    t = mesh("octahedron")
    while t.n_vertices < n:
        t = subdivide(t)
    return t


def _newton_limit(t, w, target, u):
    """The first ``_newton`` iterate within the curvature noise of
    ``target``, with every iterate's drift of ``sum u``."""
    drift = []
    for u_k, s in thurston._newton(t, w, target, u):
        drift.append(abs(u_k.sum() - u.sum()))
        if np.abs(s.K - target).max() < max(1e-12, s.kn.max()):
            return u_k, max(drift)
    raise AssertionError("the Newton solve stopped short")


@pytest.mark.parametrize("n", [1026, 4098])
def test_sparse_newton_matches_the_direct_solve(monkeypatch, n):
    # conjugate gradients on the complement of the constants reach the
    # limit of the pinned direct solve, and keep sum u where it started
    t = _octahedron_above(n)
    assert t.n_vertices == n > DENSE_LIMIT
    rng = np.random.default_rng(n)
    w = random_weight(rng, t)
    u0 = random_metric(rng, t).u
    target = np.full(n, TWO_PI * t.chi / n)
    u, drift = _newton_limit(t, w, target, u0)
    assert drift < 1e-10
    monkeypatch.setattr(cf.DualLaplacian, "solve", _spsolve_step)
    u_ref, _ = _newton_limit(t, w, target, u0)
    assert np.abs((u - u.mean()) - (u_ref - u_ref.mean())).max() < 1e-10


def test_sparse_newton_verdicts_match_the_direct_solve(monkeypatch):
    # above SIZE_GUARD the prefix certificate is read off inexact iterates
    t = _octahedron_above(1026)
    assert t.n_vertices > max(SIZE_GUARD, DENSE_LIMIT)
    rng = np.random.default_rng(92)
    cases = []
    for k in range(6):
        w = random_weight(rng, t) if k % 2 else zero_weight(t)
        make = _violating_target if k % 3 else _realizable_target
        cases.append((w, make(rng, t, w)))
    reports = [cf.check_admissible(t, w, target) for w, target in cases]
    monkeypatch.setattr(cf.DualLaplacian, "solve", _spsolve_step)
    for (w, target), rep in zip(cases, reports):
        ref = cf.check_admissible(t, w, target)
        assert rep.subsets_checked == ref.subsets_checked == 0
        assert (rep.verdict, rep.subset, rep.lhs, rep.rhs, rep.borderline) == (
            ref.verdict, ref.subset, ref.lhs, ref.rhs, ref.borderline
        )
    assert {rep.verdict for rep in reports} == {"admissible", "inadmissible"}


@pytest.mark.parametrize(
    "name, count",
    [("tetrahedron", 6), ("octahedron", 6), ("torus", 6), ("icosahedron", 2)],
)
def test_scan_equals_the_loop_on_full_scans(name, count):
    t = mesh(name)
    rng = np.random.default_rng(90 + t.n_vertices)
    for k in range(count):
        w = random_weight(rng, t) if k % 2 else zero_weight(t)
        args = _args(t, w, _realizable_target(rng, t, w))
        got = _kernels.scan_subsets(*args)
        assert got == loop_scan(*args)
        assert got == (False, [], 0.0, 0.0, 2**t.n_vertices - 2)


def test_scan_equals_the_loop_on_inadmissible_targets_n18():
    t = subdivide(mesh("octahedron"))
    rng = np.random.default_rng(91)
    for k in range(8):
        w = random_weight(rng, t) if k % 2 else zero_weight(t)
        members = rng.choice(t.n_vertices, 2 + k % 2, replace=False)
        args = _args(t, w, _violating_target(rng, t, w, members))
        got = _kernels.scan_subsets(*args)
        assert got[0] and got == loop_scan(*args)


@pytest.mark.parametrize("name", ["octahedron", "torus"])
def test_scan_equals_the_loop_on_random_targets(name):
    # the screen sums the link in another order than the loop, so on a few
    # rows its values differ in the last bits; the reported values must
    # be the loop's (among these draws one torus violator is such a row)
    t = mesh(name)
    spread = 6.0 if t.chi == 0 else 2.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        w = random_weight(rng, t)
        args = _args(t, w, gb_target(rng, t, spread=spread))
        assert _kernels.scan_subsets(*args) == loop_scan(*args)


def _borderline_targets(t, w, rng, ulps):
    """Targets on which the loop's ``lhs - (rhs + tol)`` for one subset ``S``
    of size 2 or 3 is each of ``ulps`` units in the last place of ``lhs``.

    ``S`` has the least slack among the subsets of size 2 or 3 at a
    realizable target; that slack is moved off ``S`` onto the other
    vertices, and the last member of ``S`` is nudged by ulps.  Returns
    ``S`` and a list of ``(gap, target)``.
    """
    target = _realizable_target(rng, t, w)
    rows = [r for r in enumerate_rows(t, w, target) if len(r[0]) in (2, 3)]
    members, lhs, rhs = min(rows, key=lambda r: r[1] - r[2])
    inside = np.zeros(t.n_vertices, dtype=bool)
    inside[list(members)] = True
    slack = lhs - rhs
    target[inside] -= slack / inside.sum()
    target[~inside] += slack / (~inside).sum()
    _, rhs = _kernels._subset_row(list(members), *_args(t, w, target)[:-1])
    goal = rhs + VIOLATION_TOL
    last = members[-1]
    out = []
    for k in ulps:
        want = goal
        for _ in range(abs(k)):
            want = np.nextafter(want, math.copysign(math.inf, k))
        tk = target.copy()
        tk[last] += want - float(np.sum(tk[list(members)]))
        for _ in range(50):
            got = float(np.sum(tk[list(members)]))
            if got == want:
                break
            tk[last] = np.nextafter(tk[last], math.copysign(math.inf, want - got))
        assert got == want
        out.append((got - goal, tk))
    return members, out


@pytest.mark.parametrize("name", ["octahedron", "torus"])
def test_scan_equals_the_loop_on_borderline_targets(name, monkeypatch):
    # the loop's verdict on S flips between gaps of -1, 0 and +1 ulp; rows
    # the screen flags but the loop clears (gaps above 0, below the margin)
    # must be skipped, and the result must still be the loop's
    t = mesh(name)
    rng = np.random.default_rng(92 + t.n_vertices)
    row = _kernels._subset_row
    cleared = []

    def recording(c, *rest):
        lhs, rhs = row(c, *rest)
        if lhs > rhs + VIOLATION_TOL:
            cleared.append(tuple(c))
        return lhs, rhs

    monkeypatch.setattr(_kernels, "_subset_row", recording)
    for k in range(4):
        w = random_weight(rng, t) if k % 2 else zero_weight(t)
        ulps = (-1, 0, 1, 2**10)
        members, cases = _borderline_targets(t, w, rng, ulps)
        for ulp, (gap, target) in zip(ulps, cases):
            assert abs(gap) < 1e-14 if abs(ulp) <= 1 else 0.0 < gap < 1e-11
            args = _args(t, w, target)
            cleared.clear()
            got = _kernels.scan_subsets(*args)
            assert got == loop_scan(*args)
            if gap <= 0.0:
                assert (got[0], tuple(got[1])) == (True, members)
            else:
                assert members in cleared
