"""Acceptance gate: the ten headline guarantees, each timed and reported.

Every test below prints exactly one line of the form

    criterion NN [PASS|FAIL]: <what was checked> (<elapsed>s)

so that ``pytest tests/test_acceptance.py -v -s`` doubles as a checklist.
A criterion fails if any of its assertions fail or if it exceeds its
time budget.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

import calabiflow as cf
from _geometry_oracle import half_weight_analytic, half_weight_dual
from _util import mesh, random_metric, random_weight, zero_weight

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi


@contextmanager
def criterion(num: int, budget_s: float, desc: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} [FAIL]: {desc}")
        raise
    elapsed = time.perf_counter() - t0
    verdict = "PASS" if elapsed < budget_s else "FAIL"
    print(f"criterion {num:02d} [{verdict}]: {desc} ({elapsed:.2f}s)")
    assert elapsed < budget_s, f"time budget {budget_s}s exceeded: {elapsed:.2f}s"


def _random_face(rng):
    return rng.uniform(0.1, 10.0, 3), rng.uniform(0.0, np.pi / 2, 3)


def test_criterion_01_jacobian_identity():
    desc = "dual Laplacian equals the curvature Jacobian (tetra/octa/icosa, 20 draws, FD step 1e-6, tol 1e-5)"
    with criterion(1, 10.0, desc):
        rng = np.random.default_rng(101)
        step = 1e-6
        for name in ("tetrahedron", "octahedron", "icosahedron"):
            t = mesh(name)
            for _ in range(20):
                w = random_weight(rng, t)
                u0 = rng.uniform(-0.7, 0.7, t.n_vertices)
                m = cf.PackingMetric.from_log_radii(u0)
                lap = cf.assemble(t, w, m).matrix
                fd = np.empty_like(lap)
                for j in range(t.n_vertices):
                    up, um = u0.copy(), u0.copy()
                    up[j] += step
                    um[j] -= step
                    kp = cf.compute_geometry(
                        t, w, cf.PackingMetric.from_log_radii(up)
                    ).curvatures
                    km = cf.compute_geometry(
                        t, w, cf.PackingMetric.from_log_radii(um)
                    ).curvatures
                    fd[:, j] = (kp - km) / (2 * step)
                assert np.max(np.abs(lap - fd)) < 1e-5


def test_criterion_02_weight_bounds():
    desc = "face weight bounds: halves in (0, sqrt(3)), edge weights in (0, 2*sqrt(3)), 10^4 faces, zero violations"
    with criterion(2, 5.0, desc):
        rng = np.random.default_rng(102)
        halves = []
        for _ in range(10_000):
            r, phi = _random_face(rng)
            for c, mv in ((0, 1), (1, 2), (2, 0)):
                halves.append(half_weight_analytic(tuple(r), tuple(phi), c, mv))
        halves = np.array(halves)
        assert np.all(halves > 0.0)
        assert np.all(halves < SQRT3)
        # an edge weight is the sum of contributions from its two faces
        full = halves[0::2] + halves[1::2]
        assert np.all(full > 0.0)
        assert np.all(full < 2.0 * SQRT3)


def test_criterion_03_route_equivalence():
    desc = "analytic and dual-length weight routes agree to 1e-9 relative on 10^4 faces"
    with criterion(3, 5.0, desc):
        rng = np.random.default_rng(103)
        for _ in range(10_000):
            r, phi = _random_face(rng)
            for c, mv in ((0, 1), (1, 2), (2, 0)):
                a = half_weight_analytic(tuple(r), tuple(phi), c, mv)
                d = half_weight_dual(tuple(r), tuple(phi), c, mv)
                assert abs(a - d) <= 1e-9 * max(abs(a), abs(d))


def test_criterion_04_spectral_structure():
    desc = "Laplacians are symmetric PSD with a simple kernel spanned by constants (50 metrics per mesh)"
    with criterion(4, 10.0, desc):
        rng = np.random.default_rng(104)
        for name in ("tetrahedron", "octahedron", "icosahedron", "torus"):
            t = mesh(name)
            for _ in range(50):
                w = random_weight(rng, t)
                m = random_metric(rng, t)
                lap = cf.assemble(t, w, m).matrix
                assert np.array_equal(lap, lap.T)
                assert np.max(np.abs(lap @ np.ones(t.n_vertices))) < 1e-10
                eigs = np.linalg.eigvalsh(lap)
                norm = float(np.max(np.abs(eigs)))
                assert np.all(eigs >= -1e-9 * norm)
                assert np.sum(eigs < 1e-9 * norm) == 1


def test_criterion_05_conservation_and_descent():
    desc = "flows conserve total log radius and never raise energy on accepted steps (10 octahedron starts)"
    with criterion(5, 30.0, desc):
        rng = np.random.default_rng(105)
        t = mesh("octahedron")
        w = zero_weight(t)
        for _ in range(10):
            m0 = random_metric(rng, t)
            tr = cf.integrate(cf.FlowKind.calabi(), t, w, m0)
            assert tr.status == "converged"
            assert abs(np.sum(tr.final_metric.u) - np.sum(m0.u)) < 1e-9
            assert abs(np.prod(tr.final_metric.r) / np.prod(m0.r) - 1.0) < 1e-8
            # with this few accepted steps every one of them is sampled
            assert len(tr.samples) == tr.accepted_steps + 1
            energies = [s.energy for s in tr.samples]
            assert all(b <= a for a, b in zip(energies, energies[1:]))


def test_criterion_06_convergence_and_rate():
    desc = "tetrahedron flow reaches constant curvature (1e-10) with energy decay rate -32/3 within 20%"
    with criterion(6, 30.0, desc):
        t = mesh("tetrahedron")
        w = zero_weight(t)
        m0 = cf.PackingMetric.from_radii(np.array([2.0, 1.0, 1.0, 1.0]))
        opts = cf.IntegratorOptions(max_step=0.02)
        tr = cf.integrate(cf.FlowKind.calabi(), t, w, m0, opts)
        assert tr.status == "converged"
        final_k = cf.compute_geometry(t, w, tr.final_metric).curvatures
        assert np.max(np.abs(final_k - math.pi)) < 1e-10
        # fit the slope of ln(energy) over the final decade of the decay
        e_last = tr.samples[-1].energy
        pts = [(s.t, s.energy) for s in tr.samples if e_last <= s.energy <= 10 * e_last]
        assert len(pts) >= 5
        ts = np.array([p[0] for p in pts])
        ln_e = np.log([p[1] for p in pts])
        slope = np.polyfit(ts, ln_e, 1)[0]
        # the limiting rate is -2 * lambda1^2 at the converged metric,
        # which for the regular tetrahedron is -2 * (4/sqrt(3))^2 = -32/3
        lam = tr.samples[-1].lambda1
        assert lam == pytest.approx(4.0 / SQRT3, abs=1e-8)
        expected = -2.0 * lam * lam
        assert abs(slope - expected) <= 0.2 * abs(expected)


def test_criterion_07_admissibility_matches_convergence():
    desc = "admissibility verdict agrees with convergence of both flow kinds (4 configs x 5 starts, 100%)"
    with criterion(7, 180.0, desc):
        rng = np.random.default_rng(107)
        configs = [
            ("tetrahedron", 0.0),
            ("tetrahedron", np.pi / 2),
            ("octahedron", 0.0),
            ("torus", 0.0),
        ]
        for name, phi in configs:
            t = mesh(name)
            w = cf.Weight(np.full(t.n_edges, phi))
            k_av = np.full(t.n_vertices, TWO_PI * t.chi / t.n_vertices)
            report = cf.check_admissible(t, w, k_av)
            for _ in range(5):
                m0 = random_metric(rng, t)
                for kind in (cf.FlowKind.calabi(), cf.FlowKind.ricci_normalized()):
                    tr = cf.integrate(kind, t, w, m0)
                    converged = tr.status == "converged"
                    assert converged == report.admissible, (
                        name, phi, kind.name, tr.status, report.verdict
                    )


def test_criterion_08_prescribed_round_trip():
    desc = "prescribed-curvature flow recovers the generating octahedron metric up to scale (1e-6)"
    with criterion(8, 60.0, desc):
        rng = np.random.default_rng(108)
        t = mesh("octahedron")
        w = random_weight(rng, t)
        m_gen = random_metric(rng, t)
        target = cf.compute_geometry(t, w, m_gen).curvatures
        m0 = random_metric(rng, t)
        tr = cf.integrate(cf.FlowKind.calabi_prescribed(target), t, w, m0)
        assert tr.status == "converged"
        final_k = cf.compute_geometry(t, w, tr.final_metric).curvatures
        assert np.max(np.abs(final_k - target)) < 1e-9
        r_rec = tr.final_metric.r
        scale = (np.prod(m_gen.r) / np.prod(r_rec)) ** (1.0 / t.n_vertices)
        assert np.max(np.abs(scale * r_rec / m_gen.r - 1.0)) < 1e-6


def test_criterion_09_inadmissible_rejection():
    desc = "inadmissible target yields the subset certificate {0} and guarded flow divergence"
    with criterion(9, 60.0, desc):
        t = mesh("tetrahedron")
        w = zero_weight(t)
        target = np.array([-TWO_PI, TWO_PI, TWO_PI, TWO_PI])
        report = cf.check_admissible(t, w, target)
        assert report.verdict == "inadmissible"
        assert report.subset == (0,)
        # the escape toward the certificate slows exponentially, so the
        # displacement guard is exercised at a reduced radius
        opts = cf.IntegratorOptions(u_max=12.0)
        m0 = cf.PackingMetric.from_radii(np.ones(4))
        tr = cf.integrate(cf.FlowKind.calabi_prescribed(target), t, w, m0, opts)
        assert tr.status == "diverged"
        assert np.max(np.abs(tr.final_metric.u)) > 12.0


def test_criterion_10_potential_properties():
    desc = "potential is path independent (100 pairs, 1e-7 rel) and proper along 8 rays from its minimum"
    with criterion(10, 60.0, desc):
        rng = np.random.default_rng(110)
        t = mesh("tetrahedron")
        w = random_weight(rng, t)
        for _ in range(100):
            ua = rng.uniform(-1.0, 1.0, 4)
            ub = rng.uniform(-1.0, 1.0, 4)
            uc = rng.uniform(-1.0, 1.0, 4)
            direct = cf.ricci_potential(t, w, ua, ub)
            via = cf.ricci_potential(t, w, ua, uc) + cf.ricci_potential(t, w, uc, ub)
            assert abs(direct - via) <= 1e-7 * (1.0 + abs(direct))
        base = cf.constant_curvature_log_metric(t, w)
        dirs = rng.normal(size=(8, 4))
        dirs -= dirs.mean(axis=1, keepdims=True)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        rows = cf.properness_probe(t, w, base, directions=dirs)
        assert len(rows) == 8 * 4
        by_ray = {}
        for idx, s, f in rows:
            assert f >= -1e-9
            by_ray.setdefault(idx, []).append((s, f))
        for vals in by_ray.values():
            vals.sort()
            fs = [f for _, f in vals]
            assert all(b > a for a, b in zip(fs, fs[1:]))
