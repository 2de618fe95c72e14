"""Dual Laplacian: derivative identity, weight bounds, routes, spectrum."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import calabiflow as cf
from calabiflow import _kernels, cli, laplacian
from calabiflow.meshes import subdivide
from _geometry_oracle import (
    dual_edge_weights,
    edge_length,
    half_weight_analytic,
    half_weight_dual,
)
from _util import MESH_NAMES, mesh, random_metric, random_weight, zero_weight

SQRT3 = math.sqrt(3.0)


def _lap_apply(lap, f):
    """The flows' kernel ``sum_j B_ij (f_j - f_i)``, which is ``-L f``."""
    return _kernels.lap_apply(lap.weights, lap.edges[:, 0], lap.edges[:, 1], f)


def _random_face(rng):
    r = rng.uniform(0.1, 10.0, 3)
    phi = rng.uniform(0.0, np.pi / 2, 3)
    return r, phi


def _angle_at(r, phi, corner):
    la = edge_length(r[1], r[2], phi[1])   # edge (1,2)
    lb = edge_length(r[2], r[0], phi[2])   # edge (2,0)
    lc = edge_length(r[0], r[1], phi[0])   # edge (0,1)
    return cf.triangle_angles(la, lb, lc)[corner]


def test_half_weight_matches_fd_derivative():
    # Independent oracle: the half weight is r_m * d(angle at corner)/d r_m,
    # i.e. the derivative with respect to the log radius of the moving vertex.
    rng = np.random.default_rng(10)
    s = 1e-6
    for _ in range(300):
        r, phi = _random_face(rng)
        corner = int(rng.integers(0, 3))
        moving = int(rng.integers(0, 3))
        if moving == corner:
            continue
        rp = r.copy()
        rp[moving] *= math.exp(s)
        rm = r.copy()
        rm[moving] *= math.exp(-s)
        fd = (_angle_at(rp, phi, corner) - _angle_at(rm, phi, corner)) / (2 * s)
        got = half_weight_analytic(tuple(r), (phi[0], phi[1], phi[2]), corner, moving)
        assert got == pytest.approx(fd, abs=2e-5)


def test_half_weight_symmetry_and_bounds():
    # Each face contribution is symmetric in (corner, moving) and lies in
    # the open interval (0, sqrt(3)).
    rng = np.random.default_rng(11)
    for _ in range(2000):
        r, phi = _random_face(rng)
        pairs = [(0, 1), (0, 2), (1, 2)]
        for c, mv in pairs:
            a = half_weight_analytic(tuple(r), tuple(phi), c, mv)
            b = half_weight_analytic(tuple(r), tuple(phi), mv, c)
            assert a == pytest.approx(b, rel=1e-9, abs=1e-12)
            assert 0.0 < a < SQRT3


def test_half_weight_route_equivalence():
    rng = np.random.default_rng(12)
    for _ in range(2000):
        r, phi = _random_face(rng)
        for c, mv in [(0, 1), (1, 2), (2, 0)]:
            a = half_weight_analytic(tuple(r), tuple(phi), c, mv)
            d = half_weight_dual(tuple(r), tuple(phi), c, mv)
            assert abs(a - d) <= 1e-9 * max(abs(a), abs(d))


def test_tetrahedron_frozen_matrix_and_spectrum():
    t = mesh("tetrahedron")
    lap = cf.assemble(t, zero_weight(t), cf.PackingMetric.from_radii(np.ones(4)))
    m = lap.matrix
    assert np.allclose(np.diag(m), SQRT3, rtol=0, atol=1e-12)
    off = m[~np.eye(4, dtype=bool)]
    assert np.allclose(off, -1.0 / SQRT3, rtol=0, atol=1e-12)
    eig = np.linalg.eigvalsh(lap.matrix)
    assert eig[0] == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(eig[1:], 4.0 / SQRT3, rtol=0, atol=1e-10)
    assert lap.lambda1() == pytest.approx(2.3094010767585034, abs=1e-10)
    # action on a coordinate vector, frozen from the complete-graph form
    got = _lap_apply(lap, np.array([1.0, 0.0, 0.0, 0.0]))
    assert np.allclose(got, [-SQRT3, 1 / SQRT3, 1 / SQRT3, 1 / SQRT3], atol=1e-12)


@pytest.mark.parametrize("name", ["tetrahedron", "octahedron", "icosahedron"])
def test_jacobian_identity_fd(name):
    # L must equal the Jacobian d K / d u entrywise (central differences).
    t = mesh(name)
    rng = np.random.default_rng(13 + len(name))
    s = 1e-6
    for _ in range(5):
        w = random_weight(rng, t)
        m = random_metric(rng, t)
        lap = cf.assemble(t, w, m).matrix
        jac = np.empty_like(lap)
        for j in range(t.n_vertices):
            up = m.u.copy()
            up[j] += s
            um = m.u.copy()
            um[j] -= s
            kp = cf.compute_geometry(t, w, cf.PackingMetric.from_log_radii(up)).curvatures
            km = cf.compute_geometry(t, w, cf.PackingMetric.from_log_radii(um)).curvatures
            jac[:, j] = (kp - km) / (2 * s)
        assert np.max(np.abs(lap - jac)) < 1e-5


@pytest.mark.parametrize("name", MESH_NAMES)
def test_spectral_structure(name):
    t = mesh(name)
    rng = np.random.default_rng(14)
    ones = np.ones(t.n_vertices)
    for _ in range(10):
        lap = cf.assemble(t, random_weight(rng, t), random_metric(rng, t))
        m = lap.matrix
        norm = np.linalg.norm(m, 2)
        assert np.allclose(m, m.T, rtol=0, atol=1e-12 * norm)
        assert np.max(np.abs(m @ ones)) < 1e-10
        eig = np.linalg.eigvalsh(m)
        assert eig.min() >= -1e-9 * norm
        assert np.sum(eig < 1e-9 * norm) == 1  # kernel is exactly the constants
        assert lap.lambda1() == pytest.approx(eig[1], rel=1e-9)
        # off-diagonal entries are strictly negative (-B_ij) on edges
        for a, b in t.edges:
            assert m[a, b] < 0.0
        assert np.all(lap.weights > 0.0)
        assert np.all(lap.weights < 2 * SQRT3)


def test_apply_matches_matrix():
    t = mesh("icosahedron")
    rng = np.random.default_rng(15)
    lap = cf.assemble(t, random_weight(rng, t), random_metric(rng, t))
    for _ in range(5):
        f = rng.normal(size=t.n_vertices)
        assert np.allclose(_lap_apply(lap, f), -(lap.matrix @ f), rtol=1e-12, atol=1e-13)


def test_assemble_route_dual_equivalent():
    # the assembled weights against the dual-length route summed face by face
    t = mesh("octahedron")
    rng = np.random.default_rng(16)
    w = random_weight(rng, t)
    m = random_metric(rng, t)
    lap = cf.assemble(t, w, m)
    assert np.allclose(lap.weights, dual_edge_weights(t, w, m), rtol=1e-9, atol=1e-12)


def test_lambda1_agrees_with_dense_spectrum():
    t = mesh("icosahedron")
    rng = np.random.default_rng(17)
    for _ in range(10):
        lap = cf.assemble(t, random_weight(rng, t), random_metric(rng, t))
        eig = np.linalg.eigvalsh(lap.matrix)
        assert lap.lambda1() == pytest.approx(eig[1], rel=1e-9)


def test_sparse_path_matches_dense_eigensolve():
    # Three midpoint refinements of the octahedron give N=258; one more
    # gives N=1026, crossing the dense/sparse representation threshold.
    t = subdivide(subdivide(subdivide(subdivide(mesh("octahedron")))))
    assert t.n_vertices == 1026
    rng = np.random.default_rng(18)
    w = random_weight(rng, t, hi=np.pi / 4)
    m = random_metric(rng, t, lo=0.8, hi=1.25)
    lap = cf.assemble(t, w, m)
    assert not lap.is_dense
    dense = lap.matrix.toarray()
    evals = np.linalg.eigvalsh(dense)
    assert lap.lambda1() == pytest.approx(evals[1], rel=1e-8)
    f = rng.normal(size=t.n_vertices)
    assert np.allclose(_lap_apply(lap, f), -(dense @ f), rtol=1e-10, atol=1e-10)


def test_sparse_lambda1_never_factors_a_singular_matrix():
    # Shift-invert about sigma = 0 factors the singular L itself, and that
    # factorization failed ("Factor is exactly singular") on draws 67 and
    # 145 of this sequence; a small negative shift keeps it definite.
    t = subdivide(subdivide(subdivide(subdivide(mesh("octahedron")))))
    rng = np.random.default_rng(7)
    for draw in range(150):
        lap = cf.assemble(t, random_weight(rng, t), random_metric(rng, t))
        assert not lap.is_dense
        lam = lap.lambda1()
        assert lam > 0.0
        if draw in (67, 145):
            evals = np.linalg.eigvalsh(lap.matrix.toarray())
            assert lam == pytest.approx(evals[1], rel=1e-8)


def test_rayleigh_validation_refuses_a_wrong_eigenpair(monkeypatch):
    # the sparse path checks eigsh's lambda1 against the Rayleigh quotient
    # of its eigenvector
    import scipy.sparse.linalg as sparse_linalg

    t = subdivide(subdivide(subdivide(subdivide(mesh("octahedron")))))
    rng = np.random.default_rng(19)
    lap = cf.assemble(t, random_weight(rng, t), random_metric(rng, t))
    assert not lap.is_dense
    eigsh = sparse_linalg.eigsh

    def off(*args, **kwargs):
        vals, vecs = eigsh(*args, **kwargs)
        return vals * (1.0 + 1e-6), vecs

    monkeypatch.setattr(sparse_linalg, "eigsh", off)
    with pytest.raises(cf.InternalConsistencyError, match="Rayleigh validation"):
        lap.lambda1()


def test_coordinate_lines_roundtrip():
    t = mesh("tetrahedron")
    lap = cf.assemble(t, zero_weight(t), cf.PackingMetric.from_radii(np.ones(4)))
    lines = lap.coordinate_lines()
    seen = {}
    for ln in lines:
        i, j, v = ln.split()
        seen[(int(i), int(j))] = float(v)
    m = lap.matrix
    for (i, j), v in seen.items():
        assert v == pytest.approx(m[i, j], rel=1e-15)
    # every structural nonzero appears
    assert len(seen) == 4 + 2 * t.n_edges


def test_dual_laplacian_weight_validation():
    t = mesh("tetrahedron")
    with pytest.raises(cf.DomainError):
        cf.DualLaplacian(4, t.edges, np.full(6, -1.0))
    with pytest.raises(cf.DomainError):
        cf.DualLaplacian(4, t.edges, np.full(6, 2 * SQRT3 + 1.0))


TETRA_EDGES = mesh("tetrahedron").edges


@pytest.mark.parametrize(
    "n, edges, weights, message",
    [
        (3, TETRA_EDGES, np.ones(6), r"edge endpoints must lie in \[0, 3\)"),
        (4, np.vstack([TETRA_EDGES[:5], [[-1, 2]]]), np.ones(6), "edge endpoints"),
        (4, TETRA_EDGES.astype(float), np.ones(6), "edges must be .E, 2. integers"),
        (4, TETRA_EDGES.astype(bool), np.ones(6), "edges must be"),
        (4, TETRA_EDGES.astype(np.uint64), np.ones(6), "edges must be"),
        (4, TETRA_EDGES[:, :1], np.ones(6), r"got int64 \(6, 1\)"),
        (4, TETRA_EDGES, np.ones((6, 1)), "one weight per edge"),
        (4, TETRA_EDGES, np.ones(5), "one weight per edge"),
        (4, TETRA_EDGES, np.full(6, np.nan), "open interval"),
    ],
    ids=["endpoint-n", "negative", "float", "bool", "uint64", "E-by-1-edges",
         "E-by-1-weights", "short-weights", "nan-weights"],
)
def test_dual_laplacian_refuses_malformed_input(n, edges, weights, message):
    with pytest.raises(cf.DomainError, match=message):
        cf.DualLaplacian(n, edges, weights)


def test_dual_laplacian_takes_any_index_dtype_that_fits():
    ref = cf.DualLaplacian(4, TETRA_EDGES, np.ones(6))
    for edges in (TETRA_EDGES.astype(np.int32), TETRA_EDGES.astype(np.uint32),
                  TETRA_EDGES.tolist()):
        lap = cf.DualLaplacian(4, edges, np.ones(6))
        assert np.array_equal(lap.matrix, ref.matrix)


def _eigh_oracle(lap):
    """lambda1 by scipy's subset ``eigh`` of ``L + (c/N) 11^T``, with ``c``
    twice the Gershgorin bound ``2 max diag``."""
    import scipy.linalg

    lift = 4.0 * float(lap.matrix.diagonal().max()) / lap.n
    return float(
        scipy.linalg.eigh(lap.matrix + lift, subset_by_index=[0, 0], eigvals_only=True)[0]
    )


def test_dense_lambda1_matches_the_eigh_oracle():
    # N from 4 to 258, and the symmetric octahedron, whose lambda1 is
    # threefold (4 / sqrt(3) from a plain graph Laplacian argument)
    octa = mesh("octahedron")
    meshes = [mesh(name) for name in MESH_NAMES] + [
        subdivide(octa), subdivide(subdivide(octa)),
        subdivide(subdivide(subdivide(octa))), subdivide(mesh("icosahedron")),
    ]
    rng = np.random.default_rng(19)
    for t in meshes:
        assert t.n_vertices <= laplacian.DENSE_LIMIT
        for _ in range(3):
            lap = cf.assemble(t, random_weight(rng, t), random_metric(rng, t))
            assert lap.lambda1() == pytest.approx(_eigh_oracle(lap), rel=1e-12)
    lap = cf.assemble(octa, zero_weight(octa), cf.PackingMetric.from_radii(np.ones(6)))
    spectrum = np.linalg.eigvalsh(lap.matrix)
    assert np.allclose(spectrum[1:4], spectrum[1], rtol=1e-14, atol=0)
    assert spectrum[4] > 1.1 * spectrum[1]
    assert lap.lambda1() == pytest.approx(_eigh_oracle(lap), rel=1e-12)


# a value above lambda1 leaves M - (lam - d) I indefinite; one below leaves
# M - (lam + d) I definite
_WRONG_EIGENVALUES = {
    "lambda2": lambda vals: vals[1],
    "lambda1-high": lambda vals: vals[0] * (1.0 + 1e-6),
    "lambda1-low": lambda vals: vals[0] * (1.0 - 1e-6),
}


@pytest.mark.parametrize("wrong", sorted(_WRONG_EIGENVALUES))
def test_inertia_certificate_refuses_a_wrong_eigenvalue(
    capsys, tmp_path, monkeypatch, wrong
):
    # distinct weights make lambda1 simple, so lambda2 is wrong too
    t = mesh("octahedron")
    rng = np.random.default_rng(20)
    phi = rng.uniform(0.0, np.pi / 2, t.n_edges)
    pick = _WRONG_EIGENVALUES[wrong]
    eigvalsh = laplacian.eigvalsh
    monkeypatch.setattr(laplacian, "eigvalsh", lambda a: [pick(eigvalsh(a))])
    lap = cf.assemble(t, cf.Weight(phi), random_metric(rng, t))
    with pytest.raises(cf.InternalConsistencyError, match="inertia certificate"):
        lap.lambda1()
    path = tmp_path / "w.phi"
    path.write_text("".join(f"{a} {b} {v:.17g}\n" for (a, b), v in zip(t.edges, phi)))
    code = cli.main(["potential-probe", "--mesh", "octahedron", "--phi", str(path)])
    out = capsys.readouterr()
    assert code == cli.EXIT_INTERNAL and out.out == ""
    assert "inertia certificate" in out.err and out.err.count("\n") == 1


def _run_fresh(script):
    src = os.path.dirname(os.path.dirname(cf.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )


_COLD_START = """
import sys
import numpy as np
import calabiflow as cf
import calabiflow.cli
from calabiflow.meshes import subdivide
t = subdivide(subdivide(cf.parse_mesh(cf.mesh_text("octahedron"))))
assert t.n_vertices == 66
w = cf.Weight(np.zeros(t.n_edges))
m = cf.PackingMetric.from_radii(np.linspace(0.5, 2.0, 66))
trace = cf.integrate(cf.FlowKind.calabi(), t, w, m, cf.IntegratorOptions(max_steps=20))
target = np.full(66, 4.0 * np.pi / 66)
assert cf.check_admissible(t, w, target).admissible
lam = trace.samples[-1].lambda1
assert np.isfinite(lam) and lam > 0.0
assert "scipy" not in sys.modules
"""


def test_cold_start_does_not_load_scipy():
    # a flow, an admissibility check and a spectrum at N <= DENSE_LIMIT
    # need numpy alone
    proc = _run_fresh(_COLD_START)
    assert proc.returncode == 0, proc.stderr


_NUMPY_ALONE = {
    "potential-probe": """
from calabiflow import cli
assert cli.main(["potential-probe", "--mesh", "octahedron"]) == 0
""",
    "flow-out": """
import tempfile
from calabiflow import cli
with tempfile.TemporaryDirectory() as out:
    assert cli.main(["flow", "--mesh", "icosahedron", "--out", out]) == 0
""",
    "sparse-check": """
import numpy as np
import calabiflow as cf
from calabiflow.meshes import subdivide
t = cf.parse_mesh(cf.mesh_text("octahedron"))
for _ in range(4):
    t = subdivide(t)
assert t.n_vertices == 1026
target = np.full(t.n_vertices, 4.0 * np.pi / t.n_vertices)
assert cf.check_admissible(t, cf.Weight(np.zeros(t.n_edges)), target).admissible
""",
}


@pytest.mark.parametrize("case", sorted(_NUMPY_ALONE))
def test_fresh_process_runs_without_scipy(case):
    # only the sparse lambda1 and the CSR matrix above DENSE_LIMIT load scipy
    script = _NUMPY_ALONE[case] + '\nimport sys\nassert "scipy" not in sys.modules\n'
    proc = _run_fresh(script)
    assert proc.returncode == 0, proc.stderr
