"""Command line interface: outputs, exit codes, reproducibility."""

import json
import math

import numpy as np
import pytest

import calabiflow as cf
from calabiflow import cli
from calabiflow.cli import main
from calabiflow.meshes import subdivide
from _util import mesh, zero_weight

TWO_PI = 2 * math.pi


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture()
def bad_target_file(tmp_path):
    p = tmp_path / "bad.target"
    p.write_text("".join(f"{v!r}\n" for v in (-TWO_PI, TWO_PI, TWO_PI, TWO_PI)))
    return str(p)


def test_validate_output(capsys):
    code, out, err = run(capsys, "validate", "--mesh", "octahedron")
    assert code == 0
    assert out == "N=6 E=12 F=8 chi=2\ndegrees: 4:6\n"
    code, out, _ = run(capsys, "validate", "--mesh", "torus")
    assert code == 0
    assert out.startswith("N=7 E=21 F=14 chi=0\n")


def test_validate_reads_mesh_file(capsys, tmp_path):
    p = tmp_path / "tet.mesh"
    p.write_text("4 4\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n")
    code, out, _ = run(capsys, "validate", "--mesh", str(p))
    assert code == 0
    assert out.startswith("N=4 E=6 F=4 chi=2\n")


def test_curvature_golden_and_reproducible(capsys):
    args = ("curvature", "--mesh", "tetrahedron", "--radii", "1.0")
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["n"] == 4 and doc["chi"] == 2
    assert doc["curvatures"] == [math.pi] * 4 or np.allclose(doc["curvatures"], math.pi)
    assert abs(doc["gauss_bonnet_residual"]) < 1e-12
    assert doc["calabi_energy"] < 1e-20


def test_curvature_dump_laplacian(capsys, tmp_path):
    out_dir = tmp_path / "lap"
    code, out, _ = run(
        capsys,
        "curvature", "--mesh", "tetrahedron", "--radii", "1.0",
        "--dump-laplacian", "--out", str(out_dir),
    )
    assert code == 0
    lines = (out_dir / "laplacian.txt").read_text().splitlines()
    t = mesh("tetrahedron")
    lap = cf.assemble(t, zero_weight(t), cf.PackingMetric.from_radii(np.ones(4)))
    assert lines == lap.coordinate_lines()


def test_flow_converged_run(capsys, tmp_path):
    out_dir = tmp_path / "run"
    rfile = tmp_path / "r.txt"
    rfile.write_text("2.0\n1.0\n1.0\n1.0\n")
    code, out, _ = run(
        capsys,
        "flow", "--mesh", "tetrahedron", "--radii", str(rfile), "--out", str(out_dir),
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "converged"
    assert doc["accepted_steps"] == 119
    assert doc["max_curv_dev"] < 1e-10
    assert np.prod(doc["r"]) == pytest.approx(2.0, abs=1e-9)
    # artifacts: summary json identical to stdout, csv trace with header
    assert json.loads((out_dir / "result.json").read_text()) == doc
    trace = (out_dir / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,step,energy,max_curv_dev,lambda1,prod_r"
    ts = [float(row.split(",")[0]) for row in trace[1:]]
    assert ts[0] == 0.0 and all(b > a for a, b in zip(ts, ts[1:]))
    es = [float(row.split(",")[2]) for row in trace[1:]]
    assert all(b <= a for a, b in zip(es, es[1:]))
    assert float(trace[-1].split(",")[4]) == pytest.approx(4 / math.sqrt(3), abs=1e-8)


def test_flow_seeded_random_radii(capsys):
    code, out, _ = run(
        capsys, "flow", "--mesh", "octahedron", "--radii", "random", "--seed", "5"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["seed"] == 5
    # the same seed drives the documented generator
    expected0 = float(np.prod(np.random.default_rng(5).uniform(0.5, 2.0, 6)))
    assert np.prod(doc["r"]) == pytest.approx(expected0, rel=1e-8)


def test_flow_divergence_exit_code(capsys, bad_target_file):
    code, out, _ = run(
        capsys,
        "flow", "--mesh", "tetrahedron", "--kind", "calabi_prescribed",
        "--target", bad_target_file, "--u-max", "12",
    )
    assert code == 2
    doc = json.loads(out)
    assert doc["status"] == "diverged"
    assert doc["kind"] == "calabi_prescribed"
    code2, out2, _ = run(
        capsys,
        "flow", "--mesh", "tetrahedron", "--kind", "ricci_prescribed",
        "--target", bad_target_file,
    )
    assert code2 == 2
    assert json.loads(out2)["status"] == "diverged"


def test_flow_step_limit_exit_code(capsys):
    code, out, _ = run(
        capsys,
        "flow", "--mesh", "octahedron", "--radii", "random", "--max-steps", "3",
    )
    assert code == 2
    assert json.loads(out)["status"] == "step_limit"


def test_flow_multi_start_and_ricci_twin(capsys, tmp_path):
    out_dir = tmp_path / "multi"
    code, out, _ = run(
        capsys,
        "flow", "--mesh", "octahedron", "--radii", "random", "--starts", "2",
        "--seed", "3", "--compare-ricci", "--out", str(out_dir),
    )
    assert code == 0
    docs = [json.loads(line) for line in out.splitlines()]
    assert [d["start"] for d in docs] == [0, 0, 1, 1]
    assert [d["kind"] for d in docs] == [
        "calabi", "ricci_normalized", "calabi", "ricci_normalized"
    ]
    for k in range(2):
        calabi, ricci = docs[2 * k], docs[2 * k + 1]
        assert calabi["status"] == ricci["status"] == "converged"
        assert np.allclose(calabi["r"], ricci["r"], rtol=1e-7)
    for name in (
        "result_0.json", "result_0_ricci.json", "trace_0.csv",
        "result_1.json", "result_1_ricci.json", "trace_1.csv",
    ):
        assert (out_dir / name).exists()


def test_check_exit_codes_and_dump(capsys, tmp_path, bad_target_file):
    code, out, _ = run(capsys, "check", "--mesh", "tetrahedron")
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] == "admissible"
    assert doc["subsets_checked"] == 14

    code2, out2, _ = run(
        capsys, "check", "--mesh", "tetrahedron", "--target", bad_target_file
    )
    assert code2 == 2
    doc2 = json.loads(out2)
    assert doc2["verdict"] == "inadmissible" and doc2["subset"] == [0]

    out_dir = tmp_path / "chk"
    code3, _, _ = run(
        capsys, "check", "--mesh", "tetrahedron", "--dump-subsets",
        "--out", str(out_dir),
    )
    assert code3 == 0
    rows = (out_dir / "subsets.csv").read_text().splitlines()
    assert rows[0] == "subset,lhs,rhs"
    assert len(rows) == 15
    t = mesh("tetrahedron")
    from calabiflow.thurston import enumerate_rows

    k_av = np.full(4, math.pi)
    for row, (members, lhs, rhs) in zip(rows[1:], enumerate_rows(t, zero_weight(t), k_av)):
        subset_txt, lhs_txt, rhs_txt = row.rsplit(",", 2)
        assert subset_txt == " ".join(str(v) for v in members)
        assert float(lhs_txt) == pytest.approx(lhs)
        assert float(rhs_txt) == pytest.approx(rhs)


def test_check_reproducible(capsys):
    args = ("check", "--mesh", "octahedron", "--phi", "0.7")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_potential_probe(capsys):
    code, out, _ = run(
        capsys, "potential-probe", "--mesh", "tetrahedron", "--rays", "4",
        "--seed", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["lambda1_at_base"] == pytest.approx(4 / math.sqrt(3), abs=1e-6)
    assert doc["path_independence_residual"] < 1e-7
    assert len(doc["rows"]) == 4 * 4
    for row in doc["rows"]:
        assert row["f"] >= -1e-9


def test_config_file_and_flag_precedence(capsys, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("mesh = octahedron\nseed = 9\nkind = ricci_normalized\n")
    code, out, _ = run(capsys, "flow", "--config", str(cfg), "--radii", "random")
    assert code == 0
    doc = json.loads(out)
    assert (doc["kind"], doc["seed"]) == ("ricci_normalized", 9)
    # an explicit flag beats the config value
    code2, out2, _ = run(
        capsys, "flow", "--config", str(cfg), "--radii", "random", "--seed", "11"
    )
    doc2 = json.loads(out2)
    assert doc2["seed"] == 11


@pytest.mark.parametrize(
    "argv",
    [
        ("curvature", "--mesh", "nosuchmesh"),
        ("curvature", "--mesh", "tetrahedron", "--radii", "-1.0"),
        ("curvature", "--mesh", "tetrahedron", "--phi", "3.0"),
        ("flow", "--mesh", "tetrahedron", "--target", "1.0,2.0"),
        ("flow", "--mesh", "tetrahedron", "--kind", "warp"),
        ("check", "--mesh", "tetrahedron", "--target", "not_a_file.txt"),
        ("potential-probe", "--mesh", "tetrahedron", "--rays", "0"),
        ("potential-probe", "--mesh", "tetrahedron", "--probe-radii", "a"),
        ("flow", "--mesh", "tetrahedron", "--config", "BAD_SEED_CONFIG"),
        ("flow", "--mesh", "tetrahedron", "--starts", "0"),
        ("flow", "--mesh", "tetrahedron", "--max-steps", "abc"),
        ("potential-probe", "--mesh", "tetrahedron", "--rays", "a"),
    ],
)
def test_input_errors_exit_1(capsys, tmp_path, argv):
    if "BAD_SEED_CONFIG" in argv:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("seed = abc\n")
        argv = tuple(str(cfg) if a == "BAD_SEED_CONFIG" else a for a in argv)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "error:" in err


@pytest.mark.parametrize("argv", [("-h",), ("flow", "-h")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_size_guard_exit_1(capsys):
    # 66 vertices exceed the subset enumeration guard
    code, _, err = run(capsys, "check", "--mesh", "icosahedron")
    assert code == 0  # 12 vertices is fine
    big = subdivide(subdivide(mesh("octahedron")))
    lines = [f"{big.n_vertices} {big.n_faces}"]
    lines += [f"{a} {b} {c}" for a, b, c in big.faces]
    import tempfile, os

    with tempfile.NamedTemporaryFile("w", suffix=".mesh", delete=False) as fh:
        fh.write("\n".join(lines) + "\n")
        path = fh.name
    try:
        code2, _, err2 = run(capsys, "check", "--mesh", path)
        assert code2 == 1
        assert "error:" in err2
    finally:
        os.unlink(path)


def _phi_file(tmp_path, rows):
    p = tmp_path / "w.phi"
    p.write_text("# a b phi\n" + "".join(f"{row}\n" for row in rows))
    return str(p)


def test_phi_file_matches_scalar_weight(capsys, tmp_path):
    t = mesh("tetrahedron")
    path = _phi_file(tmp_path, [f"{b} {a} 0.5" for a, b in t.edges])
    code, out, _ = run(capsys, "curvature", "--mesh", "tetrahedron", "--phi", path, "--radii", "random")
    assert code == 0
    code2, out2, _ = run(capsys, "curvature", "--mesh", "tetrahedron", "--phi", "0.5", "--radii", "random")
    assert code2 == 0
    assert out == out2


@pytest.mark.parametrize(
    "rows",
    [
        ["0 1 0.5", "1 0 0.5", "0 2 0.5", "0 3 0.5", "1 2 0.5", "1 3 0.5", "2 3 0.5"],
        ["0 1 0.5", "0 2 0.5", "0 3 abc", "1 2 0.5", "1 3 0.5", "2 3 0.5"],
    ],
    ids=["duplicate-edge", "bad-token"],
)
def test_phi_file_errors_exit_1(capsys, tmp_path, rows):
    path = _phi_file(tmp_path, rows)
    code, out, err = run(capsys, "curvature", "--mesh", "tetrahedron", "--phi", path)
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_flow_without_out_reads_no_lambda1(capsys, monkeypatch):
    # stdout never shows lambda1, so only --out's trace.csv pays for it
    calls = []
    original = cf.DualLaplacian.lambda1
    monkeypatch.setattr(
        cf.DualLaplacian, "lambda1", lambda self: calls.append(1) or original(self)
    )
    code, out, _ = run(capsys, "flow", "--mesh", "octahedron", "--seed", "3")
    assert code == 0 and json.loads(out)["status"] == "converged"
    assert calls == []


NEGATIVE_TETRA_TARGET = ",".join(repr(v) for v in (-TWO_PI, TWO_PI, TWO_PI, TWO_PI))


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "--mesh", "tetrahedron"),
        ("flow", "--mesh", "tetrahedron", "--kind", "ricci_prescribed"),
    ],
)
def test_negative_target_list_as_separate_argument(capsys, argv):
    # "--target -6.28,..." must mean exactly what "--target=-6.28,..." does
    glued = run(capsys, *argv, f"--target={NEGATIVE_TETRA_TARGET}")
    spaced = run(capsys, *argv, "--target", NEGATIVE_TETRA_TARGET)
    assert spaced == glued
    assert glued[0] == 2 and glued[2] == ""


def test_bare_flow_uses_integrator_defaults(capsys, monkeypatch):
    # the CLI keeps no copy of the flow settings' defaults
    seen = []
    original = cli.integrate
    monkeypatch.setattr(
        cli, "integrate", lambda *a: seen.append(a[4]) or original(*a)
    )
    code, _, _ = run(capsys, "flow", "--mesh", "octahedron")
    assert code == 0
    assert seen == [cf.IntegratorOptions()]
