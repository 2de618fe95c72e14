"""Command line interface: outputs, exit codes, reproducibility."""

import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import calabiflow as cf
from calabiflow import cli, thurston
from calabiflow.cli import main
from calabiflow.meshes import mesh_text, subdivide
from _util import MESH_NAMES, disjoint_text, mesh, stellar_text, zero_weight

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
    assert doc["subsets_checked"] == 0  # the Newton solve decided

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

    # without --out the same CSV follows the JSON line on stdout
    code4, out4, _ = run(capsys, "check", "--mesh", "tetrahedron", "--dump-subsets")
    assert code4 == 0
    head, csv = out4.split("\n", 1)
    assert json.loads(head)["verdict"] == "admissible"
    assert csv == (out_dir / "subsets.csv").read_text()
    assert len(csv.splitlines()) == 15


def test_check_dump_limit_is_checked_before_the_check(capsys, tmp_path):
    # 18 vertices are within the check's guard but past the dump's limit:
    # the command is refused before it prints or writes anything
    path = tmp_path / "octa18.mesh"
    path.write_text(disjoint_text(subdivide(mesh("octahedron"))))
    out_dir = tmp_path / "chk"
    code, out, err = run(
        capsys, "check", "--mesh", str(path), "--dump-subsets", "--out", str(out_dir)
    )
    assert code == 1 and out == ""
    assert err == "error: per-subset dumps are limited to 16 vertices\n"
    assert not out_dir.exists()


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


@pytest.mark.parametrize(
    "spec, phi, seed",
    [
        ("icosahedron", "0.06959289942176623", "1834057403"),
        ("OCT18", "0.9475156294292302", "1673986006"),
    ],
)
def test_potential_probe_path_residual(capsys, tmp_path, spec, phi, seed):
    # a Simpson rule with a Richardson stop left these two probes at path
    # residuals 9.4e-7 and 5.0e-7, above the CLI's 1e-7, so they exited 3
    if spec == "OCT18":
        t = subdivide(mesh("octahedron"))
        path = tmp_path / "octahedron-18.mesh"
        path.write_text(
            f"{t.n_vertices} {t.n_faces}\n"
            + "".join(f"{a} {b} {c}\n" for a, b, c in t.faces)
        )
        spec = str(path)
    code, out, _ = run(
        capsys, "potential-probe", "--mesh", spec, "--phi", phi, "--seed", seed
    )
    doc = json.loads(out)
    assert code == 0 and doc["ok"] is True
    assert doc["path_independence_residual"] < 1e-10


@pytest.mark.parametrize(
    "parts", [("tetrahedron", "octahedron"), ("tetrahedron", "tetrahedron")]
)
def test_potential_probe_disconnected_mesh_exits_1(capsys, tmp_path, parts):
    path = tmp_path / "disjoint.mesh"
    path.write_text(disjoint_text(*(mesh(name) for name in parts)))
    code, out, err = run(capsys, "potential-probe", "--mesh", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_potential_probe_without_constant_curvature_exits_2(capsys, tmp_path):
    path = tmp_path / "stellar.mesh"
    path.write_text(stellar_text(mesh("icosahedron")))
    code, out, err = run(
        capsys, "potential-probe", "--mesh", str(path), "--phi", repr(math.pi / 2)
    )
    assert code == 2 and out == ""
    assert err.startswith("no constant-curvature metric:") and err.count("\n") == 1


def test_potential_probe_unevaluable_radius_exits_1(capsys):
    # at radius 40 the tetrahedron's far endpoints leave the range where the
    # cosine law holds in floating point; radius 20 still evaluates
    code, out, err = run(
        capsys, "potential-probe", "--mesh", "tetrahedron", "--probe-radii", "1,40"
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "radius 40.0" in err
    code, _, _ = run(
        capsys, "potential-probe", "--mesh", "tetrahedron", "--probe-radii", "20"
    )
    assert code == 0


@pytest.mark.parametrize(
    "name, radii, seed",
    [
        ("tetrahedron", "1,24", 0),
        ("tetrahedron", "1,26", 0),
        ("octahedron", "1,28", 3),
        ("icosahedron", "1,32", 3),
    ],
)
def test_potential_probe_too_far_exits_1(capsys, name, radii, seed):
    # the far endpoints evaluate, yet the quadrature fails to converge
    # (tetrahedron 24, icosahedron 32) or the cosine law fails at a node
    # (tetrahedron 26, octahedron 28) on the way out: bad input, not exit 3
    code, out, err = run(
        capsys, "potential-probe", "--mesh", name, "--probe-radii", radii,
        "--seed", str(seed),
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert f"radius {float(radii.split(',')[-1])!r}" in err
    # a range limit of floating point, not a failed guarantee
    assert "floating point" in err and "guaranteed" not in err


@pytest.mark.parametrize("name", MESH_NAMES)
def test_potential_probe_decreasing_radii_exits_1(capsys, name):
    # the rays are walked outwards and the last radius is the far one, so a
    # decreasing list used to fail the probe's own checks and exit 3
    for argv in (("--probe-radii", "8,4"), ("--rays", "3", "--probe-radii", "2,1")):
        code, out, err = run(capsys, "potential-probe", "--mesh", name, *argv)
        assert code == 1 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "--probe-radii" in err
    # equal radii are not decreasing
    code, out, _ = run(
        capsys, "potential-probe", "--mesh", name, "--probe-radii", "1,1"
    )
    assert code == 0 and json.loads(out)["ok"] is True


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
        ("flow", "--mesh", "tetrahedron", "--initial-step", "inf"),
        ("flow", "--mesh", "tetrahedron", "--tol", "inf"),
        ("potential-probe", "--mesh", "tetrahedron", "--probe-radii", "8,4"),
        ("curvature", "--mesh", "tetrahedron", "--seed", "-1"),
        ("flow", "--mesh", "tetrahedron", "--seed", "-1"),
        ("check", "--mesh", "tetrahedron", "--seed", "-1"),
        ("potential-probe", "--mesh", "tetrahedron", "--seed", "-1"),
        ("flow", "--mesh", "tetrahedron", "--config", "NEGATIVE_SEED_CONFIG"),
        ("validate", "--mesh", "HUGE_INDEX_MESH"),
        ("curvature", "--mesh", "SPARSE_MESH"),
    ],
)
def test_input_errors_exit_1(capsys, tmp_path, argv):
    files = {
        "BAD_SEED_CONFIG": "seed = abc\n",
        "NEGATIVE_SEED_CONFIG": "seed = -1\n",
        # a face index past int64, and N > 3 F (a vertex in no face) with N
        # far too large for an array of N entries
        "HUGE_INDEX_MESH": "4 4\n0 1 2\n0 1 3\n0 2 3\n1 2 99999999999999999999\n",
        "SPARSE_MESH": "9223372036854775807 4\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n",
    }
    bad_mesh = any(a.endswith("_MESH") for a in argv)
    for marker, text in files.items():
        if marker in argv:
            path = tmp_path / "bad.txt"
            path.write_text(text)
            argv = tuple(str(path) if a == marker else a for a in argv)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert "error:" in err
    if bad_mesh:
        assert err.startswith("error:") and err.count("\n") == 1


def test_weight_out_of_range_prints_plain_floats(capsys):
    code, out, err = run(capsys, "curvature", "--mesh", "tetrahedron", "--phi", "2")
    assert code == 1 and out == ""
    assert err == "error: weights must lie in [0, pi/2]; got range [2.0, 2.0]\n"


def test_potential_probe_refuses_huge_ray_counts(capsys):
    # refused by the size of the endpoint array before any direction is drawn
    code, out, err = run(
        capsys, "potential-probe", "--mesh", "tetrahedron", "--rays", "100000000000"
    )
    assert code == 1 and out == ""
    assert err == (
        "error: --rays 100000000000 with 4 probe radii on 4 vertices needs "
        f"1600000000000 endpoint entries, more than {cli.PROBE_ENTRIES_MAX}\n"
    )


@pytest.mark.parametrize(
    "argv, named",
    [
        *(
            ((command, "--radii", radii), "--radii")
            for command in ("curvature", "flow", "potential-probe")
            for radii in ("1e300", "1e-320")
        ),
        (("flow", "--kind", "calabi_prescribed", "--target", "1e200"), "target"),
        (("flow", "--kind", "ricci_prescribed", "--target", "1e200"), "target"),
        (("check", "--target", "1e308"), "target"),
    ],
)
def test_out_of_range_input_exit_1(capsys, argv, named):
    # radii that overflow or underflow the cosine law, and a target whose
    # squares overflow, are input errors: no internal fault, no missing
    # packing, no numpy warning
    code, out, err = run(capsys, argv[0], "--mesh", "tetrahedron", *argv[1:])
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert named in err


# (command, flags another command reads); "CONFIG" puts them in a config file
FOREIGN_FLAGS = [
    ("validate", "--kind", "warp"),
    ("validate", "--max-steps", "3"),
    ("curvature", "--target", "1.0"),
    ("curvature", "--rays", "3"),
    ("flow", "--route", "dual"),
    ("flow", "--force"),
    ("check", "--radii", "1.0"),
    ("check", "--compare-ricci"),
    ("potential-probe", "--tol", "1e-3"),
    ("potential-probe", "--starts", "2"),
    ("check", "CONFIG", "tol = 1e-3"),
    ("validate", "CONFIG", "command = flow"),
    ("curvature", "--route", "dual"),
    ("curvature", "CONFIG", "route = dual"),
]


@pytest.mark.parametrize("argv", FOREIGN_FLAGS, ids=" ".join)
def test_command_rejects_foreign_flags(capsys, tmp_path, argv):
    # a flag the command does not read is an input error, not a no-op
    command, *extra = argv
    if extra[0] == "CONFIG":
        cfg = tmp_path / "foreign.cfg"
        cfg.write_text(extra[1] + "\n")
        extra = ["--config", str(cfg)]
    code, out, err = run(capsys, command, "--mesh", "tetrahedron", *extra)
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def _fresh_process(*argv):
    src = os.path.dirname(os.path.dirname(cf.__file__))
    return subprocess.run(
        [sys.executable, "-m", "calabiflow", *argv],
        capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )


def test_overflowing_trials_print_no_warning():
    # trial radii past the float range are rejected without a numpy warning
    proc = _fresh_process(
        "flow", "--mesh", "tetrahedron", "--u-max", "inf", "--initial-step", "1e6"
    )
    assert proc.returncode == 0 and proc.stderr == ""
    assert json.loads(proc.stdout)["status"] == "converged"


def test_repeated_calls_match_a_fresh_process(capsys):
    # in-process calls share the parser and the bundled meshes; an earlier
    # call's options must not reach a later one
    run(capsys, "flow", "--mesh", "tetrahedron", "--kind", "ricci_normalized")
    code, out, err = run(capsys, "flow", "--mesh", "tetrahedron")
    proc = _fresh_process("flow", "--mesh", "tetrahedron")
    assert (code, out, err) == (proc.returncode, proc.stdout, proc.stderr)
    assert code == 0 and out


def test_parser_is_built_once_and_survives_a_usage_error(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, out, err = run(capsys, "validate", "--mesh", "tetrahedron", "--bogus")
    assert code == 1 and out == "" and err.startswith("error:")
    code, out, _ = run(capsys, "validate", "--mesh", "tetrahedron")
    assert code == 0 and out.startswith("N=4 ")


def test_mesh_file_wins_over_a_parsed_bundled_mesh(capsys, tmp_path, monkeypatch):
    code, out, _ = run(capsys, "validate", "--mesh", "tetrahedron")
    assert code == 0 and out.startswith("N=4 ")
    (tmp_path / "tetrahedron").write_text(mesh_text("octahedron"))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "validate", "--mesh", "tetrahedron")
    assert code == 0 and out.startswith("N=6 ")


@pytest.mark.parametrize("argv", [("-h",), ("flow", "-h")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


def test_size_guard_exit_1(capsys, tmp_path, monkeypatch):
    # 66 vertices exceed the subset enumeration guard, which only an
    # undecided Newton solve meets
    big = subdivide(subdivide(mesh("octahedron")))
    path = tmp_path / "big.mesh"
    path.write_text(
        f"{big.n_vertices} {big.n_faces}\n"
        + "".join(f"{a} {b} {c}\n" for a, b, c in big.faces)
    )
    code, out, _ = run(capsys, "check", "--mesh", str(path))
    assert code == 0
    assert json.loads(out)["subsets_checked"] == 0
    monkeypatch.setattr(thurston, "_newton_verdict", lambda t, w, target: None)
    code2, out2, err2 = run(capsys, "check", "--mesh", str(path))
    assert code2 == 1 and out2 == ""
    assert "error:" in err2
    # 12 vertices is within the guard: the scan decides
    code3, out3, _ = run(capsys, "check", "--mesh", "icosahedron")
    assert code3 == 0
    assert json.loads(out3)["subsets_checked"] == 2**12 - 2


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


# each flow flag and the IntegratorOptions field it sets
FLOW_FLAGS = [
    ("--initial-step", "initial_step", 0.005),
    ("--max-steps", "max_steps", 7),
    ("--tol", "curvature_tol", 1e-6),
    ("--u-max", "u_max", 30.0),
    ("--max-step", "max_step", 0.5),
]


@pytest.mark.parametrize("flag,name,value", FLOW_FLAGS, ids=[f[0] for f in FLOW_FLAGS])
def test_flow_flags_are_the_integrator_options(capsys, monkeypatch, flag, name, value):
    # the options hold exactly what the flow flags set
    fields = [f.name for f in dataclasses.fields(cf.IntegratorOptions)]
    assert fields == [n for _, n, _ in FLOW_FLAGS]
    seen = []
    original = cli.integrate
    monkeypatch.setattr(
        cli, "integrate", lambda *a: seen.append(a[4]) or original(*a)
    )
    code, _, _ = run(capsys, "flow", "--mesh", "octahedron", flag, str(value))
    assert code in (0, 2)
    assert seen == [cf.IntegratorOptions(**{name: value})]


@pytest.mark.parametrize(
    "argv",
    [
        ("validate", "--mesh", "FILE"),
        ("curvature", "--mesh", "tetrahedron", "--phi", "FILE"),
        ("curvature", "--mesh", "tetrahedron", "--radii", "FILE"),
        ("flow", "--mesh", "tetrahedron", "--config", "FILE"),
        ("check", "--mesh", "tetrahedron", "--target", "FILE"),
    ],
    ids=["mesh", "phi", "radii", "config", "target"],
)
def test_non_utf8_file_exits_1(capsys, tmp_path, argv):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"\xff\xfe\x00")
    code, out, err = run(capsys, *(str(path) if a == "FILE" else a for a in argv))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert "UTF-8" in err and "neither" not in err
