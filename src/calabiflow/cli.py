"""Command line front end.

Commands: ``validate``, ``curvature``, ``flow``, ``check``,
``potential-probe``.  Options may come from flags or from a ``key=value``
config file (``--config``); flags win.  All floating point output is
printed with 17 significant digits so identical runs produce
byte-identical CSV/JSON, and the RNG seed is recorded in every output.

Exit codes: 0 converged/valid, 1 input error, 2 diverged/inadmissible (or
no constant-curvature metric), 3 internal invariant violation.

In-process calls of :func:`main` share one parser and the parsed bundled
meshes, each built on first use.  A ``--mesh`` that names an existing file
is read on every call, and wins over a bundled mesh of the same name.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys

import numpy as np

from .errors import (
    DomainError,
    EnumerationSizeError,
    InternalConsistencyError,
    MeshError,
    NoConstantCurvatureMetric,
    QuadratureError,
    StepCollapseError,
)
from .flows import KIND_NAMES, FlowKind, FlowTrace, IntegratorOptions, integrate
from . import _kernels
from .geometry import PackingMetric, Weight, _mesh_arrays, compute_geometry
from .laplacian import assemble
from .mesh import Triangulation, parse_mesh, resolve_target
from .meshes import mesh_text, names as builtin_names
from .potential import _probe_guard, constant_curvature_log_metric, ricci_potential
from .thurston import check_admissible, enumerate_rows

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_INTERNAL = 3

TRACE_HEADER = "t,step,energy,max_curv_dev,lambda1,prod_r"

# potential-probe holds N log radii per (ray, radius) endpoint, in a few
# copies; a probe past this many entries (32 MB a copy) is refused
PROBE_ENTRIES_MAX = 2**22


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json(obj) -> str:
    """Serialize with floats at 17 significant digits (deterministic)."""
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not math.isfinite(v):
            raise InternalConsistencyError("non-finite value in output")
        return _fmt(v)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json(x) for x in obj) + "]"
    if isinstance(obj, dict):
        return "{" + ", ".join(
            f"{json.dumps(str(k))}: {_json(v)}" for k, v in obj.items()
        ) + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _read_text(path: str) -> str:
    """The file ``path`` as text; a file that is not UTF-8 is an input error."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise DomainError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


@functools.cache
def _builtin_mesh(name: str) -> Triangulation:
    """The bundled mesh ``name``, parsed once per process; a triangulation
    is read-only, so calls share it."""
    return parse_mesh(mesh_text(name))


def _load_mesh(spec: str) -> Triangulation:
    if spec is None:
        raise DomainError("--mesh is required")
    if os.path.exists(spec):
        return parse_mesh(_read_text(spec))
    if spec in builtin_names():
        return _builtin_mesh(spec)
    raise DomainError(
        f"mesh {spec!r} is neither a file nor one of {', '.join(builtin_names())}"
    )


def _data_lines(path: str) -> list[tuple[int, str, str]]:
    """``(lineno, raw, line)`` for each line of the file ``path`` that is not
    blank once its ``#`` comment is cut; ``line`` is the stripped rest."""
    lines = enumerate(_read_text(path).split("\n"), 1)
    rows = [(n, raw, raw.split("#", 1)[0].strip()) for n, raw in lines]
    return [row for row in rows if row[2]]


def _load_phi(spec: str | None, t: Triangulation) -> Weight:
    if spec is None:
        return Weight.uniform(t, 0.0)
    if os.path.exists(spec):
        pairs = {}
        for lineno, raw, line in _data_lines(spec):
            try:
                a, b, value = line.split()
                a, b, value = int(a), int(b), float(value)
            except ValueError:
                raise DomainError(
                    f"{spec}:{lineno}: expected 'a b phi', got {raw.strip()!r}"
                ) from None
            key = (min(a, b), max(a, b))
            if key in pairs:
                raise DomainError(
                    f"{spec}:{lineno}: edge {key} assigned a weight twice"
                )
            pairs[key] = value
        return Weight.from_edge_map(t, pairs)
    try:
        value = float(spec)
    except ValueError:
        raise DomainError(f"weight spec {spec!r} is neither a file nor a number")
    return Weight.uniform(t, value)


def _load_radii(spec: str | None, t: Triangulation, w: Weight, seed: int) -> PackingMetric:
    if spec is None or spec == "random":
        rng = np.random.default_rng(seed)
        m = PackingMetric.from_radii(rng.uniform(0.5, 2.0, t.n_vertices))
    elif os.path.exists(spec):
        values = []
        for lineno, raw, line in _data_lines(spec):
            try:
                values.append(float(line))
            except ValueError:
                raise DomainError(
                    f"{spec}:{lineno}: expected one radius, got {raw.strip()!r}"
                )
        if len(values) != t.n_vertices:
            raise DomainError(
                f"{spec}: {len(values)} radii for {t.n_vertices} vertices"
            )
        m = PackingMetric.from_radii(np.array(values))
    else:
        try:
            value = float(spec)
        except ValueError:
            raise DomainError(
                f"radii spec {spec!r} is not a file, a number, or 'random'"
            )
        if value <= 0:
            raise DomainError("radii must be positive")
        m = PackingMetric.from_radii(np.full(t.n_vertices, value))
    # radii near the ends of the float range overflow or underflow the
    # cosine law (1e300, 1e-320); such a start is refused, not run
    if _kernels.state(m.r, _mesh_arrays(t, w)).err != _kernels.ERR_OK:
        raise DomainError(
            f"--radii {spec!r}: the geometry does not evaluate in floating point"
        )
    return m


def _load_target(spec: str | None, t: Triangulation) -> np.ndarray | None:
    """None means 'use the average curvature'."""
    if spec is None or spec == "kav":
        return None
    if os.path.exists(spec):
        tokens = [line for _, _, line in _data_lines(spec)]
    else:
        tokens = spec.split(",") if "," in spec else [spec] * t.n_vertices
    try:
        values = [float(x) for x in tokens]
    except ValueError:
        raise DomainError(
            f"target {spec!r} is neither a file, a comma list, nor a number"
        ) from None
    return resolve_target(t, values)


def _resolve_kind(name: str, target: np.ndarray | None) -> FlowKind:
    if name not in KIND_NAMES:
        raise DomainError(f"unknown flow kind {name!r}; expected one of {KIND_NAMES}")
    if not name.endswith("_prescribed"):
        return getattr(FlowKind, name)()
    if target is None:
        raise DomainError(f"flow kind {name!r} requires --target")
    return getattr(FlowKind, name)(target)


def _write(out_dir: str | None, name: str, text: str) -> None:
    if out_dir is None:
        return
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _trace_csv(trace: FlowTrace) -> str:
    lines = [TRACE_HEADER]
    for s in trace.samples:
        dev = float(np.max(np.abs(s.curvatures - trace.target)))
        prod_r = math.exp(float(np.sum(s.u)))
        lines.append(
            ",".join(
                _fmt(v)
                for v in (s.t, s.step_size, s.energy, dev, s.lambda1, prod_r)
            )
        )
    return "\n".join(lines) + "\n"


def _trace_summary(trace: FlowTrace, seed: int) -> dict:
    final = trace.final_metric
    last = trace.samples[-1]
    return {
        "status": trace.status,
        "kind": trace.kind_name,
        "seed": seed,
        "accepted_steps": trace.accepted_steps,
        "t_final": trace.t_final,
        "energy": last.energy,
        "max_curv_dev": trace.max_curvature_deviation(),
        "u": final.u,
        "r": final.r,
        "curvatures": last.curvatures,
    }


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    t = _load_mesh(args.mesh)
    print(f"N={t.n_vertices} E={t.n_edges} F={t.n_faces} chi={t.chi}")
    counts = {}
    for d in t.degrees:
        counts[int(d)] = counts.get(int(d), 0) + 1
    hist = " ".join(f"{d}:{counts[d]}" for d in sorted(counts))
    print(f"degrees: {hist}")
    return EXIT_OK


def cmd_curvature(args) -> int:
    t = _load_mesh(args.mesh)
    w = _load_phi(args.phi, t)
    m = _load_radii(args.radii, t, w, args.seed)
    geo = compute_geometry(t, w, m)
    dev = geo.curvatures - geo.avg_curvature
    report = {
        "seed": args.seed,
        "n": t.n_vertices,
        "chi": t.chi,
        "curvatures": geo.curvatures,
        "calabi_energy": float(np.sum(dev * dev)),
        "gauss_bonnet_residual": geo.gauss_bonnet_residual(),
    }
    text = _json(report)
    print(text)
    _write(args.out, "curvature.json", text + "\n")
    if args.dump_laplacian:
        lap = assemble(t, w, m)
        dump = "\n".join(lap.coordinate_lines()) + "\n"
        _write(args.out, "laplacian.txt", dump)
        if args.out is None:
            sys.stdout.write(dump)
    return EXIT_OK


def _run_one(kind, t, w, m, opts, seed, args, suffix="") -> tuple[dict, int]:
    trace = integrate(kind, t, w, m, opts)
    summary = _trace_summary(trace, seed)
    if args.out is not None:
        # the trace reads every sample's lambda1, one eigen-solve each
        _write(args.out, f"trace{suffix}.csv", _trace_csv(trace))
        _write(args.out, f"result{suffix}.json", _json(summary) + "\n")
    code = EXIT_OK if trace.status == "converged" else EXIT_NOT_CONVERGED
    return summary, code


def cmd_flow(args) -> int:
    t = _load_mesh(args.mesh)
    w = _load_phi(args.phi, t)
    target = _load_target(args.target, t)
    kind = _resolve_kind(args.kind, target)
    opts = IntegratorOptions(
        initial_step=args.initial_step,
        max_steps=args.max_steps,
        curvature_tol=args.tol,
        u_max=args.u_max,
        max_step=args.max_step,
    )
    if args.starts < 1:
        raise DomainError("--starts must be at least 1")
    runs = [(kind, "")]
    if args.compare_ricci:
        # the Ricci flow toward the same target
        twin = "ricci_normalized" if kind.target is None else "ricci_prescribed"
        runs.append((_resolve_kind(twin, kind.target), "_ricci"))
    worst = EXIT_OK
    for start in range(args.starts):
        seed = args.seed + start
        m = _load_radii(args.radii, t, w, seed)
        name = f"_{start}" if args.starts > 1 else ""
        for run_kind, suffix in runs:
            summary, code = _run_one(run_kind, t, w, m, opts, seed, args, name + suffix)
            if args.starts > 1:
                summary = {"start": start, **summary}
            print(_json(summary))
            worst = max(worst, code)
    return worst


def cmd_check(args) -> int:
    t = _load_mesh(args.mesh)
    w = _load_phi(args.phi, t)
    target = resolve_target(t, _load_target(args.target, t))
    # the rows first: a mesh too large to dump is refused before any output
    rows = enumerate_rows(t, w, target) if args.dump_subsets else None
    report = check_admissible(t, w, target, force=args.force)
    payload = {"seed": args.seed, **report.as_dict()}
    text = _json(payload)
    print(text)
    _write(args.out, "check.json", text + "\n")
    if rows is not None:
        lines = ["subset,lhs,rhs"]
        lines += [
            f"{' '.join(str(v) for v in members)},{_fmt(lhs)},{_fmt(rhs)}"
            for members, lhs, rhs in rows
        ]
        dump = "\n".join(lines) + "\n"
        _write(args.out, "subsets.csv", dump)
        if args.out is None:
            sys.stdout.write(dump)
    return EXIT_OK if report.admissible else EXIT_NOT_CONVERGED


def cmd_potential_probe(args) -> int:
    if args.rays < 1:
        raise DomainError("--rays must be at least 1")
    try:
        radii = [float(x) for x in args.probe_radii.split(",")]
    except ValueError:
        raise DomainError(
            f"--probe-radii {args.probe_radii!r} is not a comma list of numbers"
        ) from None
    if not all(s > 0 and math.isfinite(s) for s in radii):
        raise DomainError("--probe-radii must be positive and finite")
    # the monotonicity check walks each ray outwards, and the path check
    # takes the last radius as the far one
    if any(b < a for a, b in zip(radii, radii[1:])):
        raise DomainError(f"--probe-radii {args.probe_radii!r} must not decrease")
    t = _load_mesh(args.mesh)
    entries = args.rays * len(radii) * t.n_vertices
    if entries > PROBE_ENTRIES_MAX:
        raise DomainError(
            f"--rays {args.rays} with {len(radii)} probe radii on {t.n_vertices} "
            f"vertices needs {entries} endpoint entries, more than {PROBE_ENTRIES_MAX}"
        )
    w = _load_phi(args.phi, t)
    seed_metric = _load_radii(args.radii, t, w, args.seed)
    base = constant_curvature_log_metric(t, w, seed_metric)
    lam = assemble(t, w, base).lambda1()
    rng = np.random.default_rng(args.seed)
    dirs = []
    while len(dirs) < args.rays:
        d = rng.standard_normal(t.n_vertices)
        d -= d.mean()
        norm = float(np.linalg.norm(d))
        if norm > 1e-6:
            dirs.append(d / norm)
    # one row per (ray, radius), ray-major
    ends = base.u + np.array(radii)[:, None] * np.array(dirs)[:, None, :]
    # path independence: base -> far directly, and via a point on a second
    # ray; all segments are one batched quadrature
    n = t.n_vertices
    far = ends[0, -1]
    mid = base.u + 0.5 * radii[-1] * dirs[min(1, len(dirs) - 1)]
    u_to = np.vstack([ends.reshape(-1, n), far, mid, far])
    u_from = np.tile(base.u, (len(u_to), 1))
    u_from[-1] = mid
    with _probe_guard(radii[-1]):
        vals = ricci_potential(t, w, u_from, u_to)
    rows = []
    ok = lam > 0.0
    for idx, ray in enumerate(vals[:-3].reshape(len(dirs), len(radii))):
        prev = 0.0
        for s, val in zip(radii, ray.tolist()):
            rows.append({"direction": idx, "radius": s, "f": val})
            if val < -1e-9 or val < prev - 1e-9:
                ok = False
            prev = val
    direct = float(vals[-3])
    via = float(vals[-2]) + float(vals[-1])
    residual = abs(direct - via) / (1.0 + abs(direct))
    if residual > 1e-7:
        ok = False
    payload = {
        "seed": args.seed,
        "lambda1_at_base": lam,
        "base_u": base.u,
        "path_independence_residual": residual,
        "rows": rows,
        "ok": ok,
    }
    text = _json(payload)
    print(text)
    _write(args.out, "potential.json", text + "\n")
    return EXIT_OK if ok else EXIT_INTERNAL


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _switch(value: str) -> bool:
    """The config value of an on/off flag; on the command line the flag is
    on when given."""
    return value.lower() in ("1", "true", "yes")


# every flag of the CLI, with the type that parses its value on the command
# line and in a config file, its default and its help; each command takes
# only the ones it reads
_FLAGS = {
    "--mesh": dict(help="mesh file, or a bundled name"),
    "--phi": dict(help="edge weight: scalar, or file of 'a b phi' lines"),
    "--radii": dict(
        help="initial radii: scalar, file of N lines, or 'random' (default)"
    ),
    "--seed": dict(type=int, default=0, help="RNG seed"),
    "--out": dict(help="directory for CSV/JSON outputs"),
    "--tol": dict(
        type=float, default=IntegratorOptions.curvature_tol, help="curvature tolerance"
    ),
    "--max-steps": dict(
        type=int, default=IntegratorOptions.max_steps, help="accepted-step limit"
    ),
    "--kind": dict(default="calabi", help=f"flow kind: one of {', '.join(KIND_NAMES)}"),
    "--target": dict(help="target curvature: 'kav', scalar, list, or file"),
    "--dump-laplacian": dict(type=_switch, help="write L as 'i j value' lines"),
    "--compare-ricci": dict(
        type=_switch, help="also integrate the matching Ricci flow and emit its trace"
    ),
    "--starts": dict(type=int, default=1, help="number of seeded random starts"),
    "--initial-step": dict(
        type=float, default=IntegratorOptions.initial_step, help="first Euler step"
    ),
    "--max-step": dict(
        type=float, default=IntegratorOptions.max_step, help="step regrowth cap"
    ),
    "--u-max": dict(
        type=float, default=IntegratorOptions.u_max, help="divergence guard on |u - u(0)|"
    ),
    "--force": dict(
        type=_switch, help="above 24 vertices, scan what the solve cannot decide"
    ),
    "--dump-subsets": dict(type=_switch, help="write per-subset LHS/RHS CSV"),
    "--rays": dict(type=int, default=8, help="number of probe directions"),
    "--probe-radii": dict(
        default="1,2,4,8", help="comma list of non-decreasing ray radii"
    ),
    "--config": dict(help="key=value file; explicit flags win"),
}


# each command's function, help line and the flags that function reads;
# every command also takes --config, whose keys are the same flags
COMMANDS = {
    "validate": (cmd_validate, "parse a mesh and print its invariants", "--mesh"),
    "curvature": (
        cmd_curvature,
        "curvatures and energy of one metric",
        "--mesh --phi --radii --seed --out --dump-laplacian",
    ),
    "flow": (
        cmd_flow,
        "integrate a curvature flow",
        "--mesh --phi --radii --seed --out --tol --max-steps --kind --target "
        "--compare-ricci --starts --initial-step --max-step --u-max",
    ),
    "check": (
        cmd_check,
        "Thurston admissibility of a target",
        "--mesh --phi --target --seed --out --force --dump-subsets",
    ),
    "potential-probe": (
        cmd_potential_probe,
        "convexity/properness probes of the Ricci potential",
        "--mesh --phi --radii --seed --out --rays --probe-radii",
    ),
}


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are input errors: argparse's own
    ``error()`` prints the usage and exits 2, which this CLI reserves for
    a meaningful negative result."""

    def error(self, message):
        raise DomainError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process.  Parsing leaves it as it
    was: a usage error raises, ``-h`` exits, and help is formatted when it
    is printed, at the terminal's width then."""
    parser = _Parser(
        prog="calabiflow",
        description="circle packing metrics with prescribed combinatorial "
        "curvature via Calabi/Ricci flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_line, names) in COMMANDS.items():
        p = sub.add_parser(command, help=help_line)
        for name in names.split() + ["--config"]:
            spec = _FLAGS[name]
            text = spec["help"]
            if "default" in spec:
                default = spec["default"]
                shown = format(default, "g") if isinstance(default, float) else default
                text += f" (default {shown})"
            if spec.get("type") is _switch:
                p.add_argument(name, action="store_true", help=text)
            else:
                p.add_argument(name, type=spec.get("type", str), help=text)
    return parser


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset options from the config file, then from their defaults.

    A config key must be one of the flags the command reads, and its value
    is parsed by that flag's type.
    """
    flags = {n[2:].replace("-", "_"): n for n in COMMANDS[args.command][2].split()}
    if args.config:
        for lineno, raw, line in _data_lines(args.config):
            if "=" not in line:
                raise DomainError(
                    f"{args.config}:{lineno}: expected key=value, got {raw.strip()!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if key not in flags:
                raise DomainError(f"{args.config}:{lineno}: unknown key {key!r}")
            # a flag given on the command line wins
            current = getattr(args, key)
            if current is None or current is False:
                try:
                    setattr(args, key, _FLAGS[flags[key]].get("type", str)(value))
                except ValueError:
                    raise DomainError(
                        f"{args.config}:{lineno}: bad value {value!r} for {key!r}"
                    ) from None
    for key, name in flags.items():
        if getattr(args, key) is None:
            setattr(args, key, _FLAGS[name].get("default"))


def _glue_negative_target(argv: list[str]) -> list[str]:
    """``--target -6.28,...`` as ``--target=-6.28,...``: argparse reads a
    value that starts with a minus sign, and is not a single number, as an
    option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--target" and re.match(r"-\.?\d", arg):
            out[-1] = f"--target={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = build_parser().parse_args(_glue_negative_target(argv))
        _apply_config(args)
        if getattr(args, "seed", 0) < 0:
            raise DomainError(f"--seed must be >= 0, got {args.seed}")
        return COMMANDS[args.command][0](args)
    except (MeshError, DomainError, EnumerationSizeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except NoConstantCurvatureMetric as exc:
        print(f"no constant-curvature metric: {exc}", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    except (InternalConsistencyError, StepCollapseError, QuadratureError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
