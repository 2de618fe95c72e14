"""Command line front end.

Commands: ``validate``, ``curvature``, ``flow``, ``check``,
``potential-probe``.  Options may come from flags or from a ``key=value``
config file (``--config``); flags win.  All floating point output is
printed with 17 significant digits so identical runs produce
byte-identical CSV/JSON, and the RNG seed is recorded in every output.

Exit codes: 0 converged/valid, 1 input error, 2 diverged/inadmissible,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
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
    QuadratureError,
    StepCollapseError,
)
from .flows import KIND_NAMES, FlowKind, FlowTrace, IntegratorOptions, integrate
from .geometry import PackingMetric, Weight, compute_geometry
from .laplacian import assemble
from .mesh import Triangulation, parse_mesh, resolve_target
from .meshes import mesh_text, names as builtin_names
from .potential import (
    constant_curvature_log_metric,
    restricted_hessian_check,
    ricci_potential,
)
from .thurston import check_admissible, enumerate_rows

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NOT_CONVERGED = 2
EXIT_INTERNAL = 3

TRACE_HEADER = "t,step,energy,max_curv_dev,lambda1,prod_r"


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


def _load_mesh(spec: str) -> Triangulation:
    if spec is None:
        raise DomainError("--mesh is required")
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            return parse_mesh(fh.read())
    if spec in builtin_names():
        return parse_mesh(mesh_text(spec))
    raise DomainError(
        f"mesh {spec!r} is neither a file nor one of {', '.join(builtin_names())}"
    )


def _data_lines(path: str) -> list[tuple[int, str, str]]:
    """``(lineno, raw, line)`` for each line of the file ``path`` that is not
    blank once its ``#`` comment is cut; ``line`` is the stripped rest."""
    with open(path, encoding="utf-8") as fh:
        rows = [(n, raw, raw.split("#", 1)[0].strip()) for n, raw in enumerate(fh, 1)]
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


def _load_radii(spec: str | None, t: Triangulation, seed: int) -> PackingMetric:
    if spec is None or spec == "random":
        rng = np.random.default_rng(seed)
        return PackingMetric.from_radii(rng.uniform(0.5, 2.0, t.n_vertices))
    if os.path.exists(spec):
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
        return PackingMetric.from_radii(np.array(values))
    try:
        value = float(spec)
    except ValueError:
        raise DomainError(
            f"radii spec {spec!r} is not a file, a number, or 'random'"
        )
    if value <= 0:
        raise DomainError("radii must be positive")
    return PackingMetric.from_radii(np.full(t.n_vertices, value))


def _load_target(spec: str | None, t: Triangulation) -> np.ndarray | None:
    """None means 'use the average curvature'."""
    if spec is None or spec == "kav":
        return None
    try:
        if os.path.exists(spec):
            values = [float(line) for _, _, line in _data_lines(spec)]
        elif "," in spec:
            values = [float(x) for x in spec.split(",")]
        else:
            values = [float(spec)] * t.n_vertices
    except ValueError:
        raise DomainError(
            f"target {spec!r} is neither a file, a comma list, nor a number"
        ) from None
    if len(values) != t.n_vertices:
        raise DomainError(
            f"target has {len(values)} entries for {t.n_vertices} vertices"
        )
    return np.array(values)


def _resolve_kind(name: str, target: np.ndarray | None, t: Triangulation) -> FlowKind:
    if name not in KIND_NAMES:
        raise DomainError(f"unknown flow kind {name!r}; expected one of {KIND_NAMES}")
    if name == "calabi":
        return FlowKind.calabi()
    if name == "ricci_normalized":
        return FlowKind.ricci_normalized()
    if target is None:
        raise DomainError(f"flow kind {name!r} requires --target")
    if name == "calabi_prescribed":
        return FlowKind.calabi_prescribed(target)
    return FlowKind.ricci_prescribed(target)


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
    m = _load_radii(args.radii, t, args.seed)
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
        lap = assemble(t, w, m, route=args.route)
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
    kind = _resolve_kind(args.kind, target, t)
    given = {
        "initial_step": args.initial_step,
        "max_steps": args.max_steps,
        "curvature_tol": args.tol,
        "u_max": args.u_max,
        "max_step": args.max_step,
    }
    # an option left unset keeps the IntegratorOptions default
    opts = IntegratorOptions(**{k: v for k, v in given.items() if v is not None})
    ricci_twin = {
        "calabi": FlowKind.ricci_normalized,
        "calabi_prescribed": lambda: FlowKind.ricci_prescribed(target),
        "ricci_normalized": FlowKind.ricci_normalized,
        "ricci_prescribed": lambda: FlowKind.ricci_prescribed(target),
    }
    if args.starts < 1:
        raise DomainError("--starts must be at least 1")
    worst = EXIT_OK
    for start in range(args.starts):
        seed = args.seed + start
        m = _load_radii(args.radii, t, seed)
        suffix = f"_{start}" if args.starts > 1 else ""
        summary, code = _run_one(kind, t, w, m, opts, seed, args, suffix)
        if args.starts > 1:
            summary = {"start": start, **summary}
        print(_json(summary))
        worst = max(worst, code)
        if args.compare_ricci:
            twin = ricci_twin[kind.name]()
            summary2, code2 = _run_one(
                twin, t, w, m, opts, seed, args, suffix + "_ricci"
            )
            if args.starts > 1:
                summary2 = {"start": start, **summary2}
            print(_json(summary2))
            worst = max(worst, code2)
    return worst


def cmd_check(args) -> int:
    t = _load_mesh(args.mesh)
    w = _load_phi(args.phi, t)
    target = resolve_target(t, _load_target(args.target, t))
    report = check_admissible(t, w, target, force=args.force)
    payload = {"seed": args.seed, **report.as_dict()}
    text = _json(payload)
    print(text)
    _write(args.out, "check.json", text + "\n")
    if args.dump_subsets:
        rows = enumerate_rows(t, w, target)
        lines = ["subset,lhs,rhs"]
        lines += [
            f"{' '.join(str(v) for v in members)},{_fmt(lhs)},{_fmt(rhs)}"
            for members, lhs, rhs in rows
        ]
        _write(args.out, "subsets.csv", "\n".join(lines) + "\n")
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
    t = _load_mesh(args.mesh)
    w = _load_phi(args.phi, t)
    seed_metric = _load_radii(args.radii, t, args.seed)
    base = constant_curvature_log_metric(t, w, seed_metric)
    lam = restricted_hessian_check(t, w, base)
    rng = np.random.default_rng(args.seed)
    dirs = []
    while len(dirs) < args.rays:
        d = rng.standard_normal(t.n_vertices)
        d -= d.mean()
        norm = float(np.linalg.norm(d))
        if norm > 1e-6:
            dirs.append(d / norm)
    rows = []
    ok = lam > 0.0
    for idx, d in enumerate(dirs):
        prev = 0.0
        for s in radii:
            val = ricci_potential(t, w, base.u, base.u + s * d)
            rows.append({"direction": idx, "radius": s, "f": val})
            if val < -1e-9 or val < prev - 1e-9:
                ok = False
            prev = val
    far = base.u + radii[-1] * dirs[0]
    mid = base.u + 0.5 * radii[-1] * dirs[min(1, len(dirs) - 1)]
    direct = ricci_potential(t, w, base.u, far)
    via = ricci_potential(t, w, base.u, mid) + ricci_potential(t, w, mid, far)
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


def _add_shared(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mesh", help="mesh file, or a bundled name")
    p.add_argument("--phi", help="edge weight: scalar, or file of 'a b phi' lines")
    p.add_argument(
        "--radii",
        help="initial radii: scalar, file of N lines, or 'random' (default)",
    )
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")
    p.add_argument("--out", help="directory for CSV/JSON outputs")
    p.add_argument(
        "--tol",
        type=float,
        help=f"curvature tolerance (default {IntegratorOptions.curvature_tol:g})",
    )
    p.add_argument(
        "--max-steps",
        type=int,
        help=f"accepted-step limit (default {IntegratorOptions.max_steps})",
    )
    p.add_argument("--kind", help=f"flow kind: one of {', '.join(KIND_NAMES)}")
    p.add_argument("--target", help="target curvature: 'kav', scalar, list, or file")
    p.add_argument(
        "--dump-laplacian", action="store_true", help="write L as 'i j value' lines"
    )
    p.add_argument(
        "--compare-ricci",
        action="store_true",
        help="also integrate the matching Ricci flow and emit its trace",
    )
    p.add_argument("--config", help="key=value file; explicit flags win")


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are input errors: argparse's own
    ``error()`` prints the usage and exits 2, which this CLI reserves for
    a meaningful negative result."""

    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="calabiflow",
        description="circle packing metrics with prescribed combinatorial "
        "curvature via Calabi/Ricci flows",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a mesh and print its invariants")
    _add_shared(p)

    p = sub.add_parser("curvature", help="curvatures and energy of one metric")
    _add_shared(p)
    p.add_argument("--route", default="analytic", choices=["analytic", "dual"])

    p = sub.add_parser("flow", help="integrate a curvature flow")
    _add_shared(p)
    p.add_argument("--starts", type=int, help="number of seeded random starts")
    p.add_argument(
        "--initial-step",
        type=float,
        help=f"first Euler step (default {IntegratorOptions.initial_step:g})",
    )
    p.add_argument("--max-step", type=float, help="step regrowth cap")
    p.add_argument("--u-max", type=float, help="divergence guard on |u - u(0)|")

    p = sub.add_parser("check", help="Thurston admissibility of a target")
    _add_shared(p)
    p.add_argument("--force", action="store_true", help="skip the N > 24 size guard")
    p.add_argument(
        "--dump-subsets", action="store_true", help="write per-subset LHS/RHS CSV"
    )

    p = sub.add_parser(
        "potential-probe", help="convexity/properness probes of the Ricci potential"
    )
    _add_shared(p)
    p.add_argument("--rays", type=int, help="number of probe directions (default 8)")
    p.add_argument("--probe-radii", help="comma list of ray radii (default 1,2,4,8)")

    return parser


# flow settings left unset take their defaults from IntegratorOptions
_DEFAULTS = {
    "seed": 0,
    "kind": "calabi",
    "starts": 1,
    "rays": 8,
    "probe_radii": "1,2,4,8",
}

_CONFIG_PARSERS = {
    "seed": int,
    "max_steps": int,
    "starts": int,
    "rays": int,
    "tol": float,
    "initial_step": float,
    "max_step": float,
    "u_max": float,
    "dump_laplacian": lambda v: v.lower() in ("1", "true", "yes"),
    "dump_subsets": lambda v: v.lower() in ("1", "true", "yes"),
    "compare_ricci": lambda v: v.lower() in ("1", "true", "yes"),
    "force": lambda v: v.lower() in ("1", "true", "yes"),
}


def _apply_config(args: argparse.Namespace) -> None:
    """Fill unset options from the config file, then from defaults."""
    if getattr(args, "config", None):
        for lineno, raw, line in _data_lines(args.config):
            if "=" not in line:
                raise DomainError(
                    f"{args.config}:{lineno}: expected key=value, got {raw.strip()!r}"
                )
            key, _, value = line.partition("=")
            key = key.strip().replace("-", "_")
            value = value.strip()
            if not hasattr(args, key):
                raise DomainError(f"{args.config}:{lineno}: unknown key {key!r}")
            current = getattr(args, key)
            if current is None or current is False:
                parse = _CONFIG_PARSERS.get(key, str)
                try:
                    setattr(args, key, parse(value))
                except ValueError:
                    raise DomainError(
                        f"{args.config}:{lineno}: bad value {value!r} for {key!r}"
                    ) from None
    for key, value in _DEFAULTS.items():
        if hasattr(args, key) and getattr(args, key) is None:
            setattr(args, key, value)


COMMANDS = {
    "validate": cmd_validate,
    "curvature": cmd_curvature,
    "flow": cmd_flow,
    "check": cmd_check,
    "potential-probe": cmd_potential_probe,
}


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
        return COMMANDS[args.command](args)
    except (MeshError, DomainError, EnumerationSizeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (InternalConsistencyError, StepCollapseError, QuadratureError) as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
