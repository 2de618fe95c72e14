"""Seeded inputs, ops and result checks for the benchmark's workloads.

An op is one public call that yields one checked answer: one ``integrate``,
one ``check_admissible`` or one in-process ``cli.main(["potential-probe",
...])``.  Each workload is a fixed batch of ops built from the seed alone;
the library receives only the generated meshes and arrays.

The number of ops of each kind in a batch is chosen so that the median and
the tail percentile of op time fall inside one group of ops of like cost.
On the edge between two groups they would jump between runs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import calabiflow as cf
from calabiflow import cli, flows, thurston
from calabiflow.errors import EnumerationSizeError
from calabiflow.mesh import VertexSubset

from bench_kernels import subdivide

# largest |sum u - sum u(0)| a Calabi flow may drift (as in the acceptance suite)
SUM_U_TOL = 1e-9
# margin by which a target built to be inadmissible violates its subset
VIOLATION_MARGIN = 0.5
# largest path-independence residual the CLI's potential-probe accepts
PROBE_RESIDUAL_TOL = 1e-7


def unknown(exc) -> bool:
    """No failure is known: every exception makes the run incorrect."""
    return False


@dataclass
class Op:
    """One timed call, its independent check and its exact counts.

    ``check(result)`` returns None when the result is right, else a reason.
    ``known(exc)`` is true for the failures the op is known to raise today,
    and ``known_result(result)`` names a known failure among the results
    its check rejects; any other failure makes the run incorrect.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], str | None]
    counts: Callable[[object], dict]
    known: Callable[[BaseException], bool] = unknown
    known_result: Callable[[object], str | None] = lambda result: None  # none known


def singular_factor(exc) -> bool:
    """The sparse λ1 shift-invert's ``RuntimeError: Factor is exactly singular``.

    Only a plain ``RuntimeError`` with that message counts: the library's
    own ``RuntimeError`` subclasses (a failed λ1 validation, a collapsed
    step) are unknown failures.
    """
    return type(exc) is RuntimeError and "Factor is exactly singular" in str(exc)


def size_guard(exc) -> bool:
    """``check_admissible`` refusing a mesh above ``SIZE_GUARD``."""
    return type(exc) is EnumerationSizeError


def path_residual(result) -> str | None:
    """``PathResidual`` when a probe failed only its path-independence test.

    That is: exit code 3 and ``"ok": false``, a positive λ1 at the base and
    potential rows that are non-negative and non-decreasing along each ray
    (the CLI's other two tests, redone here), and a residual above the
    CLI's ``PROBE_RESIDUAL_TOL``.  Any other failed probe is unknown.
    """
    code, payload = result
    if code != cli.EXIT_INTERNAL or payload.get("ok") is not False:
        return None
    if not payload.get("lambda1_at_base", 0.0) > 0.0:
        return None
    prev = {}
    for row in payload.get("rows", []):
        val = row["f"]
        if val < -1e-9 or val < prev.get(row["direction"], 0.0) - 1e-9:
            return None
        prev[row["direction"]] = val
    if not payload.get("path_independence_residual", 0.0) > PROBE_RESIDUAL_TOL:
        return None
    return "PathResidual"


@dataclass
class Batch:
    """A workload's ops, its mesh build time, and how its op times are read.

    With ``speed_adjusted``, each op time is scaled to the speed probe's
    nominal speed (see ``run.speed_probe``): right for ops that slow down
    with the host as the probe does.  Without it, each op is read at its
    fastest repeat in the run.
    """

    ops: list[Op]
    mesh_build_s: float
    speed_adjusted: bool


def octahedra(levels: int) -> list[cf.Triangulation]:
    """The octahedron and its first ``levels`` midpoint subdivisions."""
    meshes = [cf.parse_mesh(cf.mesh_text("octahedron"))]
    for _ in range(levels):
        meshes.append(subdivide(meshes[-1]))
    return meshes


def random_weight(rng, t) -> cf.Weight:
    return cf.Weight(rng.uniform(0.0, math.pi / 2, t.n_edges))


def random_metric(rng, t) -> cf.PackingMetric:
    return cf.PackingMetric.from_radii(rng.uniform(0.5, 2.0, t.n_vertices))


def realizable_target(rng, t, w) -> np.ndarray:
    """The curvature of an independent random metric: admissible by construction."""
    return cf.compute_geometry(t, w, random_metric(rng, t)).curvatures


def inadmissible_target(rng, t, w) -> np.ndarray:
    """A Gauss-Bonnet target that violates the inequality of a random subset.

    Curvature is moved out of a random subset of 1 to 3 vertices until its
    inequality fails by ``VIOLATION_MARGIN``, and spread evenly over the
    other vertices, so the sum stays ``2 pi chi``.
    """
    target = realizable_target(rng, t, w)
    size = int(rng.integers(1, 4))
    members = sorted(int(v) for v in rng.choice(t.n_vertices, size, replace=False))
    lhs, rhs = thurston.subset_inequality(t, w, target, VertexSubset.of(t, members))
    shift = lhs - rhs + VIOLATION_MARGIN
    inside = np.zeros(t.n_vertices, dtype=bool)
    inside[members] = True
    target[inside] -= shift / size
    target[~inside] += shift / (t.n_vertices - size)
    return target


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------


def check_flow(t, w, m0, kind, expected_target, opts, budget=None):
    """Check for one ``integrate`` result.

    Converged ops must meet ``max|K - target| < curvature_tol`` on a fresh
    ``compute_geometry``; step-budget ops must stop at exactly the budget;
    Calabi kinds must have non-increasing sample energies and conserve
    ``sum u``.
    """
    sum_u0 = float(m0.u.sum())

    def check(trace):
        if budget is None:
            if trace.status != "converged":
                return f"status {trace.status!r}, expected 'converged'"
            curv = cf.compute_geometry(t, w, trace.final_metric).curvatures
            dev = float(np.max(np.abs(curv - expected_target)))
            if not dev < opts.curvature_tol:
                return f"max|K - target| = {dev!r} >= {opts.curvature_tol!r}"
        elif trace.status != "step_limit" or trace.accepted_steps != budget:
            return (
                f"stopped with {trace.status!r} after {trace.accepted_steps} "
                f"steps, expected the {budget}-step budget"
            )
        if kind.uses_laplacian:
            energies = np.array([s.energy for s in trace.samples])
            if np.any(np.diff(energies) > 0.0):
                return "sample energies increase"
            drift = abs(float(trace.final_metric.u.sum()) - sum_u0)
            if not drift < SUM_U_TOL:
                return f"sum u drifted by {drift!r}"
        return None

    return check


def check_admissible(t, w, target, expect):
    """Check for one ``check_admissible`` report."""

    def check(report):
        if report.verdict != expect:
            return f"verdict {report.verdict!r}, expected {expect!r}"
        if expect == "inadmissible":
            lhs, rhs = thurston.subset_inequality(
                t, w, target, VertexSubset.of(t, report.subset)
            )
            if not lhs <= rhs + thurston.VIOLATION_TOL:
                return f"certificate {report.subset} satisfies its inequality"
        return None

    return check


def check_probe(result):
    """Check for one ``potential-probe`` run: exit code 0 and ``"ok": true``."""
    code, payload = result
    if code != 0:
        return f"exit code {code}"
    if payload.get("ok") is not True:
        return "probe reported ok = false"
    return None


def flow_counts(trace):
    return {"status": trace.status, "steps": trace.accepted_steps,
            "samples": len(trace.samples)}


def admissible_counts(report):
    return {"verdict": report.verdict, "subsets": report.subsets_checked,
            "certificate": list(report.subset) if report.subset else None}


def probe_counts(result):
    code, payload = result
    output = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
    return {"exit": code, "ok": payload.get("ok"), "rows": len(payload.get("rows", [])),
            "output": output[:16]}


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def flow_op(label, t, w, m0, kind, target, opts, budget=None, known=unknown):
    return Op(
        label=f"{kind.name} N={t.n_vertices} {label}",
        call=lambda: flows.integrate(kind, t, w, m0, opts),
        check=check_flow(t, w, m0, kind, target, opts, budget),
        counts=flow_counts,
        known=known,
    )


def flow_start(rng, t):
    """Seeded weight, start metric and realizable prescribed target."""
    w = random_weight(rng, t)
    m0 = random_metric(rng, t)
    return w, m0, realizable_target(rng, t, w)


def kinds_of(names, target):
    """Flow kinds by name, each with the target it flows to."""
    make = {
        "calabi": cf.FlowKind.calabi,
        "ricci_normalized": cf.FlowKind.ricci_normalized,
        "calabi_prescribed": lambda: cf.FlowKind.calabi_prescribed(target),
        "ricci_prescribed": lambda: cf.FlowKind.ricci_prescribed(target),
    }
    return [make[n]() for n in names]


ALL_KINDS = ("calabi", "ricci_normalized", "calabi_prescribed", "ricci_prescribed")
RICCI_KINDS = ("ricci_normalized", "ricci_prescribed")


def flow_small(rng, workdir):
    """Flows to convergence at N=18 and N=66 (default options).

    N=18: all four kinds from 2 starts and the Ricci kinds from 3 more, so
    the median op falls inside the 10 Ricci ops of like cost; N=66:
    ``calabi`` and the Ricci kinds from one start.  A ``calabi_prescribed``
    op at N=66 would cost as much as the batch's largest op; it takes the
    same path as ``calabi``.  The batch is kept short so that it repeats
    several times in a run.  Op times are speed-adjusted: the N=18 ops,
    which hold the median, slow down with the host as the probe does.
    """
    start = time.perf_counter()
    _, t18, t66 = octahedra(2)
    build = time.perf_counter() - start
    opts = cf.IntegratorOptions()
    ops = []
    for i in range(5):
        w, m0, tgt = flow_start(rng, t18)
        names = ALL_KINDS if i < 2 else RICCI_KINDS
        for kind in kinds_of(names, tgt):
            ops.append(flow_op(f"#{i}", t18, w, m0, kind, expected(kind, t18, tgt), opts))
    w, m0, tgt = flow_start(rng, t66)
    for kind in kinds_of(("calabi",) + RICCI_KINDS, tgt):
        ops.append(flow_op("#0", t66, w, m0, kind, expected(kind, t66, tgt), opts))
    return Batch(interleave(ops), build, speed_adjusted=True)


FLOW_LARGE_BUDGET = 10


def flow_large(rng, workdir):
    """Step-budget ops on both sides of the dense/sparse Laplacian switch.

    ``ricci_normalized`` and ``ricci_prescribed`` at N=258 (dense λ1) and
    ``calabi`` and ``ricci_normalized`` at N=1026 (sparse λ1), each for
    ``FLOW_LARGE_BUDGET`` accepted steps from 8 starts.  With one budget
    the two sizes cost about the same per op, so all ops form one group.
    The sparse λ1 raises ``RuntimeError: Factor is exactly singular`` on
    some N=1026 states; many short ops keep the share that fails steady.
    Op times are not speed-adjusted: these ops live in LAPACK and sparse
    factorizations on two BLAS threads, which the host's slow state slows
    by 1.1-1.4x against the probe's 1.6x, so each op is read at its best.
    """
    start = time.perf_counter()
    meshes = octahedra(4)
    build = time.perf_counter() - start
    t258, t1026 = meshes[3], meshes[4]
    opts = cf.IntegratorOptions(max_steps=FLOW_LARGE_BUDGET)
    ops = []
    for i in range(8):
        w, m0, tgt = flow_start(rng, t258)
        for kind in kinds_of(RICCI_KINDS, tgt):
            ops.append(flow_op(f"#{i}", t258, w, m0, kind, None, opts, FLOW_LARGE_BUDGET))
        w, m0, tgt = flow_start(rng, t1026)
        for kind in kinds_of(("calabi", "ricci_normalized"), tgt):
            ops.append(flow_op(f"#{i}", t1026, w, m0, kind, None, opts,
                               FLOW_LARGE_BUDGET, known=singular_factor))
    return Batch(ops, build, speed_adjusted=False)


def admissibility(rng, workdir):
    """``check_admissible`` on realizable and inadmissible targets.

    About half of the 40 targets are realizable: 21 at N=12, each paying
    the full 2^12 - 2 scan, and 1 at N=66.  The other 18 are built
    inadmissible: 9 at N=12, 2 at N=18 and 7 at N=66.  N=66 exceeds
    ``SIZE_GUARD`` and is refused today with ``EnumerationSizeError``.  An
    inadmissible scan stops at its certificate, anywhere from the first
    subsets to the last; with 11 of the 32 successful ops inadmissible, the
    median op lies well inside the full N=12 scans.
    A realizable N=18 target (a 2^18 - 2 scan, about 64 times an N=12
    scan) would be too long to repeat within a run.  Op times are
    speed-adjusted: the scans are interpreted Python and small numpy calls,
    which slow down with the host as the probe does.
    """
    start = time.perf_counter()
    t12 = cf.parse_mesh(cf.mesh_text("icosahedron"))
    _, t18, t66 = octahedra(2)
    build = time.perf_counter() - start
    plan = [(t12, 21, 9), (t18, 0, 2), (t66, 1, 7)]
    ops = []
    for t, n_ok, n_bad in plan:
        known = size_guard if t.n_vertices > thurston.SIZE_GUARD else unknown
        for i in range(n_ok + n_bad):
            w = random_weight(rng, t)
            expect = "admissible" if i < n_ok else "inadmissible"
            make = realizable_target if i < n_ok else inadmissible_target
            target = make(rng, t, w)
            ops.append(Op(
                label=f"{expect} N={t.n_vertices} #{i}",
                call=lambda t=t, w=w, target=target: thurston.check_admissible(t, w, target),
                check=check_admissible(t, w, target, expect),
                counts=admissible_counts,
                known=known,
            ))
    return Batch(interleave(ops), build, speed_adjusted=True)


def potential_probe(rng, workdir):
    """The CLI ``potential-probe`` on builtin meshes and two mesh files.

    Two runs on each builtin mesh and on the N=18 file, which all cost
    about the same, and one on the N=66 file; each run draws its own
    uniform weight and CLI seed.  The batch is kept short so that it
    repeats several times in a run.  The CLI reads ``--phi`` only as
    a scalar here: its file form fails today.  Op times are
    speed-adjusted: the probes slow down with the host as the speed probe
    does.
    """
    start = time.perf_counter()
    _, t18, t66 = octahedra(2)
    build = time.perf_counter() - start
    specs = [(name, 2) for name in ("tetrahedron", "octahedron", "icosahedron", "torus")]
    os.makedirs(workdir, exist_ok=True)
    for t, runs in ((t18, 2), (t66, 1)):
        path = os.path.join(workdir, f"octahedron-{t.n_vertices}.mesh")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"{t.n_vertices} {t.n_faces}\n")
            fh.writelines(f"{a} {b} {c}\n" for a, b, c in t.faces)
        specs.append((path, runs))
    ops = []
    for spec, runs in specs:
        for i in range(runs):
            phi = float(rng.uniform(0.0, math.pi / 2))
            argv = ["potential-probe", "--mesh", spec, "--phi", repr(phi),
                    "--seed", str(int(rng.integers(2**31)))]
            ops.append(Op(
                label=f"potential-probe {os.path.basename(spec)} #{i}",
                call=lambda argv=argv: run_cli(argv),
                check=check_probe,
                counts=probe_counts,
                known_result=path_residual,
            ))
    return Batch(interleave(ops), build, speed_adjusted=True)


def run_cli(argv):
    """``cli.main`` in process; returns (exit code, parsed stdout JSON)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    text = out.getvalue()
    return code, (json.loads(text) if text.strip() else {})


def expected(kind, t, target):
    """The curvature a converged flow of ``kind`` must reach."""
    if kind.target is None:
        return np.full(t.n_vertices, 2.0 * math.pi * t.chi / t.n_vertices)
    return target


def interleave(ops):
    """Spread the ops of each mesh evenly over the batch, largest group first.

    Slow drifts of the machine's speed then hit every group alike.  In each
    workload the largest group holds the cheapest ops, so the batch starts
    with a cheap op that serves as the warm-up.
    """
    groups: dict[str, list[Op]] = {}
    for op in ops:
        groups.setdefault(op.label.split(" ")[1], []).append(op)
    order = sorted(groups.values(), key=len, reverse=True)
    keyed = []
    for g in order:
        for j, op in enumerate(g):
            keyed.append(((j + 0.5) / len(g), op))
    keyed.sort(key=lambda pair: pair[0])
    return [op for _, op in keyed]


WORKLOADS = {
    "flow-small": flow_small,
    "flow-large": flow_large,
    "admissibility": admissibility,
    "potential-probe": potential_probe,
}
