"""Self-test of the benchmark's checks: each must reject a corrupted result.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For every op type, a genuine result on a small mesh must pass its check and
each corrupted copy must fail it.  Exits 1 if any check accepts a corrupted
result or rejects a genuine one.
"""

from __future__ import annotations

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.append(os.path.join(ROOT, "benchmarks"))

import numpy as np  # noqa: E402

import calabiflow as cf  # noqa: E402
import run  # noqa: E402
import workloads as wl  # noqa: E402
from calabiflow import thurston  # noqa: E402
from calabiflow.errors import EnumerationSizeError, StepCollapseError  # noqa: E402


def corrupt_last_sample(trace, **changes):
    samples = list(trace.samples)
    samples[-1] = dataclasses.replace(samples[-1], **changes)
    return dataclasses.replace(trace, samples=samples)


def slack(t, w, target, members):
    lhs, rhs = thurston.subset_inequality(t, w, target, cf.VertexSubset.of(t, members))
    return lhs - rhs - thurston.VIOLATION_TOL


def cases():
    """(name, check, genuine result, {corruption: corrupted result})."""
    rng = np.random.default_rng(0)
    octa = cf.parse_mesh(cf.mesh_text("octahedron"))
    w, m0, tgt = wl.flow_start(rng, octa)
    opts = cf.IntegratorOptions()
    out = []

    kind = cf.FlowKind.ricci_prescribed(tgt)
    trace = cf.integrate(kind, octa, w, m0, opts)
    moved = cf.PackingMetric.from_log_radii(trace.final_metric.u + 1e-3 * np.arange(octa.n_vertices))
    out.append(("converged ricci flow", wl.check_flow(octa, w, m0, kind, tgt, opts), trace, {
        "status": dataclasses.replace(trace, status="step_limit"),
        "final metric off target": dataclasses.replace(trace, final_metric=moved),
    }))

    kind = cf.FlowKind.calabi()
    k_av = wl.expected(kind, octa, None)
    trace = cf.integrate(kind, octa, w, m0, opts)
    shifted = cf.PackingMetric.from_log_radii(trace.final_metric.u + 1e-6)
    out.append(("converged calabi flow", wl.check_flow(octa, w, m0, kind, k_av, opts), trace, {
        "energy rises": corrupt_last_sample(trace, energy=trace.samples[0].energy * 2),
        "sum u not conserved": dataclasses.replace(trace, final_metric=shifted),
    }))

    budget = 5
    short = cf.IntegratorOptions(max_steps=budget)
    trace = cf.integrate(kind, octa, w, m0, short)
    out.append(("step-budget calabi flow",
                wl.check_flow(octa, w, m0, kind, None, short, budget), trace, {
        "stops early": dataclasses.replace(trace, accepted_steps=budget - 1),
        "converged": dataclasses.replace(trace, status="converged"),
    }))

    ico = cf.parse_mesh(cf.mesh_text("icosahedron"))
    w = wl.random_weight(rng, ico)
    good = wl.realizable_target(rng, ico, w)
    report = thurston.check_admissible(ico, w, good)
    out.append(("realizable target", wl.check_admissible(ico, w, good, "admissible"), report, {
        "verdict": dataclasses.replace(report, verdict="inadmissible"),
    }))

    bad = wl.inadmissible_target(rng, ico, w)
    report = thurston.check_admissible(ico, w, bad)
    satisfied = next((v,) for v in range(ico.n_vertices) if slack(ico, w, bad, (v,)) > 0)
    out.append(("inadmissible target",
                wl.check_admissible(ico, w, bad, "inadmissible"), report, {
        "verdict": dataclasses.replace(report, verdict="admissible"),
        "certificate not violated": dataclasses.replace(report, subset=satisfied),
    }))

    result = wl.run_cli(["potential-probe", "--mesh", "tetrahedron", "--seed", "1"])
    code, payload = result
    out.append(("potential-probe", wl.check_probe, result, {
        "exit code": (3, payload),
        "ok false": (code, {**payload, "ok": False}),
    }))
    return out


def run_pass_flags_failures():
    """An op failing its check, or raising an unknown failure, is not known.

    Known failures are matched exactly: a ``RuntimeError`` subclass of the
    library, or a ``RuntimeError`` with another message, is unknown.
    """
    singular = "Factor is exactly singular"
    ops = [
        wl.Op("check fails", lambda: 1, lambda r: "wrong", lambda r: {}),
        wl.Op("unknown raise", lambda: 1 / 0, lambda r: None, lambda r: {}),
        wl.Op("singular factor", raiser(RuntimeError(singular)), lambda r: None,
              lambda r: {}, known=wl.singular_factor),
        wl.Op("other RuntimeError", raiser(RuntimeError("other")), lambda r: None,
              lambda r: {}, known=wl.singular_factor),
        wl.Op("library subclass", raiser(StepCollapseError(singular)), lambda r: None,
              lambda r: {}, known=wl.singular_factor),
        wl.Op("size guard", raiser(EnumerationSizeError("N=66")), lambda r: None,
              lambda r: {}, known=wl.size_guard),
    ]
    records = run.run_pass(ops, None, 0)["records"]
    return [r["known"] for r in records] == [False, False, True, False, False, True]


def raiser(exc):
    def call():
        raise exc

    return call


def determinism_flags_changes():
    """A failure that comes and goes between batches makes the counts differ."""
    flaky = iter([None, RuntimeError("Factor is exactly singular")])

    def call():
        exc = next(flaky)
        if exc is not None:
            raise exc
        return 1

    op = wl.Op("flaky", call, lambda r: None, lambda r: {"value": r},
               known=wl.singular_factor)
    passes = [run.run_pass([op], None, k) for k in range(2)]
    return run.determinism(passes)[1] is False and run.determinism(passes[:1])[1] is True


def path_residual_is_exact():
    """Only a probe that failed its path-independence test alone is known."""
    _, payload = wl.run_cli(["potential-probe", "--mesh", "tetrahedron", "--seed", "1"])
    residual = {**payload, "ok": False, "path_independence_residual": 4e-7}
    rows = [dict(r) for r in payload["rows"]]
    rows[1]["f"] = rows[0]["f"] - 1.0  # a ray where the potential falls
    expected = [
        ((3, residual), "PathResidual"),
        ((3, {**residual, "lambda1_at_base": -1.0}), None),
        ((3, {**residual, "rows": rows}), None),
        ((3, {**payload, "ok": False}), None),
        ((0, residual), None),
    ]
    return all(wl.path_residual(result) == want for result, want in expected)


def main():
    problems = []
    for name, check, genuine, corrupted in cases():
        if check(genuine) is not None:
            problems.append(f"{name}: genuine result rejected: {check(genuine)}")
        for what, result in corrupted.items():
            verdict = check(result)
            print(f"{name:<26} {what:<26} -> {verdict or 'ACCEPTED'}")
            if verdict is None:
                problems.append(f"{name}: accepted a corrupted result ({what})")
    if not run_pass_flags_failures():
        problems.append("run_pass does not flag failed checks and unknown exceptions")
    if not path_residual_is_exact():
        problems.append("path_residual accepts a probe that failed another test")
    if not determinism_flags_changes():
        problems.append("determinism does not flag per-op counts that change")
    for p in problems:
        print("FAIL " + p)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
