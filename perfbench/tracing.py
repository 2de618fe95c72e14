"""Spans around the library's public calls, recorded from the benchmark side.

Nothing in the library is changed permanently: :func:`patched` rebinds each
traced name where its caller looks it up (a module attribute or a class
attribute) and restores the original on exit.  Spans are kept in memory,
tagged with the id of the op that caused them, and written out at the end.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

from calabiflow import _kernels, cli, flows, potential, thurston
from calabiflow.laplacian import DualLaplacian


class Tracer:
    """In-memory span recorder; records only while an op id is set."""

    def __init__(self):
        self.spans: list[dict] = []
        self.op_id = None
        self._stack: list[int] = []

    def wrap(self, name, fn, attrs=None):
        """``fn`` wrapped in a span called ``name``.

        ``attrs(args, result)`` returns counts to store on the span.
        """

        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            span = {
                "op": self.op_id,
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "start": time.perf_counter(),
            }
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span.update(attrs(args, result))
            return result

        return traced

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _flow_counts(args, trace):
    return {"steps": trace.accepted_steps, "samples": len(trace.samples)}


# (owner, attribute, span name, counts taken from the call).  Each name is
# bound where its caller looks it up: the flows call ``_kernels.advance``,
# the CLI calls ``ricci_potential`` from its own namespace, and so on.
TARGETS = [
    (flows, "integrate", "flows.integrate", _flow_counts),
    (potential, "integrate", "flows.integrate", _flow_counts),
    (_kernels, "advance", "kernels.advance", lambda a, r: {"steps": int(r[1])}),
    (_kernels, "state", "kernels.state", None),
    (_kernels, "segment_potential", "kernels.segment_potential",
     lambda a, r: {"panels": int(a[3])}),
    (_kernels, "scan_subsets", "kernels.scan_subsets",
     lambda a, r: {"subsets": int(r[4])}),
    (DualLaplacian, "lambda1", "laplacian.lambda1", None),
    (DualLaplacian, "__init__", "laplacian.DualLaplacian", None),
    (thurston, "check_admissible", "thurston.check_admissible",
     lambda a, r: {"verdict": r.verdict}),
    (cli, "constant_curvature_log_metric",
     "potential.constant_curvature_log_metric", None),
    (cli, "ricci_potential", "potential.ricci_potential", None),
    (cli, "main", "cli.main", None),
]


@contextlib.contextmanager
def patched(tracer: Tracer):
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in TARGETS]
    try:
        for owner, attr, name, attrs in TARGETS:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), attrs))
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, passes: int) -> dict:
    """Per-layer metrics, per traced pass, from a list of spans."""
    calls = defaultdict(int)
    busy = defaultdict(float)
    child = defaultdict(float)  # time covered by direct children, per span
    total = defaultdict(float)  # summed span counts, keyed "name.count"
    for s in spans:
        dur = s["end"] - s["start"]
        calls[s["name"]] += 1
        busy[s["name"]] += dur
        if s["parent"] is not None:
            child[s["parent"]] += dur
        for key in ("steps", "samples", "panels", "subsets"):
            if key in s:
                total[f"{s['name']}.{key}"] += s[key]
        if "verdict" in s:
            total[f"verdicts.{s['verdict']}"] += 1

    def self_time(name):
        return sum(
            s["end"] - s["start"] - child[i]
            for i, s in enumerate(spans)
            if s["name"] == name
        )

    def under(i, name):
        """True if span ``i`` has an ancestor called ``name``."""
        p = spans[i]["parent"]
        while p is not None:
            if spans[p]["name"] == name:
                return True
            p = spans[p]["parent"]
        return False

    # flow diagnostics: lambda1, Laplacian assembly and the state evaluations
    # integrate makes outside advance (samples, the start, recentering)
    diag = sum(
        s["end"] - s["start"]
        for i, s in enumerate(spans)
        if s["name"] in ("laplacian.lambda1", "laplacian.DualLaplacian", "kernels.state")
        and under(i, "flows.integrate")
    )
    doublings = sum(
        1
        for i, s in enumerate(spans)
        if s["name"] == "kernels.segment_potential"
        and s["parent"] is not None
        and spans[s["parent"]]["name"] == "potential.ricci_potential"
    ) - calls["potential.ricci_potential"]

    segment_nodes = sum(
        2 * s["panels"] + 1 for s in spans if s["name"] == "kernels.segment_potential"
    )
    m = {
        "flows.integrate.calls": calls["flows.integrate"],
        "flows.integrate.busy_s": busy["flows.integrate"],
        "flows.integrate.self_s": self_time("flows.integrate"),
        "flows.steps": total["flows.integrate.steps"],
        "flows.samples": total["flows.integrate.samples"],
        "flows.step_us": 1e6 * _ratio(busy["flows.integrate"], total["flows.integrate.steps"]),
        "flows.diag_share": _ratio(diag, busy["flows.integrate"]),
        "kernels.advance.calls": calls["kernels.advance"],
        "kernels.advance.busy_s": busy["kernels.advance"],
        "kernels.advance.us_per_step": 1e6 * _ratio(
            busy["kernels.advance"], total["kernels.advance.steps"]
        ),
        "kernels.state.calls": calls["kernels.state"],
        "kernels.state.busy_s": busy["kernels.state"],
        "kernels.segment_potential.calls": calls["kernels.segment_potential"],
        "kernels.segment_potential.busy_s": busy["kernels.segment_potential"],
        "kernels.segment_potential.panels": total["kernels.segment_potential.panels"],
        "kernels.segment_potential.us_per_node": 1e6 * _ratio(
            busy["kernels.segment_potential"], segment_nodes
        ),
        "kernels.scan_subsets.calls": calls["kernels.scan_subsets"],
        "kernels.scan_subsets.busy_s": busy["kernels.scan_subsets"],
        "kernels.scan_subsets.subsets": total["kernels.scan_subsets.subsets"],
        "kernels.scan_subsets.us_per_subset": 1e6 * _ratio(
            busy["kernels.scan_subsets"], total["kernels.scan_subsets.subsets"]
        ),
        "laplacian.lambda1.calls": calls["laplacian.lambda1"],
        "laplacian.lambda1.busy_s": busy["laplacian.lambda1"],
        "laplacian.lambda1.ms_per_call": 1e3 * _ratio(
            busy["laplacian.lambda1"], calls["laplacian.lambda1"]
        ),
        "laplacian.DualLaplacian.calls": calls["laplacian.DualLaplacian"],
        "laplacian.DualLaplacian.busy_s": busy["laplacian.DualLaplacian"],
        "thurston.check_admissible.calls": calls["thurston.check_admissible"],
        "thurston.check_admissible.busy_s": busy["thurston.check_admissible"],
        "thurston.check_admissible.self_s": self_time("thurston.check_admissible"),
        "thurston.verdicts.admissible": total["verdicts.admissible"],
        "thurston.verdicts.inadmissible": total["verdicts.inadmissible"],
        "potential.ricci_potential.calls": calls["potential.ricci_potential"],
        "potential.ricci_potential.busy_s": busy["potential.ricci_potential"],
        "potential.ricci_potential.self_s": self_time("potential.ricci_potential"),
        "potential.doublings": doublings,
        "potential.constant_curvature_log_metric.busy_s":
            busy["potential.constant_curvature_log_metric"],
        "cli.main.busy_s": busy["cli.main"],
        "cli.self_s": self_time("cli.main"),
    }
    per_pass = {"ms_per_call", "us_per_step", "us_per_node", "us_per_subset",
                "step_us", "diag_share"}
    return {
        k: (v if k.rsplit(".", 1)[-1] in per_pass else v / passes)
        for k, v in m.items()
    }
