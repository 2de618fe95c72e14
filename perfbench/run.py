"""End-to-end and per-layer benchmark of calabiflow.

Run from the root of a checkout:

    python3 perfbench/run.py --workload flow-small --seed 1 --seconds 27 --trace 0

The workload's fixed batch of ops is built from ``--seed`` alone and run as
a closed loop, one op at a time, in this process.  Whole batches repeat
while another one fits in ``--seconds``.  Every result is checked outside
the timed op.  ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
alternates untraced and traced batches and prints the per-layer metrics
and the tracing overhead.  The last line of standard output is one JSON
object; the lines before it are a readable report.  Per-op counts, and
with tracing the spans, are written under ``.perfbench/``.

A speed probe, a fixed piece of work that calls nothing of the library,
runs before each batch's first op and after every op.  A shared host runs
at speeds up to 2x apart for seconds to minutes at a time; on workloads
whose ops slow down with it as the probe does, each op time is scaled to
the probe's nominal speed, so that a slow spell does not show as a slower
library.  The report also prints the raw seconds and the probe's range.

``--setup-probe`` only sets up (import, meshes, inputs, one warm-up op) and
prints the time taken; the main run starts three such probes so that
``setup_s`` is a median of four cold set-ups.  Each set-up is followed by
two speed probes, so that on speed-adjusted workloads its time can be
scaled like the ops'.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 3
# iterations of the speed probe's two loops, and the seconds they take
# together on a 2-vCPU Xeon VM in its fast state
SPEED_PROBE_NUMPY = 600
SPEED_PROBE_PYTHON = 36000
SPEED_PROBE_NOMINAL_S = 0.005


def declared_metrics():
    """Metric names and units by mode, as BENCHMARK.json declares them."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return [w["name"] for w in spec["workloads"]], {
        mode: {m["name"]: m["unit"] for m in spec[key]}
        for mode, key in ((0, "end_to_end"), (1, "per_layer"))
    }


def setup(workload, seed, workdir):
    """Import, build meshes and inputs, run one warm-up op; all timed."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    sys.path.append(os.path.join(ROOT, "benchmarks"))
    import numpy as np

    import workloads

    batch = workloads.WORKLOADS[workload](np.random.default_rng(seed), workdir)
    batch.ops[0].call()
    return batch, time.perf_counter() - start


def probe_setup(workload, seed):
    """Set-up times of fresh processes, one per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return samples


def speed_probe():
    """Seconds that one fixed piece of work takes right now.

    The work is a loop of small numpy calls and a loop of plain Python
    arithmetic, of about equal time.  On a 2-vCPU Xeon VM whose host
    alternates between a fast and a slow state, it slowed by 1.56x from
    one state to the other, and so did the Python-bound ops: N=18 Ricci
    flows by 1.62x, N=12 admissibility scans by 1.64x, octahedron
    potential-probes by 1.55x.  Either loop alone matched them less well
    (numpy 1.77x, Python 1.40x).  Ops that live in LAPACK on two BLAS
    threads slowed less (10 N=258 Ricci steps by 1.08x, 10 N=1026 steps
    by 1.35x), which is why not every workload is adjusted.  The probe
    calls nothing of the library, so a change to the library does not
    change it.
    """
    import numpy as np

    y = np.linspace(0.0, 1.0, 50)
    acc = 0
    start = time.perf_counter()
    for _ in range(SPEED_PROBE_NUMPY):
        y = np.sqrt(np.abs(y) + 1.0) * 0.5
        float(y.sum())
    for i in range(SPEED_PROBE_PYTHON):
        acc += i * i % 7
    return time.perf_counter() - start


def settled_probe():
    """The mean of two speed probes: the host's speed just after a set-up."""
    return 0.5 * (speed_probe() + speed_probe())


def run_pass(ops, tracer, pass_no):
    """Run every op once; time it, then check it outside the timing.

    The speed probe runs before the first op and after each op; an op's
    ``ref`` is the mean of the probes on either side of it.
    """
    records = []
    t_pass = time.perf_counter()
    probe = speed_probe()
    for k, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = f"{pass_no}:{k}"
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            result, exc = op.call(), None
        except Exception as err:  # counted per class; unknown classes fail the run
            result, exc = None, err
        t1 = time.perf_counter()
        c1 = time.process_time()
        if tracer is not None:
            tracer.op_id = None
        after = speed_probe()
        rec = {"op": k, "label": op.label, "s": t1 - t0, "cpu": c1 - c0,
               "ref": 0.5 * (probe + after)}
        probe = after
        if exc is not None:
            rec["failed"] = type(exc).__name__
            rec["known"] = op.known(exc)
            rec["counts"] = {"raised": type(exc).__name__}
        else:
            problem = op.check(result)
            rec["counts"] = op.counts(result)
            if problem is not None:
                name = op.known_result(result)
                rec["failed"] = name or "check"
                rec["known"] = name is not None
                rec["problem"] = problem
        records.append(rec)
    return {"elapsed": time.perf_counter() - t_pass,
            "traced": tracer is not None, "records": records}


def measure(ops, seconds, trace):
    """Repeat the batch while another one fits in ``seconds``.

    With tracing, untraced and traced batches alternate, at least one each.
    """
    from tracing import Tracer, patched

    tracer = Tracer() if trace else None
    passes = []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            with patched(tracer):
                passes.append(run_pass(ops, tracer, len(passes)))
        else:
            passes.append(run_pass(ops, None, len(passes)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(p["elapsed"] for p in passes)
        if trace and len(passes) < 2:
            continue
        if elapsed + typical > seconds:
            break
    return passes, tracer


def tail_percentile(n_ok):
    """The highest whole percentile with at least 10 of ``n_ok`` ops beyond it.

    Never below the median: a batch of fewer than 20 successful ops has
    fewer than 10 beyond it, and the report says how many.
    """
    return max(50, math.floor(100.0 * (1.0 - 10.0 / n_ok))) if n_ok else 50


def percentile(values, pct):
    """Linear-interpolation percentile of a non-empty list."""
    xs = sorted(values)
    pos = pct / 100.0 * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def blas_threads():
    """OpenBLAS's thread count, read from the library numpy loaded."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment():
    import numpy as np
    import scipy

    import calabiflow as cf

    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = deps.get("blas", {})
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "backend": cf.active_backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def per_op_best(passes, key):
    """Each op's fastest time over the run's repeats of the batch, in order.

    For ops that are not speed-adjusted: a median would flip between the
    host's two speeds from run to run, while the fastest of a few repeats
    settles on the fast one.
    """
    return [
        min(p["records"][k][key] for p in passes)
        for k in range(len(passes[0]["records"]))
    ]


def per_op_adjusted(passes, key):
    """Each op's median ``key`` over the run's batches, at the probe's nominal speed.

    Each time is scaled by ``SPEED_PROBE_NOMINAL_S`` over the probe timed
    beside it, which takes out the host's speed state, so the median over
    batches no longer flips between two speeds.
    """
    return [
        statistics.median(
            p["records"][k][key] * SPEED_PROBE_NOMINAL_S / p["records"][k]["ref"]
            for p in passes
        )
        for k in range(len(passes[0]["records"]))
    ]


def setup_times(setup_samples, speed_adjusted):
    """Each set-up's seconds, scaled like the ops' on speed-adjusted workloads.

    Set-up is imports, mesh building and input generation, interpreted
    Python that slows down with the host as the probe does.
    """
    if not speed_adjusted:
        return [s["setup_s"] for s in setup_samples]
    return [s["setup_s"] * SPEED_PROBE_NOMINAL_S / s["probe_s"] for s in setup_samples]


def end_to_end(passes, setup_samples, speed_adjusted):
    first = passes[0]["records"]
    # an op counts as successful only if it succeeded in every batch; a
    # failure that comes and goes makes the run incorrect (see determinism)
    ok = [all("failed" not in p["records"][k] for p in passes) for k in range(len(first))]
    per_op = per_op_adjusted if speed_adjusted else per_op_best
    op_s = per_op(passes, "s")
    ok_times = [t for t, good in zip(op_s, ok) if good]
    pct = tail_percentile(len(ok_times))
    tail = percentile(ok_times, pct) if ok_times else 0.0
    values = {
        "setup_s": statistics.median(setup_times(setup_samples, speed_adjusted)),
        "wall_s": sum(op_s),
        "op_s.p50": statistics.median(ok_times) if ok_times else 0.0,
        "op_s.tail": tail,
        "cpu_s": sum(per_op(passes, "cpu")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_frac": len(ok_times) / len(first),
    }
    probes = [r["ref"] for p in passes for r in p["records"]]
    if speed_adjusted:
        batch = (f"{len(first)} ops, each at its median of {len(passes)} batches "
                 f"at the probe's nominal speed")
        raw = {key: f"; raw best {sum(per_op_best(passes, key)):.4f} s" for key in ("s", "cpu")}
    else:
        batch = f"{len(first)} ops, each at its best of {len(passes)} batches"
        raw = {"s": "", "cpu": ""}
    notes = {
        "setup_s": f"median of {len(setup_samples)} set-ups"
                   + (" at the probe's nominal speed; raw median "
                      f"{statistics.median(s['setup_s'] for s in setup_samples):.4f} s"
                      if speed_adjusted else "")
                   + f"; this process's own {setup_samples[0]['setup_s']:.4f} s",
        "wall_s": f"{batch}{raw['s']}; probe median {1e3 * statistics.median(probes):.3f} ms, "
                  f"range {1e3 * min(probes):.3f}-{1e3 * max(probes):.3f} ms",
        "op_s.p50": f"{len(ok_times)} successful ops",
        "op_s.tail": f"p{pct}, {len(ok_times)} successful ops, "
                     f"{sum(t > tail for t in ok_times)} beyond",
        "cpu_s": f"{batch}{raw['cpu']}",
        "peak_rss_mb": "this process",
        "ok_frac": f"{len(ok_times)} of {len(first)} ops",
    }
    return values, notes


def per_layer(passes, tracer, setup_samples):
    from tracing import layer_metrics

    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    values = layer_metrics(tracer.spans, len(traced))
    values["mesh.build_s"] = statistics.median(s["mesh_build_s"] for s in setup_samples)
    values["tracing.overhead_s"] = (
        sum(per_op_best(traced, "s")) - sum(per_op_best(plain, "s"))
    )
    notes = {"tracing.overhead_s": f"{len(traced)} traced, {len(plain)} untraced batches"}
    return values, notes


def failure_counts(passes):
    counts = {}
    for p in passes:
        for r in p["records"]:
            if "failed" in r:
                key = f"failed.{r['failed']}"
                counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def determinism(passes):
    """Digest of the first batch's per-op counts, and whether all batches match.

    The counts include each op's failure class, so a failure that comes and
    goes between batches shows as a mismatch.
    """
    first = [r["counts"] for r in passes[0]["records"]]
    same = all([r["counts"] for r in p["records"]] == first for p in passes[1:])
    digest = hashlib.sha256(json.dumps(first, sort_keys=True).encode()).hexdigest()
    return digest[:16], same


def main(argv=None):
    workload_names, units_by_mode = declared_metrics()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workload_names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=27.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "calabiflow", "__init__.py")):
        print(f"error: no calabiflow sources under {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}"
    os.makedirs(OUT, exist_ok=True)

    if args.setup_probe:
        batch, setup_s = setup(args.workload, args.seed, os.path.join(OUT, tag + "-probe"))
        print(json.dumps({"setup_s": setup_s, "mesh_build_s": batch.mesh_build_s,
                          "probe_s": settled_probe()}))
        return 0

    batch, own_setup = setup(args.workload, args.seed, os.path.join(OUT, tag))
    setup_samples = [{"setup_s": own_setup, "mesh_build_s": batch.mesh_build_s,
                      "probe_s": settled_probe()}]
    setup_samples += probe_setup(args.workload, args.seed)
    env = environment()

    passes, tracer = measure(batch.ops, args.seconds, bool(args.trace))
    if args.trace:
        values, notes = per_layer(passes, tracer, setup_samples)
        tracer.write(os.path.join(OUT, f"spans-{tag}.jsonl"))
    else:
        values, notes = end_to_end(passes, setup_samples, batch.speed_adjusted)
    units = units_by_mode[args.trace]
    if set(values) != set(units):
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {set(values) ^ set(units)}")

    records = [r for p in passes for r in p["records"]]
    failures = failure_counts(passes)
    digest, repeatable = determinism(passes)
    correct = repeatable and not any(r.get("failed") and not r["known"] for r in records)
    with open(os.path.join(OUT, f"ops-{tag}-trace{args.trace}.jsonl"), "w",
              encoding="utf-8") as fh:
        fh.write(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                             "trace": args.trace, "counts_digest": digest,
                             "repeatable": repeatable}) + "\n")
        for p_no, p in enumerate(passes):
            for r in p["records"]:
                fh.write(json.dumps({"pass": p_no, **r}) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    print("env " + json.dumps(env))
    print(f"per-op counts: digest {digest}, "
          f"{'identical' if repeatable else 'DIFFERENT'} across {len(passes)} batches")
    print(f"failed_frac {sum(failures.values()) / len(records):.4f}  "
          + "  ".join(f"{k} {v}" for k, v in failures.items()))
    for r in records:
        if r.get("failed") and not r["known"]:
            print(f"INCORRECT {r['label']}: {r.get('problem', r['failed'])}")
    for name, value in values.items():
        print(f"  {name:<48} {value:>14.6g} {units[name]:<8} {notes.get(name, '')}")

    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": sum(failures.values()),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
