"""Timing of the state evaluation and the adaptive advance loop.

Runs both kernels on a family of subdivided octahedra and prints one table
row per (size, kernel) pair: the best of ``--repeats`` wall-clock times.

Usage:
    python3 benchmarks/bench_kernels.py [--repeats 5] [--levels 4] [--steps 200]
"""

import argparse
import math
import time

import numpy as np

import calabiflow as cf
from calabiflow import _kernels
from calabiflow.meshes import subdivide  # also imported from here by perfbench


def arrays(t, rng):
    r = rng.uniform(0.5, 2.0, t.n_vertices)
    cphi = np.cos(rng.uniform(0.0, math.pi / 2, t.n_edges))
    return r, t.faces, t.face_edges, t.edges[:, 0], t.edges[:, 1], cphi


def time_call(fn, repeats):
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_state(args_state, repeats):
    return time_call(lambda: _kernels.state(*args_state), repeats)


def bench_advance(t, r, fv, fe, ea, eb, cphi, steps, repeats):
    target = np.full(t.n_vertices, 2.0 * math.pi * t.chi / t.n_vertices)
    u0 = np.log(r)
    _, _, _, K, B, kn, err = _kernels.state(np.exp(u0), fv, fe, ea, eb, cphi)
    assert err == _kernels.ERR_OK
    energy = float(np.sum((K - target) ** 2))

    def run():
        _kernels.advance(
            u0.copy(), 1e-2, 0.0, 0, steps,
            fv, fe, ea, eb, cphi, target, True,
            u0.copy(), 1e-10, 50.0, 1e12, 60, 1.2, 10, 4,
            K.copy(), B.copy(), kn.copy(), energy,
        )

    return time_call(run, repeats)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--levels", type=int, default=4,
                    help="number of octahedron subdivisions (max mesh size)")
    ap.add_argument("--steps", type=int, default=200,
                    help="accepted steps per advance call")
    opts = ap.parse_args()

    meshes = [cf.parse_mesh(cf.mesh_text("octahedron"))]
    for _ in range(opts.levels):
        meshes.append(subdivide(meshes[-1]))

    rng = np.random.default_rng(0)
    print(f"{'N':>6} {'kernel':<10} {'time (ms)':>12}")
    for t in meshes:
        r, fv, fe, ea, eb, cphi = arrays(t, rng)
        args_state = (r, fv, fe, ea, eb, cphi)
        times = {
            "state": bench_state(args_state, opts.repeats),
            "advance": bench_advance(
                t, r, fv, fe, ea, eb, cphi, opts.steps, opts.repeats
            ),
        }
        for kernel, best in times.items():
            print(f"{t.n_vertices:>6} {kernel:<10} {1e3 * best:>12.3f}")


if __name__ == "__main__":
    main()
