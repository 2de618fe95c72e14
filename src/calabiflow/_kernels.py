"""Hot numeric kernels, vectorized with numpy.

The geometry kernels are array-in / array-out.  They take the mesh as one
:class:`Mesh` tuple of static index arrays and weight cosines, built by
``geometry._mesh_arrays``.  The run loop :func:`advance` takes the start
log radii, that mesh, the settings callers vary as one options object
(``flows.IntegratorOptions``) and a callback that records samples; its
fixed settings are the module constants below.  The public names are
``state``, which returns a :class:`State`, ``curvatures``, ``lap_apply``,
``segment_potential``, ``advance`` and ``scan_subsets``.

Stacked corners: every per-corner quantity is one elementwise expression on
contiguous (F, 3) arrays, whose entry ``[f, m]`` belongs to corner ``m`` of
face ``f``.  The values at corners ``m``, ``(m + 1) % 3`` and ``(m + 2) % 3``
come from one gather per stacked index array (``Mesh.ends``, ``fv3`` and
``fe3``; a batch gathers row by row) or flat corner index, which each
``Triangulation`` builds once.  A gather only moves values, and each
expression applies the same operations to the same operands in the same
order as a loop over ``m`` would (an in-place ``a += b`` rounds as
``a + b``), so the results are those of that loop bit for bit; the tests
keep the loop as their reference.

Accumulation orders are fixed: face-major for curvatures, noise bounds and
edge weights, two passes over edges for Laplacian application.  The
curvature sum starts from ``2 pi`` and subtracts angles in face order
(``x - a`` rounds as ``x + (-a)``); edge weights and noise bounds are
summed by ``np.bincount``, which adds in input order from zero, as
``np.add.at`` into zeros does.  Repeated runs are deterministic.

Batch axis: ``curvatures`` also takes radii of shape (m, n), m metrics
on one mesh, and returns curvatures of shape (m, n).  Each row is computed
by the same elementwise operations, in the same accumulation order, as a
call on that row alone, so every row equals the one-metric result bit for
bit.  :func:`segment_potential` evaluates its batches of segments this way.

Subset scan: :func:`scan_subsets` screens a block of subsets of one size
at a time with boolean masks of shape (faces, subsets).  Its sums run in
other orders than a subset-by-subset evaluation would, so it flags every
row within a rounding margin of violating, and re-evaluates the flagged
rows in order by :func:`_subset_row`, the per-subset evaluation.  The
first row that evaluation calls a violation is the result, with its
values; a flagged row it clears is skipped.  So the result is that of the
loop over subsets bit for bit; the tests keep that loop as their reference.

Error reporting: a geometry kernel returns values only, and raises
``InternalConsistencyError`` when an evaluation is not clean: a corner
cosine past the clamp tolerance, an edge weight outside (0, 2 sqrt 3), or
a non-finite value.  A non-finite corner cosine takes precedence over one
past the clamp tolerance, and a batch raises for its first failing row.
The step controller in :func:`advance` catches the error around the
kernel calls of a trial and rejects that trial; its start raises.  Radii
that overflow or underflow are reported this way, so numpy's floating
point warnings are ignored, in one ``np.errstate`` scope per call of
``state`` and ``curvatures`` and per loop of :func:`advance` and
:func:`segment_potential`; the private kernels enter none.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

import numpy as np

from .errors import InternalConsistencyError, StepCollapseError

SQRT3 = math.sqrt(3.0)
TWO_PI = 2.0 * math.pi
TWO_SQRT3 = 2.0 * SQRT3
CLAMP_TOL = 1e-9
NONFINITE = "non-finite value in geometry evaluation"

# Quadrature nodes are evaluated in row blocks of at most BLOCK_FACES // F
# metrics per curvature call (F faces).  A block saves the per-call overhead
# that dominates on small meshes.  Past about 2**11 faces per block the
# time per node rose again on subdivided octahedra (N = 18 ... 1026): a
# block's per-corner temporaries then pass 64 kB each, and freeing chunks
# that large lets the C allocator return the heap top to the system, so the
# next block pays page faults again.  The bound also keeps a block's memory
# a few hundred kB at any quadrature order.
BLOCK_FACES = 2**11
# The subset scan screens blocks of at most SCAN_BLOCK // F subsets, so
# each (F, subsets) boolean mask stays at SCAN_BLOCK bytes and its cast to
# float64 for the link dots at 1 MB.  A full N = 18 scan ran fastest at
# 2**17 of 2**15, 2**17 and 2**20: the largest masks leave the cache.
SCAN_BLOCK = 2**17

# margin (in log-radius units) past the divergence guard inside which trial
# steps are still evaluated; beyond it they are rejected unevaluated so that
# exp() cannot overflow while probing huge step sizes
TRIAL_MARGIN = 5.0
# exp(u) is a normal float for u >= -EXP_SAFE; below the normal range a
# radius loses the precision its log radius has, and at 0 it is no radius
EXP_SAFE = 708.0
TINY = float(np.finfo(np.float64).tiny)

# step controller settings (see advance)
INITIAL_STEP = 1e-2
MAX_HALVINGS = 60
GROWTH_FACTOR = 1.2
GROWTH_INTERVAL = 10
# sets the stride between recorded samples
SAMPLE_TARGET = 1000
# damping and largest stage count of the Chebyshev-stabilized Calabi trial
RKC_DAMPING = 0.05
MAX_STAGES = 128

# The energy guard accepts a trial step when the new energy does not exceed
# the current one beyond a certified roundoff allowance.  The allowance must
# cover the floating point noise of the energies being compared, which is
# state dependent: near-degenerate corners amplify the cosine-law rounding by
# 1/sin(theta), and along non-compact escape directions (inadmissible
# targets) the genuine per-step descent falls below that noise — a strict
# comparison would then reject on noise and collapse the step size instead of
# letting the iterate reach the divergence guard.  The state kernel returns a
# per-vertex curvature noise bound built from NOISE_ULPS units of rounding
# per corner evaluation, scaled by the conditioning factor kappa/sin(theta).
EPS = 2.220446049250313e-16
NOISE_ULPS = 4.0


def active_backend() -> str:
    """Name of the kernel backend; numpy is the only one."""
    return "numpy"


class Mesh(NamedTuple):
    """Static arrays of one weighted mesh, as the geometry kernels read them.

    ``fv``/``fe`` hold the faces and the edge opposite each corner (F, 3),
    ``ea``/``eb`` the edge endpoints (E,), ``cphi`` the weight cosines (E,).
    The kernels gather through stacks with these as rows: ``ends`` (2, E) has
    ``ea`` and ``eb``, and ``fv3``/``fe3`` (3, F, 3) hold ``fv``/``fe``
    rolled by zero, one and two corners (``[k, f, m]`` is corner
    ``(m + k) % 3`` of face ``f``); ``c1``/``c2`` index corners ``m + 1``,
    ``m + 2`` of a flat (F, 3) array; ``cphi_f``/``cphi_f1`` are ``cphi`` at
    ``fe3[0]``, ``fe3[1]``.  The indices come from ``Triangulation.kernel_index``.
    """

    fv: np.ndarray
    fe: np.ndarray
    ea: np.ndarray
    eb: np.ndarray
    cphi: np.ndarray
    ends: np.ndarray
    fv3: np.ndarray
    fe3: np.ndarray
    c1: np.ndarray
    c2: np.ndarray
    cphi_f: np.ndarray
    cphi_f1: np.ndarray


class State(NamedTuple):
    """One metric's clean evaluation by :func:`state`: edge lengths ``lens``
    (E,), corner angles ``ang`` (F, 3), curvatures ``K`` (n,), edge weights
    ``B`` (E,) and curvature noise bounds ``kn`` (n,)."""

    lens: np.ndarray
    ang: np.ndarray
    K: np.ndarray
    B: np.ndarray
    kn: np.ndarray


def _check_cosines(c):
    """Raise unless one metric's corner cosines ``c`` (F, 3) are clean: a
    non-finite value takes precedence over a value past the clamp tolerance.
    Clean cosines cost one reduction: NaN fails the comparison as well."""
    if float(np.abs(c).max()) - 1.0 <= CLAMP_TOL:
        return
    if not np.all(np.isfinite(c)):
        raise InternalConsistencyError(NONFINITE)
    raise InternalConsistencyError(
        "cosine-law value left [-1, 1] by more than the clamp tolerance; "
        "a triangle inequality that is guaranteed for weights in [0, pi/2] "
        "failed"
    )


def _gather(x, index):
    """``x`` at each row of a stacked index: one take for one metric, and row
    by row along the last axis of a batch, where a stack would pass 64 kB."""
    return x.take(index) if x.ndim == 1 else [x.take(i, axis=-1) for i in index]


def _corners(r, mesh):
    """Per-corner geometry: the stage every geometry evaluation starts with.

    Returns ``(lens, G, cc, ang, K)``: edge lengths; ``G``, the lengths
    ``L``, ``L1``, ``L2`` of the edges opposite corners ``m``, ``m + 1`` and
    ``m + 2`` of every corner ``m`` (see :func:`_gather`); clamped corner
    cosines and angles; and curvatures.

    ``r`` is one metric (n,) or a batch of metrics (m, n); every array
    returned gains the same leading axis.  Raises
    ``InternalConsistencyError`` for the first row whose cosines are not
    clean (see the module docstring).
    """
    n = r.shape[-1]
    # The in-place updates below keep few temporaries alive; each computes
    # what the written-out expression in its comment would, bit for bit.
    ra, rb = _gather(r, mesh.ends)
    # lens = sqrt(ra * ra + rb * rb + 2.0 * ra * rb * cphi)
    lens = ra * ra
    lens += rb * rb
    ra *= 2.0
    ra *= rb
    ra *= mesh.cphi
    lens += ra
    np.sqrt(lens, out=lens)
    G = _gather(lens, mesh.fe3)
    L, L1, L2 = G
    # c = (L1 * L1 + L2 * L2 - L * L) / (2.0 * L1 * L2)
    c = L1 * L1
    c += L2 * L2
    sq = L * L
    den = 2.0 * L1
    den *= L2
    c -= sq
    c /= den
    del sq, den
    corners = mesh.fv.ravel()
    if r.ndim == 1:
        _check_cosines(c)
    else:
        # a row fails exactly when its largest |cosine| is past the clamp
        # tolerance or NaN (max() propagates NaN); the first such row then
        # gets the one-metric verdict
        worst = np.abs(c).reshape(r.shape[0], -1).max(axis=1)
        bad = np.flatnonzero(~(worst - 1.0 <= CLAMP_TOL))
        if bad.size:
            _check_cosines(c[bad[0]])
        corners = (np.arange(r.shape[0])[:, None] * n + corners).ravel()
    # cc = np.clip(c, -1.0, 1.0), without clip()'s Python-level overhead
    cc = np.minimum(np.maximum(c, -1.0, out=c), 1.0, out=c)
    ang = np.arccos(cc)
    K = np.empty(r.shape)
    K.fill(TWO_PI)
    np.subtract.at(K.reshape(-1), corners, ang.ravel())
    return lens, G, cc, ang, K


def _curvature_noise(G, sin, mesh, n):
    """Curvature noise bounds (n,) of one metric from ``G`` of :func:`_corners`
    and the corner sines: NOISE_ULPS units of rounding per corner, scaled by
    the conditioning ``kappa = (L1^2 + L2^2 + L^2) / (2 L1 L2)`` over sin."""
    L, L1, L2 = G
    kappa = L1 * L1
    kappa += L2 * L2
    kappa += L * L
    den = 2.0 * L1
    den *= L2
    kappa /= den
    corner_noise = NOISE_ULPS * EPS * (kappa / np.maximum(sin, 1e-300) + 4.0)
    return np.bincount(mesh.fv.ravel(), corner_noise.ravel(), minlength=n)


def _dual_weights(r, G, cc, sin, mesh):
    """Edge weights of one metric ``r`` with clean cosines, whose curvatures
    are then finite.  The weights' extremes decide the bound (0, 2 sqrt 3),
    and finiteness which error is raised when it fails."""
    L, L1, L2 = G
    # Half weight of the edge opposite corner m, which joins corners
    # m + 1 and m + 2: the derivative of the angle at m + 1 with respect
    # to the log-radius at m + 2.
    r_o, r_c, r_m = r.take(mesh.fv3)
    bracket = (r_m + r_o * mesh.cphi_f1) - (L1 * cc.take(mesh.c2) / L) * (
        r_m + r_c * mesh.cphi_f
    )
    halves = r_m / (L * L2 * sin.take(mesh.c1)) * bracket
    B = np.bincount(mesh.fe.ravel(), halves.ravel(), minlength=mesh.ea.shape[0])
    lo, hi = float(B.min()), float(B.max())
    if lo > 0.0 and hi < TWO_SQRT3:
        return B
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InternalConsistencyError(NONFINITE)
    raise InternalConsistencyError(
        "an edge weight left the open interval (0, 2*sqrt(3)) that theory "
        "guarantees"
    )


def state(r, mesh):
    """The :class:`State` of one metric (n,), evaluated in its own
    ``np.errstate(all="ignore")`` scope; raises if it is not clean."""
    with np.errstate(all="ignore"):
        lens, G, cc, ang, K = _corners(r, mesh)
        sin = np.sqrt(1.0 - cc * cc)
        kn = _curvature_noise(G, sin, mesh, r.shape[0])
        B = _dual_weights(r, G, cc, sin, mesh)
    return State(lens, ang, K, B, kn)


def _curvatures(r, mesh):
    """Curvatures only; the cheap evaluation of one metric or a batch."""
    return _corners(r, mesh)[4]


def curvatures(r, mesh):
    """:func:`_curvatures` in its own ``np.errstate(all="ignore")`` scope."""
    with np.errstate(all="ignore"):
        return _curvatures(r, mesh)


def lap_apply(weights, ea, eb, x):
    """Discrete Laplacian: (apply)_i = sum_j B_ij (x_j - x_i)."""
    d = weights * (x[eb] - x[ea])
    # bincount adds in edge order from zero, as add.at into zeros does
    out = np.bincount(ea, d, minlength=x.shape[0])
    np.subtract.at(out, eb, d)
    return out


@functools.cache
def _rkc(s):
    """``(beta, mu1, rows)`` of the s-stage damped first-order Runge-Kutta-
    Chebyshev step (Verwer-Hundsdorfer-Sommeijer, Numer. Math. 1990): stable
    for ``h rho <= beta = (1 + w0) / w1``, first increment ``mu1 h F``, row
    ``(mu, nu, mu~) = (2 w0, -b_(j-1) / b_(j-2), 2 w1) b_j / b_(j-1)`` of
    stage j >= 2, for ``w0 = 1 + RKC_DAMPING / s^2``, ``w1 = T_s(w0) /
    T_s'(w0)`` and ``b_j = 1 / T_j(w0) = 1 / cosh(j acosh w0)``."""
    w0 = 1.0 + RKC_DAMPING / (s * s)
    th = math.acosh(w0)
    T = [math.cosh(j * th) for j in range(s + 1)]
    w1 = math.sinh(th) / (s * math.tanh(s * th))
    rows = [(2.0 * w0 * a / b, -c / b, 2.0 * w1 * a / b) for c, a, b in zip(T, T[1:], T[2:])]
    return (1.0 + w0) / w1, w1 / w0, rows


def _energy_noise(dev, kn, energy):
    """Roundoff bound for the energy sum(dev^2), dev = K - target, given
    curvature noise."""
    w = np.abs(dev)
    return float(((2.0 * w + kn) * kn).sum()) + 32.0 * EPS * energy


@functools.lru_cache(maxsize=32)
def _gauss_legendre(order):
    """Nodes and weights of ``order``-point Gauss-Legendre on [0, 1], cached
    because ``leggauss`` solves an eigenproblem."""
    x, w = np.polynomial.legendre.leggauss(order)
    nodes, weights = 0.5 * (x + 1.0), 0.5 * w
    nodes.flags.writeable = weights.flags.writeable = False
    return nodes, weights


def segment_potential(u0, du, target, order, mesh):
    """Gauss-Legendre quadrature of the curvature one-form on segments.

    Integrates g(s) = <K(u0 + s du) - target, du> for s in [0, 1] with the
    ``order``-point rule, for a batch of m segments: ``u0`` and ``du`` are
    (m, n).  The rows to evaluate are laid out segment-major and
    node-minor, and evaluated in row blocks of at most ``max(1,
    BLOCK_FACES // F)`` metrics, one curvature call per block; a block may
    hold the end of one segment and the start of the next.  Each row's dot
    with its ``du`` is one stacked ``matmul`` of a (1, n) by an (n, 1)
    matrix, which rounds as ``np.dot`` does (``einsum`` does not), and each
    segment sums its weighted terms in node order (``np.add.at`` adds in
    index order), so every segment's value equals that of a batch of it
    alone, bit for bit.

    Returns the values, an (m,) array.  Raises for the first row, in row
    order, that does not evaluate cleanly.
    """
    nodes, weights = _gauss_legendre(order)
    total = np.zeros(du.shape[0])
    n_rows = total.shape[0] * order
    rows = max(1, BLOCK_FACES // mesh.fv.shape[0])
    # radii that overflow to inf raise in the curvature call
    with np.errstate(all="ignore"):
        for k in range(0, n_rows, rows):
            seg, node = np.divmod(np.arange(k, min(k + rows, n_rows)), order)
            du_rows = du.take(seg, axis=0)
            r = np.exp(u0.take(seg, axis=0) + nodes[node, None] * du_rows)
            Kb = _curvatures(r, mesh)
            dots = np.matmul((Kb - target)[:, None, :], du_rows[:, :, None])
            np.add.at(total, seg, weights[node] * dots.ravel())
    return total


def advance(u, mesh, target, lap_kind, opts, record):
    """Run a flow from the log radii ``u`` until it stops.

    ``mesh`` is the :class:`Mesh` of the run, and ``opts`` an
    ``IntegratorOptions``; the fixed settings are the module constants.
    The loop, ``record`` included, runs in one ``np.errstate(all="ignore")``
    scope.  The start is evaluated by :func:`state` and raises if not clean,
    and a trial whose kernel calls (its stages' included) raise is rejected.

    The first step is ``INITIAL_STEP``, and each has a descent guard: a
    trial that fails it is halved and retried, and ``StepCollapseError`` is
    raised once ``MAX_HALVINGS`` halvings of evaluated trials fail, or the
    step reaches 0.  A trial refused unevaluated (past the divergence guard
    by ``TRIAL_MARGIN``, with radii that underflow, or needing over
    ``MAX_STAGES`` stages) does not count: as ``h max|v| -> 0`` the trial
    nears the current state, which passed both tests unless it is a start
    with radii below the normal range.  The step grows by ``GROWTH_FACTOR``
    (capped at ``opts.max_step``) after every ``GROWTH_INTERVAL``
    consecutive accepted steps.  A Calabi trial
    takes the fewest stages s of :func:`_rkc` with ``beta(s) >= h rho``,
    where ``rho = (max over edges ab of d_a + d_b)^2``, d = diag L, bounds
    ``lambda_max(L)^2`` (Anderson-Morley) at the accepted state of the last
    change of h.  At s = 1 it is the Euler point ``u + h v``; a later stage
    adds the velocity at the one before to an increment from ``u``.  The
    trial passes when its geometry evaluates cleanly and ``e_new <= energy
    + (noise + noise_new)``, the roundoff allowance.  Its tests run
    cheapest decisive test first, and a failed one halves the trial: the
    corner cosines (:func:`_corners`); the energy; the allowance only if
    ``e_new > energy`` (with clean cosines it is never negative or NaN);
    the dual weights and their bounds (:func:`_dual_weights`) only for a
    trial that passed.  The current state's ``noise`` is computed, from
    the arrays its trial kept, when a trial first needs it.  A Ricci trial
    makes one evaluation (:func:`_corners`) at the Euler point and
    passes when ``<K(u + h v) - target, h v> <= 0``.  For weights in [0,
    pi/2] the Ricci potential is convex (Colin de Verdiere, Invent. Math.
    1991; Chow-Luo, J. Diff. Geom. 2003), so g(s) = <K(u + s h v) - target,
    h v> is nondecreasing in s; g(1) <= 0 then gives g <= 0 on [0, 1], and
    the step does not raise the potential.  The accepted trial's
    deviation ``K - target``, dual weights and distance from the start serve
    the next step and the stopping tests unchanged.

    The run converges when ``max |K - target| < opts.curvature_tol`` (the
    start included), diverges when some ``|u_i - u_i(0)|`` exceeds
    ``opts.u_max``, and otherwise stops after ``opts.max_steps`` accepted
    steps.  A Calabi step adds :func:`lap_apply` values, whose entries sum
    to zero, so ``sum u`` holds to rounding.  ``record(t, h, u, K, energy)``
    is called at the start, then whenever ``stride`` steps have passed since
    the last record, and at the end.  ``stride`` is ``max(1, k //
    SAMPLE_TARGET)`` (``k`` the step count) as of the last record.
    Returns ``(status, steps, u, t, evaluations)``, the status one of
    ``"converged"``, ``"diverged"`` and ``"step_limit"``, and
    ``evaluations`` the geometry evaluations of trials and stages.
    """
    ea, eb, n = mesh.ea, mesh.eb, u.shape[0]
    u_ref = u
    # within this drift every u stays above -EXP_SAFE
    exp_safe = EXP_SAFE - float(np.abs(u_ref).max())
    with np.errstate(all="ignore"):
        start = state(np.exp(u), mesh)
        K, B, dev = start.K, start.B, start.K - target
        energy = float((dev**2).sum())
        noise = _energy_noise(dev, start.kn, energy)
        h, t, stride, h_s = INITIAL_STEP, 0.0, 1, None
        streak = steps = last = evals = 0
        record(t, h, u, K, energy)
        if float(np.abs(dev).max()) < opts.curvature_tol:
            return "converged", steps, u, t, evals
        while steps < opts.max_steps:
            v = lap_apply(B, ea, eb, dev) if lap_kind else -dev
            trials = evaluated = 0
            while evaluated <= MAX_HALVINGS and h > 0.0:
                if trials:
                    h *= 0.5
                trials += 1
                du = h * v
                if lap_kind:
                    if h != h_s:  # s, the stage count, is that of h_s
                        d = np.bincount(ea, B, n) + np.bincount(eb, B, n)
                        x, h_s, s = h * float((d[ea] + d[eb]).max()) ** 2, h, 1
                        while s <= MAX_STAGES and _rkc(s)[0] < x:
                            s += 1
                    if s > MAX_STAGES:
                        continue
                    _, mu1, rows = _rkc(s)
                    d0, du = 0.0, mu1 * du
                    try:
                        for mu, nu, mut in rows:
                            r = np.exp(u + du)
                            _, G, cc, _, K_j = _corners(r, mesh)
                            B_j = _dual_weights(r, G, cc, np.sqrt(1.0 - cc * cc), mesh)
                            f = lap_apply(B_j, ea, eb, K_j - target)
                            d0, du = du, mu * du + nu * d0 + (mut * h) * f
                            evals += 1
                    except InternalConsistencyError:
                        evaluated += 1
                        continue
                u_new = u + du
                drift = float(np.abs(u_new - u_ref).max())
                if drift > opts.u_max + TRIAL_MARGIN:
                    continue
                # a trial whose geometry does not evaluate cleanly (radii
                # that overflow among them) is rejected like any failed
                # trial.  A Ricci trial evaluates only the corners: the
                # dual weights' formula degenerates in floating point on
                # deep escapes long before the curvature map does.
                r_new = np.exp(u_new)
                if drift > exp_safe and float(r_new.min()) < TINY:
                    continue  # radii that underflow are rejected like overflow
                evaluated += 1
                try:
                    _, G, cc, _, K_new = _corners(r_new, mesh)
                except InternalConsistencyError:
                    continue
                dev_new = K_new - target
                e_new = float((dev_new**2).sum())
                if not lap_kind:
                    del G, cc, _  # unread here; held into the next trial, they cost time
                    ok = float(np.dot(dev_new, du)) <= 0.0
                else:
                    sin = np.sqrt(1.0 - cc * cc)
                    noise_new = None
                    ok = e_new <= energy
                    if not ok:
                        if noise is None:
                            kn = _curvature_noise(*kept, mesh, n)
                            noise = _energy_noise(dev, kn, energy)
                        kn = _curvature_noise(G, sin, mesh, n)
                        noise_new = _energy_noise(dev_new, kn, e_new)
                        ok = e_new <= energy + (noise + noise_new)
                    if ok:
                        try:
                            B_new = _dual_weights(r_new, G, cc, sin, mesh)
                        except InternalConsistencyError:
                            continue
                if ok:
                    break
            else:
                raise StepCollapseError(
                    f"step collapsed at t={t!r} (step {steps}): {MAX_HALVINGS} halvings"
                    " of evaluated trials failed, or the step reached 0")
            evals += evaluated
            t, u, K, dev, energy = t + h, u_new, K_new, dev_new, e_new
            if lap_kind:
                B, noise, kept = B_new, noise_new, (G, sin)
            steps += 1
            streak = 1 if trials > 1 else streak + 1
            if streak >= GROWTH_INTERVAL:
                grown = h * GROWTH_FACTOR
                h = grown if grown < opts.max_step else opts.max_step
                streak = 0
            converged = float(np.abs(dev).max()) < opts.curvature_tol
            if converged or drift > opts.u_max:
                status = "converged" if converged else "diverged"
                break
            if steps - last >= stride:
                record(t, h, u, K, energy)
                last, stride = steps, max(1, steps // SAMPLE_TARGET)
        else:
            status = "step_limit"
        if last != steps:
            record(t, h, u, K, energy)
    return status, steps, u, t, evals


def _subset_row(c, n, target, ea, eb, fv, fe, pmp):
    """``(lhs, rhs)`` of the subset ``c`` (a list of vertices), evaluated on
    its own: the reference each screened row is confirmed by."""
    inside = np.zeros(n, dtype=np.bool_)
    inside[c] = True
    lhs = float(np.sum(target[c]))
    e_in = int(np.sum(inside[ea] & inside[eb]))
    m0 = inside[fv[:, 0]]
    m1 = inside[fv[:, 1]]
    m2 = inside[fv[:, 2]]
    f_in = int(np.sum(m0 & m1 & m2))
    lk = 0.0
    lk += float(np.sum(pmp[fe[m0 & ~m1 & ~m2, 0]]))
    lk += float(np.sum(pmp[fe[~m0 & m1 & ~m2, 1]]))
    lk += float(np.sum(pmp[fe[~m0 & ~m1 & m2, 2]]))
    return lhs, -lk + TWO_PI * (len(c) - e_in + f_in)


def scan_subsets(n, target, ea, eb, fv, fe, pmp, tol):
    """Admissibility scan over all nonempty proper vertex subsets.

    Enumerates subsets by (size, lexicographic member order) and stops at
    the first violating subset, so the reported subset is minimal in that
    order.  Returns ``(found, members, lhs, rhs, checked)``.

    Each size is walked in blocks of at most ``SCAN_BLOCK // F`` subsets.
    A block is screened at once, and every row the screen flags is
    re-evaluated in order by :func:`_subset_row`, whose verdict and values
    are the result; a flagged row it clears is skipped.
    """
    pf = pmp[fe]
    p0, p1, p2 = (np.ascontiguousarray(pf[:, m]) for m in range(3))
    nf = fv.shape[0]
    # The screen sums the same terms as _subset_row in other orders (a row
    # sum over the members, BLAS dots over all faces), so its lhs and rhs
    # may differ from the reference's.  A sum of k terms in any order is
    # within (k - 1) eps/2 times the sum of their magnitudes of the exact
    # sum.  So lhs differs by at most n eps sum|target|, and the link sum
    # (three sums of at most F terms, then two adds) by (F + 2) eps
    # sum|pi - Phi|; 2 pi chi is the same float times the same integer on
    # both sides.  Adding -lk, tol and the margin rounds by at most eps/2
    # of |rhs| + tol + margin each, with |rhs| <= sum|pi - Phi| + 2 pi (n +
    # F).  A margin of 8 (n + 3 F) eps times the sum of these scales covers
    # it all, so the screen flags every row the reference calls a
    # violation.  A non-finite input makes the margin infinite.
    scale = float(np.abs(target).sum() + np.abs(pf).sum())
    scale += TWO_PI * (n + nf) + abs(tol)
    margin = 8.0 * (n + 3 * nf) * EPS * scale
    bound = tol + margin if math.isfinite(margin) else math.inf
    rows = max(1, SCAN_BLOCK // nf)
    checked = 0
    for size in range(1, n):
        combos = itertools.combinations(range(n), size)
        while True:
            block = itertools.chain.from_iterable(itertools.islice(combos, rows))
            c = np.fromiter(block, dtype=np.int64).reshape(-1, size)
            m = c.shape[0]
            if not m:
                break
            # vertex-major masks: inside[v, i] is vertex v in subset i
            inside = np.zeros((n, m), dtype=np.bool_)
            inside[c.T, np.arange(m)] = True
            lhs = target[c].sum(axis=1)
            e_in = np.count_nonzero(inside[ea] & inside[eb], axis=0)
            m0, m1, m2 = inside[fv[:, 0]], inside[fv[:, 1]], inside[fv[:, 2]]
            f_in = np.count_nonzero(m0 & m1 & m2, axis=0)
            lk = (
                p0 @ (m0 & ~(m1 | m2))
                + p1 @ (m1 & ~(m0 | m2))
                + p2 @ (m2 & ~(m0 | m1))
            )
            rhs = -lk + TWO_PI * (size - e_in + f_in)
            for i in np.flatnonzero(lhs <= rhs + bound).tolist():
                members = c[i].tolist()
                lhs_i, rhs_i = _subset_row(members, n, target, ea, eb, fv, fe, pmp)
                if lhs_i <= rhs_i + tol:
                    return True, members, lhs_i, rhs_i, checked + i + 1
            checked += m
    return False, [], 0.0, 0.0, checked

