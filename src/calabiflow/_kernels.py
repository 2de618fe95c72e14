"""Hot numeric kernels, vectorized with numpy.

The geometry kernels are array-in / array-out.  The step controller
:func:`advance` takes the flow state as arrays, the mesh as the 5-tuple
``(fv, fe, ea, eb, cphi)`` described in :func:`_state`, and its settings
as one options object (``flows.IntegratorOptions``).  The public names are
``state``, ``curvatures``, ``lap_apply``, ``segment_potential``,
``advance`` and ``scan_subsets``.  Kernels call each other by their private
names, so rebinding a public name (to time it, say) sees only outside
callers.

Accumulation orders are fixed (face-major for curvatures and edge weights,
two passes over edges for Laplacian application), so repeated runs are
deterministic.

Batch axis: ``curvatures`` also takes radii of shape (m, n), m metrics
on one mesh, and returns curvatures of shape (m, n).  Each row is computed
by the same elementwise operations, in the same accumulation order, as a
call on that row alone, so every row equals the one-metric result bit for
bit.  The Simpson segment evaluates its nodes this way, in row blocks (see
``BLOCK_FACES``).

Error reporting: the geometry kernels return an integer code instead of
raising, because the step controller in :func:`advance` treats a trial
whose geometry does not evaluate cleanly as one more rejected trial, not as
a failure of the run.  Callers outside the controller translate nonzero
codes via :func:`raise_state_error`.  A non-finite corner cosine takes
precedence over one past the clamp tolerance.  On a batch every row has
its own code, and the call reports the code of the first row that fails;
a failing row does not change the values of the other rows.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import InternalConsistencyError

SQRT3 = math.sqrt(3.0)
TWO_SQRT3 = 2.0 * SQRT3
CLAMP_TOL = 1e-9

# state error codes
ERR_OK = 0
ERR_CLAMP = 1
ERR_WEIGHT_BOUNDS = 2
ERR_NONFINITE = 3

# advance termination codes
ADV_CHUNK_DONE = 0
ADV_CONVERGED = 1
ADV_DIVERGED = 2
ADV_STEP_COLLAPSE = 3

# Simpson nodes are evaluated in row blocks of at most BLOCK_FACES // F
# metrics per curvature call (F faces).  A block saves the per-call overhead
# that dominates on small meshes.  Past about 2**12 faces per block the
# time per node rose again on subdivided octahedra (N = 6 ... 1026), as a
# block's temporaries outgrow the caches; the bound also keeps a block's
# memory a few hundred kB at any panel count.
BLOCK_FACES = 2**12

# margin (in log-radius units) past the divergence guard inside which trial
# steps are still evaluated; beyond it they are rejected unevaluated so that
# exp() cannot overflow while probing huge step sizes
TRIAL_MARGIN = 5.0

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


def raise_state_error(err: int):
    if err == ERR_CLAMP:
        raise InternalConsistencyError(
            "cosine-law value left [-1, 1] by more than the clamp tolerance; "
            "a triangle inequality that is guaranteed for weights in [0, pi/2] "
            "failed"
        )
    if err == ERR_WEIGHT_BOUNDS:
        raise InternalConsistencyError(
            "an edge weight left the open interval (0, 2*sqrt(3)) that theory "
            "guarantees"
        )
    if err == ERR_NONFINITE:
        raise InternalConsistencyError("non-finite value in geometry evaluation")
    if err != ERR_OK:
        raise InternalConsistencyError(f"unknown kernel error code {err}")


def _cosine_error(c):
    """Error code of one metric's corner cosines ``c`` (F, 3): a non-finite
    value takes precedence over a value past the clamp tolerance."""
    if not np.all(np.isfinite(c)):
        return ERR_NONFINITE
    if c.size and float(np.max(np.abs(c))) - 1.0 > CLAMP_TOL:
        return ERR_CLAMP
    return ERR_OK


def _corners(r, fv, fe, ea, eb, cphi):
    """Edge lengths, per-face lengths, clamped corner cosines, corner angles,
    curvatures and error code: the part :func:`_state`, :func:`_curvatures`
    and the dual route of ``laplacian`` share.  Call under
    ``np.errstate(all="ignore")``.

    ``r`` is one metric (n,) or a batch of metrics (m, n); every array
    returned gains the same leading axis, and the error code is that of
    the first row that fails (see the module docstring).
    """
    n = r.shape[-1]
    # take() keeps a batch C-contiguous; fancy indexing after an ellipsis
    # would make the batch axis the innermost in memory
    ra = r.take(ea, axis=-1)
    rb = r.take(eb, axis=-1)
    lens = np.sqrt(ra * ra + rb * rb + 2.0 * ra * rb * cphi)
    L = lens.take(fe, axis=-1)
    c = np.empty_like(L)
    for m in range(3):
        p = (m + 1) % 3
        q = (m + 2) % 3
        c[..., m] = (
            L[..., p] * L[..., p] + L[..., q] * L[..., q] - L[..., m] * L[..., m]
        ) / (2.0 * L[..., p] * L[..., q])
    corners = fv.ravel()
    if r.ndim == 1:
        err = _cosine_error(c)
    else:
        # a row fails exactly when its largest |cosine| is past the clamp
        # tolerance or NaN (np.max propagates NaN); that row then gets the
        # one-metric verdict
        worst = np.max(np.abs(c).reshape(r.shape[0], -1), axis=1)
        bad = np.flatnonzero(~(worst - 1.0 <= CLAMP_TOL))
        err = _cosine_error(c[bad[0]]) if bad.size else ERR_OK
        corners = (np.arange(r.shape[0])[:, None] * n + corners).ravel()
    cc = np.clip(c, -1.0, 1.0)
    ang = np.arccos(cc)
    K = np.full(r.shape, 2.0 * math.pi)
    np.add.at(K.reshape(-1), corners, -ang.ravel())
    return lens, L, cc, ang, K, err


def _state(r, fv, fe, ea, eb, cphi):
    """Lengths, angles, half weights, curvatures, edge weights and curvature
    noise bounds of a metric.

    Parameters are the radii ``r`` plus static mesh arrays: faces ``fv``
    (F, 3), per-face opposite-edge ids ``fe`` (F, 3), edge endpoint arrays
    ``ea``/``eb`` (E,), and per-edge weight cosines ``cphi`` (E,).

    Non-finite intermediates are reported through the returned error code,
    so floating point warnings are suppressed for the whole evaluation.
    """
    with np.errstate(all="ignore"):
        lens, L, cc, ang, K, err = _corners(r, fv, fe, ea, eb, cphi)
        kappa = np.empty_like(L)
        for m in range(3):
            p = (m + 1) % 3
            q = (m + 2) % 3
            kappa[:, m] = (
                L[:, p] * L[:, p] + L[:, q] * L[:, q] + L[:, m] * L[:, m]
            ) / (2.0 * L[:, p] * L[:, q])
        sin = np.sqrt(1.0 - cc * cc)
        corner_noise = NOISE_ULPS * EPS * (kappa / np.maximum(sin, 1e-300) + 4.0)

        # Half weight of the edge opposite corner m (joining corners p and q):
        # the derivative of the angle at p with respect to the log-radius at q.
        halves = np.empty_like(L)
        rv = r[fv]
        cphi_f = cphi[fe]
        for m in range(3):
            p = (m + 1) % 3
            q = (m + 2) % 3
            r_c = rv[:, p]
            r_m = rv[:, q]
            r_o = rv[:, m]
            l_cm = L[:, m]
            l_co = L[:, q]
            l_mo = L[:, p]
            bracket = (r_m + r_o * cphi_f[:, p]) - (l_mo * cc[:, q] / l_cm) * (
                r_m + r_c * cphi_f[:, m]
            )
            halves[:, m] = r_m / (l_cm * l_co * sin[:, p]) * bracket

        kn = np.zeros(r.shape[0])
        np.add.at(kn, fv.ravel(), corner_noise.ravel())
        B = np.zeros(ea.shape[0])
        np.add.at(B, fe.ravel(), halves.ravel())
        if err == ERR_OK:
            if not (np.all(np.isfinite(B)) and np.all(np.isfinite(K))):
                err = ERR_NONFINITE
            elif float(B.min()) <= 0.0 or float(B.max()) >= TWO_SQRT3:
                err = ERR_WEIGHT_BOUNDS
    return lens, ang, halves, K, B, kn, err


def _curvatures(r, fv, fe, ea, eb, cphi):
    """Curvatures only; the cheap evaluation of one metric or a batch."""
    with np.errstate(all="ignore"):
        _, _, _, _, K, err = _corners(r, fv, fe, ea, eb, cphi)
    return K, err


def _lap_apply(weights, ea, eb, x):
    """Discrete Laplacian: (apply)_i = sum_j B_ij (x_j - x_i)."""
    d = weights * (x[eb] - x[ea])
    out = np.zeros(x.shape[0])
    np.add.at(out, ea, d)
    np.add.at(out, eb, -d)
    return out


def _energy_noise(K, kn, target, energy):
    """Roundoff bound for the energy sum(K - target)^2 given curvature noise."""
    w = np.abs(K - target)
    return float(np.sum((2.0 * w + kn) * kn)) + 32.0 * EPS * energy


def _simpson(u0, du, target, panels, fv, fe, ea, eb, cphi, K0=None):
    """Composite Simpson quadrature of the curvature one-form on a segment,
    plus the curvatures at its far end.

    Integrates g(s) = <K(u0 + s du) - target, du> for s in [0, 1] with
    ``panels`` Simpson panels (2*panels + 1 nodes).  The nodes are
    evaluated in row blocks of at most ``BLOCK_FACES // F`` metrics, one
    curvature call per block, and the weighted terms are summed in node
    order.  ``K0``, the curvatures at ``u0`` when the caller already holds
    them, saves the evaluation of node 0.  Returns ``(value, K(u0 + du),
    err)``; on a failed evaluation the value is NaN and ``err`` the code of
    the first failing node.
    """
    m2 = 2 * panels
    rows = max(1, BLOCK_FACES // fv.shape[0])
    total = 0.0
    k = 0
    if K0 is not None:
        total += float(np.dot(K0 - target, du))  # node 0 has weight 1
        k = 1
    while k <= m2:
        stop = min(k + rows, m2 + 1)
        s = np.arange(k, stop) / m2
        # radii that overflow to inf are reported by the error code, so the
        # exponential is taken under the same errstate as the curvatures
        with np.errstate(all="ignore"):
            r = np.exp(u0 + s[:, None] * du)
            _, _, _, _, Kb, err = _corners(r, fv, fe, ea, eb, cphi)
        if err != ERR_OK:
            return math.nan, None, err
        for j, d in enumerate(Kb - target, k):
            if j == 0 or j == m2:
                w = 1.0
            elif j % 2 == 1:
                w = 4.0
            else:
                w = 2.0
            total += w * float(np.dot(d, du))
        k = stop
    return total / (3.0 * m2), Kb[-1], ERR_OK


def _segment_potential(u0, du, target, panels, fv, fe, ea, eb, cphi):
    """Composite Simpson quadrature of the curvature one-form on a segment
    (see :func:`_simpson`); returns ``(value, err)``.

    Its 2*panels + 1 nodes take ``ceil((2*panels + 1) / max(1,
    BLOCK_FACES // F))`` curvature calls.  The descent guard of a Ricci
    trial in :func:`advance` already holds node 0, so it takes
    ``ceil(2*panels / max(1, BLOCK_FACES // F))``.
    """
    value, _, err = _simpson(u0, du, target, panels, fv, fe, ea, eb, cphi)
    return value, err


def advance(
    u, h, t, streak, n_accept, mesh, target, lap_kind, u_ref, opts, K, B, kn, energy
):
    """Advance the flow by up to ``n_accept`` accepted explicit Euler steps.

    ``mesh`` is the 5-tuple ``(fv, fe, ea, eb, cphi)`` of :func:`_state`,
    and ``opts`` an ``IntegratorOptions``, of which the controller reads
    ``curvature_tol``, ``u_max``, ``max_step``, ``max_halvings``,
    ``growth_factor``, ``growth_interval`` and ``guard_panels``.  The caller
    supplies the current state quantities (K, B, kn, energy) consistent with
    ``u`` and receives the updated ones back.  A Calabi trial makes one
    geometry call (:func:`_state`).  A Ricci trial makes
    ``ceil(2 * guard_panels / max(1, BLOCK_FACES // F))`` curvature calls
    for its descent guard, which covers the trial point itself: one call
    for ``guard_panels=4`` on meshes of up to 512 faces.  Returns
    ``(status, done, u, h, t, streak, K, B, kn, energy)``.
    """
    _, _, ea, eb, _ = mesh
    done = 0
    while done < n_accept:
        w = K - target
        if lap_kind:
            v = _lap_apply(B, ea, eb, w)
            noise = _energy_noise(K, kn, target, energy)
        else:
            v = -w
            noise = 0.0
        accepted = False
        u_new = u
        K_new = K
        B_new = B
        kn_new = kn
        e_new = energy
        for _ in range(opts.max_halvings + 1):
            u_new = u + h * v
            if float(np.max(np.abs(u_new - u_ref))) > opts.u_max + TRIAL_MARGIN:
                h *= 0.5
                streak = 0
                continue
            # a trial whose geometry does not evaluate cleanly is rejected
            # like any other failed trial; only accepted states carry the
            # guarantee of a clean evaluation.  Ricci kinds evaluate only the
            # curvature map at trials: their velocity and descent guard never
            # touch the dual weights, whose formula degenerates in floating
            # point on deep escapes long before the curvature map does.
            if lap_kind:
                _, _, _, K_new, B_new, kn_new, err = _state(np.exp(u_new), *mesh)
            else:
                # the descent guard's quadrature reuses K at its node 0, and
                # its last node, u + 1.0 * (h v), is u_new: one block call
                # yields both the guard and K_new
                df, K_new, err = _simpson(u, h * v, target, opts.guard_panels, *mesh, K)
            if err != ERR_OK:
                h *= 0.5
                streak = 0
                continue
            e_new = float(np.sum((K_new - target) ** 2))
            if lap_kind:
                allow = noise + _energy_noise(K_new, kn_new, target, e_new)
                ok = e_new <= energy + allow
            else:
                ok = df <= 0.0
            if ok:
                accepted = True
                break
            h *= 0.5
            streak = 0
        if not accepted:
            return ADV_STEP_COLLAPSE, done, u, h, t, streak, K, B, kn, energy
        t += h
        u = u_new
        K = K_new
        B = B_new
        kn = kn_new
        energy = e_new
        done += 1
        streak += 1
        if streak >= opts.growth_interval:
            grown = h * opts.growth_factor
            h = grown if grown < opts.max_step else opts.max_step
            streak = 0
        if float(np.max(np.abs(K - target))) < opts.curvature_tol:
            return ADV_CONVERGED, done, u, h, t, streak, K, B, kn, energy
        if float(np.max(np.abs(u - u_ref))) > opts.u_max:
            return ADV_DIVERGED, done, u, h, t, streak, K, B, kn, energy
    return ADV_CHUNK_DONE, done, u, h, t, streak, K, B, kn, energy


def scan_subsets(n, target, ea, eb, fv, fe, pmp, tol):
    """Admissibility scan over all nonempty proper vertex subsets.

    Enumerates subsets by (size, lexicographic member order) and stops at
    the first violating subset, so the reported subset is minimal in that
    order.  Returns ``(found, members, lhs, rhs, checked)``.
    """
    checked = 0
    two_pi = 2.0 * math.pi
    inside = np.zeros(n, dtype=np.bool_)
    for size in range(1, n):
        c = list(range(size))
        while True:
            inside[:] = False
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
            chi_sub = size - e_in + f_in
            rhs = -lk + two_pi * chi_sub
            checked += 1
            if lhs <= rhs + tol:
                return True, list(c), lhs, rhs, checked
            i = size - 1
            while i >= 0 and c[i] == n - size + i:
                i -= 1
            if i < 0:
                break
            c[i] += 1
            for j in range(i + 1, size):
                c[j] = c[j - 1] + 1
    return False, [], 0.0, 0.0, checked


# The kernels above also call these by their private names.
state = _state
curvatures = _curvatures
lap_apply = _lap_apply
segment_potential = _segment_potential
