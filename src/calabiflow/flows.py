"""Combinatorial Calabi and Ricci flows on circle packing metrics.

Four flow kinds evolve the log radii ``u``:

* ``calabi``:            du/dt = Delta K        (= -L K)
* ``ricci_normalized``:  du/dt = K_av - K
* ``calabi_prescribed``: du/dt = L (Kbar - K)
* ``ricci_prescribed``:  du/dt = Kbar - K

where ``L`` is the dual Laplacian and ``Kbar`` a prescribed target
curvature (the average curvature for the first two kinds).  The Calabi
kinds are the negative gradient flow of the energy ``sum (K_i - Kbar_i)^2``
and conserve ``sum u_i`` exactly in continuous time; the Ricci kinds are
the negative gradient flow of the Ricci potential.

Integration is explicit Euler with an energy guard: a trial step that
increases the energy (for Calabi kinds) or the Ricci potential difference
along the step segment (for Ricci kinds) is halved and retried, up to
``max_halvings`` times.  The step grows again by ``growth_factor`` after
every ``growth_interval`` consecutive accepted steps, capped at
``max_step``.  ``sum u`` is re-centered every ``recenter_interval``
accepted steps for Calabi kinds to repair floating point drift.

Cost of a trial step: a Calabi trial evaluates the full geometry (lengths,
angles, curvatures, dual weights) once.  A Ricci trial evaluates the
curvatures at the ``2 * guard_panels`` Simpson nodes of its descent guard
past the current point, the last of which is the trial point; they are
batched into one kernel call on meshes of up to 512 faces at the default
``guard_panels=4`` (a few calls on larger meshes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import _kernels
from .errors import DomainError, StepCollapseError
from .geometry import PackingMetric, Weight
from .laplacian import DualLaplacian, assemble
from .mesh import Triangulation, resolve_target

__all__ = [
    "FlowKind",
    "IntegratorOptions",
    "FlowSample",
    "FlowTrace",
    "velocity",
    "integrate",
    "curvature_derivative_check",
]

KIND_NAMES = ("calabi", "ricci_normalized", "calabi_prescribed", "ricci_prescribed")


@dataclass(frozen=True, eq=False)
class FlowKind:
    """One of the four flow kinds, with its target curvature if prescribed.

    An unprescribed ``target`` is ``None``, which :func:`resolve_target`
    reads as the average curvature.
    """

    name: str
    target: Optional[np.ndarray]
    uses_laplacian: bool

    @classmethod
    def calabi(cls) -> "FlowKind":
        return cls("calabi", None, True)

    @classmethod
    def ricci_normalized(cls) -> "FlowKind":
        return cls("ricci_normalized", None, False)

    @classmethod
    def calabi_prescribed(cls, target) -> "FlowKind":
        return cls("calabi_prescribed", np.asarray(target, dtype=np.float64), True)

    @classmethod
    def ricci_prescribed(cls, target) -> "FlowKind":
        return cls("ricci_prescribed", np.asarray(target, dtype=np.float64), False)


@dataclass(frozen=True)
class IntegratorOptions:
    """Explicit Euler controller settings.

    ``max_step`` bounds step regrowth; the large default effectively
    removes the cap, which divergent runs need to reach the ``u_max``
    guard quickly.  Pass a small cap (e.g. ``0.02``) when the measured
    decay rate of a converging run should track continuous time.
    """

    initial_step: float = 1e-2
    max_steps: int = 10**6
    curvature_tol: float = 1e-10
    u_max: float = 50.0
    max_step: float = 1e12
    growth_factor: float = 1.2
    growth_interval: int = 10
    max_halvings: int = 60
    recenter_interval: int = 1000
    guard_panels: int = 4
    sample_target: int = 1000

    def __post_init__(self):
        if not (self.initial_step > 0 and self.max_step > 0):
            raise DomainError("step sizes must be positive")
        if not (self.curvature_tol > 0 and self.u_max > 0):
            raise DomainError("tolerances must be positive")
        # a factor below 1 would shrink the step on every regrowth
        if not self.growth_factor >= 1:
            raise DomainError("growth_factor must be at least 1")
        for name, least in (
            ("max_steps", 1),
            ("growth_interval", 1),
            ("max_halvings", 0),
            ("recenter_interval", 1),
            ("guard_panels", 1),
            ("sample_target", 1),
        ):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < least:
                raise DomainError(f"{name} must be an integer >= {least}")


@dataclass(frozen=True)
class FlowSample:
    """One recorded state of a flow run.

    ``lambda1`` is the first nonzero dual Laplacian eigenvalue at the
    sampled state.  It is computed from ``u`` and the run's mesh and weight
    on first access and then cached, so a run pays for it only on the
    samples that are read.  It is NaN when the state is so degenerate that
    the dual weights do not evaluate in floating point (deep divergent
    escapes).
    """

    t: float
    step_size: float
    u: np.ndarray
    curvatures: np.ndarray
    energy: float
    mesh: Triangulation = field(repr=False, compare=False)
    weight: Weight = field(repr=False, compare=False)

    @cached_property
    def lambda1(self) -> float:
        _, _, _, _, b, _, err = _kernels.state(
            np.exp(self.u), *_mesh_arrays(self.mesh, self.weight)
        )
        if err != _kernels.ERR_OK:
            return float("nan")
        return DualLaplacian(self.mesh.n_vertices, self.mesh.edges, b).lambda1()


@dataclass
class FlowTrace:
    """Full record of a flow run.

    ``samples`` holds the initial state, every ``max(1, k/1000)``-th
    accepted step (``k`` the running count), and the final state.  For
    Calabi kinds every accepted step satisfied the energy guard, so the
    recorded energies are non-increasing.  Each sample's ``lambda1`` is
    computed when it is first read, not during the run.
    """

    kind_name: str
    target: np.ndarray
    status: str
    accepted_steps: int
    t_final: float
    final_metric: PackingMetric
    samples: list[FlowSample] = field(default_factory=list)

    def max_curvature_deviation(self) -> float:
        last = self.samples[-1]
        return float(np.max(np.abs(last.curvatures - self.target)))


def _mesh_arrays(t: Triangulation, w: Weight):
    return t.faces, t.face_edges, t.edges[:, 0], t.edges[:, 1], w.cos_phi


def _state_of(u, t, w):
    _, _, _, curv, b, kn, err = _kernels.state(np.exp(u), *_mesh_arrays(t, w))
    _kernels.raise_state_error(err)
    return curv, b, kn


def velocity(kind: FlowKind, t: Triangulation, w: Weight, m: PackingMetric) -> np.ndarray:
    """The right-hand side du/dt at a metric."""
    target = resolve_target(t, kind.target)
    curv, b, _ = _state_of(m.u, t, w)
    dev = curv - target
    if kind.uses_laplacian:
        return _kernels.lap_apply(b, t.edges[:, 0], t.edges[:, 1], dev)
    return -dev


def integrate(
    kind: FlowKind,
    t: Triangulation,
    w: Weight,
    m0: PackingMetric,
    opts: IntegratorOptions | None = None,
) -> FlowTrace:
    """Run a flow until convergence, divergence, or the step limit.

    Convergence means ``max |K - target| < curvature_tol``; divergence
    means some ``|u_i - u_i(0)|`` exceeded ``u_max``.  Step collapse and
    violations of quantities that are bounded by theory raise; everything
    else is reported through ``FlowTrace.status``.
    """
    opts = opts or IntegratorOptions()
    target = resolve_target(t, kind.target)
    mesh = _mesh_arrays(t, w)
    if m0.n != t.n_vertices:
        raise DomainError("metric size does not match the mesh")

    u = m0.u.copy()
    u_ref = m0.u.copy()
    sum_u0 = float(u.sum())
    curv, b, kn = _state_of(u, t, w)
    energy = float(np.sum((curv - target) ** 2))
    # the Calabi kinds conserve sum u in exact arithmetic; repair the drift
    recenter = kind.uses_laplacian

    samples: list[FlowSample] = []

    def record(t_now, h_now, u_now, curv_now, energy_now):
        samples.append(
            FlowSample(
                t=float(t_now),
                step_size=float(h_now),
                u=u_now.copy(),
                curvatures=curv_now.copy(),
                energy=float(energy_now),
                mesh=t,
                weight=w,
            )
        )

    h = opts.initial_step
    t_now = 0.0
    accepted = 0
    streak = 0
    record(t_now, h, u, curv, energy)

    status = "step_limit"
    if float(np.max(np.abs(curv - target))) < opts.curvature_tol:
        status = "converged"
    last_recorded = 0
    while status == "step_limit" and accepted < opts.max_steps:
        stride = max(1, accepted // opts.sample_target)
        boundaries = [last_recorded + stride - accepted, opts.max_steps - accepted]
        if recenter:
            next_recenter = ((accepted // opts.recenter_interval) + 1) * opts.recenter_interval
            boundaries.append(next_recenter - accepted)
        n_chunk = max(1, min(boundaries))
        adv_status, done, u, h, t_now, streak, curv, b, kn, energy = _kernels.advance(
            u, h, t_now, streak, n_chunk, mesh, target, kind.uses_laplacian, u_ref,
            opts, curv, b, kn, energy,
        )
        accepted += done
        if adv_status == _kernels.ADV_STEP_COLLAPSE:
            raise StepCollapseError(
                f"step collapsed after {opts.max_halvings} halvings at "
                f"t={t_now!r} (step {accepted})"
            )
        if adv_status == _kernels.ADV_CONVERGED:
            status = "converged"
        elif adv_status == _kernels.ADV_DIVERGED:
            status = "diverged"
        terminal = status != "step_limit"
        if recenter and not terminal and accepted % opts.recenter_interval == 0:
            u = u - (u.sum() - sum_u0) / t.n_vertices
            curv, b, kn = _state_of(u, t, w)
            energy = float(np.sum((curv - target) ** 2))
        if accepted - last_recorded >= stride or terminal:
            record(t_now, h, u, curv, energy)
            last_recorded = accepted

    if status == "step_limit" and last_recorded != accepted:
        record(t_now, h, u, curv, energy)

    return FlowTrace(
        kind_name=kind.name,
        target=target,
        status=status,
        accepted_steps=accepted,
        t_final=t_now,
        final_metric=PackingMetric.from_log_radii(u),
        samples=samples,
    )


def curvature_derivative_check(
    kind: FlowKind,
    t: Triangulation,
    w: Weight,
    m: PackingMetric,
    fd_step: float = 1e-6,
) -> float:
    """Residual between the finite-difference curvature derivative along the
    flow and its closed forms.

    Compares ``(K(u + s v) - K(u - s v)) / 2s`` against ``L v``, and for the
    plain Calabi flow also against ``-L (L K)``.  Returns the largest
    absolute residual.
    """
    v = velocity(kind, t, w, m)
    mesh = _mesh_arrays(t, w)

    def curv_at(u):
        k, err = _kernels.curvatures(np.exp(u), *mesh)
        _kernels.raise_state_error(err)
        return k

    fd = (curv_at(m.u + fd_step * v) - curv_at(m.u - fd_step * v)) / (2.0 * fd_step)
    lap = assemble(t, w, m)
    residual = float(np.max(np.abs(fd - lap.matrix @ v)))
    if kind.name == "calabi":
        curv = curv_at(m.u)
        closed = -(lap.matrix @ (lap.matrix @ curv))
        residual = max(residual, float(np.max(np.abs(fd - closed))))
    return residual
