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

Integration is explicit Euler with a descent guard on the energy (Calabi
kinds) or the Ricci potential (Ricci kinds).  :func:`_kernels.advance` runs
the loop in one floating point scope; its docstring describes the step
controller, the staged Calabi trial (the guard's roundoff allowance only
when the energy rose), the stopping tests, the re-centering and sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import _kernels
from .errors import DomainError, StepCollapseError
from .geometry import PackingMetric, Weight, _mesh_arrays
from .laplacian import DualLaplacian
from .mesh import Triangulation, resolve_target

__all__ = [
    "FlowKind",
    "IntegratorOptions",
    "FlowSample",
    "FlowTrace",
    "integrate",
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
    """The explicit Euler settings a caller may vary: one per ``flow`` flag.

    ``max_step`` bounds step regrowth; the large default effectively
    removes the cap, which divergent runs need to reach the ``u_max``
    guard quickly.  Pass a small cap (e.g. ``0.02``) when the measured
    decay rate of a converging run should track continuous time.  ``u_max``
    and ``max_step`` may be infinite.  The other settings are constants of
    ``_kernels``: ``MAX_HALVINGS``, ``GROWTH_FACTOR``, ``GROWTH_INTERVAL``,
    ``RECENTER_INTERVAL`` and ``SAMPLE_TARGET``.
    """

    initial_step: float = 1e-2
    max_steps: int = 10**6
    curvature_tol: float = 1e-10
    u_max: float = 50.0
    max_step: float = 1e12

    def __post_init__(self):
        # an infinite first step collapses, and an infinite tolerance
        # reports any start as converged
        if not (0 < self.initial_step < np.inf and 0 < self.curvature_tol < np.inf):
            raise DomainError("initial_step and curvature_tol must be finite and > 0")
        if not (self.max_step > 0 and self.u_max > 0):
            raise DomainError("max_step and u_max must be positive")
        # a bool is an int to isinstance, but not a step count
        integral = isinstance(self.max_steps, (int, np.integer))
        if not integral or isinstance(self.max_steps, bool) or self.max_steps < 1:
            raise DomainError("max_steps must be an integer >= 1")


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
        s = _kernels.state(np.exp(self.u), _mesh_arrays(self.mesh, self.weight))
        if s.err != _kernels.ERR_OK:
            return float("nan")
        return DualLaplacian(self.mesh.n_vertices, self.mesh.edges, s.B).lambda1()


@dataclass
class FlowTrace:
    """Full record of a flow run.

    ``samples`` holds the initial state, every
    ``max(1, k // _kernels.SAMPLE_TARGET)``-th accepted step (``k`` the
    running count; see ``_kernels.advance``), and the final state.  For
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
    mesh = _mesh_arrays(t, w, m0)

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

    status, steps, u, t_final = _kernels.advance(
        m0.u.copy(), mesh, target, kind.uses_laplacian, opts, record
    )
    if status == "collapsed":
        raise StepCollapseError(
            f"step collapsed after {_kernels.MAX_HALVINGS} halvings at "
            f"t={t_final!r} (step {steps})"
        )
    return FlowTrace(
        kind_name=kind.name,
        target=target,
        status=status,
        accepted_steps=steps,
        t_final=t_final,
        final_metric=PackingMetric.from_log_radii(u),
        samples=samples,
    )
