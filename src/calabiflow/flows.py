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

A Ricci step is explicit Euler; a Calabi step takes the fewest damped Runge-
Kutta-Chebyshev stages a certified stiffness bound allows (one stage is the
Euler step).  Each has a descent guard on the energy (Calabi kinds) or the
Ricci potential (Ricci kinds).  :func:`_kernels.advance` runs the loop in
one floating point scope; its docstring describes the controller, the stage
rule, the staged Calabi guard, the stopping tests, ``sum u`` and sampling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from . import _kernels
from .errors import DomainError, InternalConsistencyError
from .geometry import PackingMetric, Weight, _mesh_arrays
from .laplacian import DualLaplacian
from .mesh import Triangulation, resolve_target, subcomplex_euler
from .thurston import check_gauss_bonnet

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

    ``name`` is one of ``KIND_NAMES``; a ``target`` is given exactly for
    the two ``_prescribed`` kinds (``DomainError`` otherwise).  An
    unprescribed ``target`` is ``None``, which :func:`resolve_target` reads
    as the average curvature.
    """

    name: str
    target: Optional[np.ndarray] = None

    def __post_init__(self):
        if self.name not in KIND_NAMES:
            raise DomainError(f"unknown flow kind {self.name!r}; expected one of {KIND_NAMES}")
        if self.name.endswith("_prescribed") != (self.target is not None):
            needs = "needs a" if self.target is None else "takes no"
            raise DomainError(f"flow kind {self.name!r} {needs} target")
        if self.target is not None:
            object.__setattr__(self, "target", np.asarray(self.target, dtype=np.float64))

    @property
    def uses_laplacian(self) -> bool:
        return self.name.startswith("calabi")

    @classmethod
    def calabi(cls) -> "FlowKind":
        return cls("calabi")

    @classmethod
    def ricci_normalized(cls) -> "FlowKind":
        return cls("ricci_normalized")

    @classmethod
    def calabi_prescribed(cls, target) -> "FlowKind":
        return cls("calabi_prescribed", target)

    @classmethod
    def ricci_prescribed(cls, target) -> "FlowKind":
        return cls("ricci_prescribed", target)


@dataclass(frozen=True)
class IntegratorOptions:
    """The step controller settings a caller may vary: one per ``flow`` flag.

    ``max_step`` bounds step regrowth; the large default effectively
    removes the cap, which divergent runs need to reach the ``u_max``
    guard quickly.  Pass a small cap (e.g. ``0.02``) when the measured
    decay rate of a converging run should track continuous time.  ``u_max``
    and ``max_step`` may be infinite.  The other settings are constants of
    ``_kernels``: ``INITIAL_STEP``, ``MAX_HALVINGS``, ``GROWTH_FACTOR``,
    ``GROWTH_INTERVAL``, ``SAMPLE_TARGET``, ``RKC_DAMPING``, ``MAX_STAGES``.
    """

    max_steps: int = 10**6
    curvature_tol: float = 1e-10
    u_max: float = 50.0
    max_step: float = 1e12

    def __post_init__(self):
        # an infinite tolerance reports any start as converged
        for name, must in (("curvature_tol", "finite and > 0"),
                           ("max_step", "positive"), ("u_max", "positive")):
            value = getattr(self, name)
            if not (value > 0 and (value < np.inf or must == "positive")):
                raise DomainError(f"{name} must be {must}, got {value}")
        # a bool is an int to isinstance, but not a step count
        integral = isinstance(self.max_steps, (int, np.integer))
        if not integral or isinstance(self.max_steps, bool) or self.max_steps < 1:
            raise DomainError(f"max_steps must be an integer >= 1, got {self.max_steps}")


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
        try:
            s = _kernels.state(np.exp(self.u), _mesh_arrays(self.mesh, self.weight))
        except InternalConsistencyError:
            return float("nan")
        return DualLaplacian(self.mesh.n_vertices, self.mesh.edges, s.B).lambda1()


@dataclass
class FlowTrace:
    """Full record of a flow run.

    ``samples`` holds the initial state, every
    ``max(1, k // _kernels.SAMPLE_TARGET)``-th accepted step (``k`` the
    running count; see ``_kernels.advance``), and the final state.  For
    Calabi kinds every accepted step passed the energy guard, which allows
    a rise within roundoff: on a 2e4-step escape toward the inadmissible
    tetrahedron target about a third of the samples rise, by up to 5e-7,
    while converging runs at N = 18 and 66 (200 to 14 471 steps) showed
    none.  Each sample's ``lambda1`` is computed when it is first read, not
    during the run.  ``evaluations`` counts the geometry evaluations of
    trials and Calabi stages.
    """

    kind_name: str
    target: np.ndarray
    status: str
    accepted_steps: int
    evaluations: int
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
    means some ``|u_i - u_i(0)|`` exceeded ``u_max``.  A target whose sum
    is not ``2 pi chi`` on the surface, or on a component of it, raises
    ``DomainError``; step collapse and violations of quantities bounded by
    theory raise too.  Everything else is reported through ``FlowTrace.status``.
    """
    opts = opts or IntegratorOptions()
    target = resolve_target(t, kind.target)
    parts = [(target, t.chi, "")]
    for root in [] if t.connected else np.unique(t.components).tolist():
        inside = np.flatnonzero(t.components == root)
        where = f" on the component of vertex {root}"
        parts.append((target[inside], subcomplex_euler(t, inside), where))
    for part, chi, where in parts:
        if not check_gauss_bonnet(part, chi):
            raise DomainError(f"the target curvature sums to {float(np.sum(part))!r}{where}; "
                              f"Gauss-Bonnet requires 2 pi chi = {2.0 * np.pi * chi!r}")
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

    status, steps, u, t_final, evaluations = _kernels.advance(
        m0.u.copy(), mesh, target, kind.uses_laplacian, opts, record
    )
    return FlowTrace(
        kind_name=kind.name,
        target=target,
        status=status,
        accepted_steps=steps,
        evaluations=evaluations,
        t_final=t_final,
        final_metric=PackingMetric.from_log_radii(u),
        samples=samples,
    )
