"""Newton solve with its own halving loop: the reference the tests hold
``calabiflow.thurston._newton`` against, iterate for iterate.

This loop solves ``L delta = -(K - target)`` at each iterate, evaluates the
full state of each trial ``u + delta`` and halves ``delta`` until the trial
evaluates and ``||K - target||_2`` strictly falls, at most
``NEWTON_HALVINGS`` times.  The library takes the same steps in
``_kernels.advance`` under the Calabi energy guard, so the iterates it hands
its ``stop`` callback must equal the ones this generator yields, bit for
bit.  The library may end earlier, at a stalled step: one its guard had to
halve that lowered the energy by no more than its rounding, which this loop
has no test for.
"""

import numpy as np

from calabiflow import _kernels
from calabiflow.errors import InternalConsistencyError
from calabiflow.geometry import _mesh_arrays
from calabiflow.laplacian import DualLaplacian
from calabiflow.thurston import NEWTON_STEPS, _at_floor

NEWTON_HALVINGS = 30


def newton(t, w, target, u):
    """Yield ``(u, state)`` at the start and after each step; end after the
    first iterate at the roundoff floor, after ``NEWTON_STEPS`` steps, or
    when ``NEWTON_HALVINGS`` halvings of a step do not lower the norm."""
    n = t.n_vertices
    mesh = _mesh_arrays(t, w)
    with np.errstate(all="ignore"):
        s = _kernels.state(np.exp(u), mesh)
    for _ in range(NEWTON_STEPS):
        yield u, s
        if _at_floor(s, target):
            return
        dev = s.K - target
        delta = DualLaplacian(n, t.edges, s.B).solve(-dev)
        norm = float(np.linalg.norm(dev))
        for _ in range(NEWTON_HALVINGS):
            with np.errstate(all="ignore"):
                r = np.exp(u + delta)
            try:
                trial = _kernels.state(r, mesh)
            except InternalConsistencyError:
                trial = None
            if trial is not None and float(np.linalg.norm(trial.K - target)) < norm:
                u, s = u + delta, trial
                break
            delta = 0.5 * delta
        else:
            return
    yield u, s
