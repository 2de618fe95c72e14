"""The public surface: exported names, and value types that own their arrays."""

import importlib

import numpy as np
import pytest

import calabiflow as cf

# the modules that declare an __all__
MODULES = ("flows", "geometry", "laplacian", "mesh", "potential", "thurston")

# test-only oracles and wrappers that left the API; the oracles live in
# tests/_geometry_oracle.py
REMOVED = (
    "half_weight_analytic",
    "half_weight_dual",
    "edge_length",
    "velocity",
    "curvature_derivative_check",
    "energy_gradient",
    "scale_metric",
    "constant_curvature_exists",
)


def test_exported_names_resolve():
    assert len(cf.__all__) == len(set(cf.__all__)) == 38
    for name in cf.__all__:
        assert hasattr(cf, name), name
    for mod_name in MODULES:
        mod = importlib.import_module(f"calabiflow.{mod_name}")
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod_name}.{name}"


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in cf.__all__ and not hasattr(cf, name), name
        for mod_name in MODULES:
            mod = importlib.import_module(f"calabiflow.{mod_name}")
            assert not hasattr(mod, name), f"{mod_name}.{name}"


TETRA = np.array([(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], dtype=np.int64)


@pytest.mark.parametrize(
    "build, given, stored",
    [
        (lambda a: cf.Triangulation(4, a), TETRA, lambda t: t.faces),
        (cf.Weight, np.full(6, 0.3), lambda w: w.phi),
        (cf.PackingMetric.from_radii, np.linspace(0.5, 2.0, 4), lambda m: m.r),
        (cf.PackingMetric.from_log_radii, np.linspace(-0.5, 0.5, 4), lambda m: m.u),
    ],
    ids=["Triangulation", "Weight", "from_radii", "from_log_radii"],
)
def test_value_types_copy_the_arrays_they_freeze(build, given, stored):
    a = given.copy()
    held = stored(build(a))
    assert a.flags.writeable
    assert held is not a and not np.shares_memory(held, a)
    assert not held.flags.writeable
    a.flat[0] += 1  # the caller's edit does not reach the value
    assert held.flat[0] == given.flat[0]
