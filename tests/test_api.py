"""The public surface: exported names, and value types that own their arrays."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import calabiflow as cf
from calabiflow.thurston import enumerate_rows

# the modules that declare an __all__
MODULES = ("flows", "geometry", "laplacian", "mesh", "potential", "thurston")

# test-only oracles and wrappers that left the API; the oracles live in
# tests/_geometry_oracle.py, and lambda1 of assemble(t, w, m) is what
# restricted_hessian_check returned
REMOVED = (
    "half_weight_analytic",
    "half_weight_dual",
    "edge_length",
    "velocity",
    "curvature_derivative_check",
    "energy_gradient",
    "scale_metric",
    "constant_curvature_exists",
    "restricted_hessian_check",
)


def test_exported_names_resolve():
    assert len(cf.__all__) == len(set(cf.__all__)) == 37
    for name in cf.__all__:
        assert hasattr(cf, name), name
    for mod_name in MODULES:
        mod = importlib.import_module(f"calabiflow.{mod_name}")
        for name in mod.__all__:
            assert hasattr(mod, name), f"{mod_name}.{name}"


def test_traced_names_exist_where_the_tracer_rebinds_them():
    # perfbench's tracer saves each target from owner.__dict__ and rebinds
    # it there; a renamed kernel would otherwise fail only the traced
    # benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for owner, attr, name, _ in tracing.TARGETS:
        assert callable(owner.__dict__.get(attr)), f"{name}: {owner.__name__}.{attr}"


def test_removed_names_are_not_exported():
    for name in REMOVED:
        assert name not in cf.__all__ and not hasattr(cf, name), name
        for mod_name in MODULES:
            mod = importlib.import_module(f"calabiflow.{mod_name}")
            assert not hasattr(mod, name), f"{mod_name}.{name}"


def test_lambda1_is_the_only_spectrum():
    for name in ("spectral_summary", "eigenvalues", "apply"):
        assert not hasattr(cf.DualLaplacian, name), name


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


# each entry point as a call on (mesh, weight, metric) on the tetrahedron;
# those not in TAKES_METRIC ignore the metric
K_AV = np.full(4, np.pi)
FIT_CALLS = {
    "compute_geometry": cf.compute_geometry,
    "calabi_energy": cf.calabi_energy,
    "assemble": cf.assemble,
    "integrate": lambda t, w, m: cf.integrate(cf.FlowKind.calabi(), t, w, m),
    "ricci_potential": lambda t, w, m: cf.ricci_potential(
        t, w, np.zeros(4), np.linspace(-1.0, 1.0, 4)
    ),
    "check_admissible": lambda t, w, m: cf.check_admissible(t, w, K_AV),
    "enumerate_rows": lambda t, w, m: enumerate_rows(t, w, K_AV),
    "constant_curvature_log_metric": cf.constant_curvature_log_metric,
    "properness_probe": cf.properness_probe,
}
TAKES_METRIC = (
    "compute_geometry",
    "calabi_energy",
    "assemble",
    "integrate",
    "constant_curvature_log_metric",
    "properness_probe",
)
FIT_CASES = [(name, "weight", size) for name in FIT_CALLS for size in (7, 5)] + [
    (name, "metric", size) for name in TAKES_METRIC for size in (5, 3)
]


@pytest.mark.parametrize(
    "name, what, size", FIT_CASES, ids=[f"{n}-{w}-{s}" for n, w, s in FIT_CASES]
)
def test_inputs_that_do_not_fit_the_mesh_are_refused(name, what, size):
    # one entry too many or too few, in the weight (6 edges) or the metric
    # (4 vertices); every entry point refuses it with the same wording
    t = cf.parse_mesh(cf.mesh_text("tetrahedron"))
    w = cf.Weight(np.full(size if what == "weight" else 6, 0.3))
    m = cf.PackingMetric.from_radii(np.ones(size if what == "metric" else 4))
    want = {"weight": "6 edges", "metric": "4 vertices"}[what]
    with pytest.raises(cf.DomainError) as exc:
        FIT_CALLS[name](t, w, m)
    assert str(exc.value) == f"{what} has {size} entries for {want}"


# each entry point that takes a target, as a call on (mesh, weight, target)
# on the tetrahedron
UNIT = cf.PackingMetric.from_radii(np.ones(4))
TARGET_CALLS = {
    "check_admissible": cf.check_admissible,
    "enumerate_rows": enumerate_rows,
    "integrate": lambda t, w, tgt: cf.integrate(
        cf.FlowKind.calabi_prescribed(tgt), t, w, UNIT
    ),
    "ricci_potential": lambda t, w, tgt: cf.ricci_potential(
        t, w, np.zeros(4), np.linspace(-1.0, 1.0, 4), target=tgt
    ),
    "calabi_energy": lambda t, w, tgt: cf.calabi_energy(t, w, UNIT, target=tgt),
}


@pytest.mark.parametrize("name", list(TARGET_CALLS))
def test_targets_that_do_not_fit_the_mesh_are_refused(name):
    # one entry too few or too many, in the wording of the weight and metric
    # checks; a target that is not a vector is refused by its shape
    t = cf.parse_mesh(cf.mesh_text("tetrahedron"))
    w = cf.Weight(np.full(6, 0.3))
    for size in (3, 5):
        with pytest.raises(cf.DomainError) as exc:
            TARGET_CALLS[name](t, w, np.full(size, np.pi))
        assert str(exc.value) == f"target has {size} entries for 4 vertices"
    with pytest.raises(cf.DomainError) as exc:
        TARGET_CALLS[name](t, w, np.full((2, 2), np.pi))
    assert "(2, 2)" in str(exc.value)
