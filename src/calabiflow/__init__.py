"""Circle packing metrics with prescribed combinatorial curvature.

A circle packing metric on a closed weighted triangulated surface assigns
a radius to every vertex; edge lengths follow from the radii and the edge
weights by the cosine law, and each vertex carries a combinatorial
curvature (angle defect).  This package computes those quantities, decides
when a target curvature is attainable (Thurston's condition), and finds
the realizing metric by integrating the combinatorial Calabi flow or the
combinatorial Ricci flow.

The hot loops (geometry evaluation, the guarded flow step, the
Gauss-Legendre segment of the Ricci potential and the admissibility scan)
are vectorized numpy kernels; :func:`active_backend` names that backend, ``"numpy"``.
"""

from ._kernels import active_backend
from .errors import (
    DegenerateTriangleError,
    DomainError,
    EnumerationSizeError,
    InternalConsistencyError,
    MeshError,
    MeshSyntaxError,
    MeshValidationError,
    NoConstantCurvatureMetric,
    QuadratureError,
    StepCollapseError,
)
from .flows import (
    FlowKind,
    FlowSample,
    FlowTrace,
    IntegratorOptions,
    integrate,
)
from .geometry import (
    GeometryState,
    PackingMetric,
    Weight,
    compute_geometry,
    triangle_angles,
)
from .laplacian import DualLaplacian, assemble
from .mesh import (
    Triangulation,
    VertexSubset,
    link_pairs,
    parse_mesh,
    subcomplex_euler,
)
from .meshes import mesh_text
from .potential import (
    calabi_energy,
    constant_curvature_log_metric,
    properness_probe,
    ricci_potential,
)
from .thurston import AdmissibilityReport, check_admissible, check_gauss_bonnet

__version__ = "0.1.0"

__all__ = [
    "AdmissibilityReport",
    "DegenerateTriangleError",
    "DomainError",
    "DualLaplacian",
    "EnumerationSizeError",
    "FlowKind",
    "FlowSample",
    "FlowTrace",
    "GeometryState",
    "IntegratorOptions",
    "InternalConsistencyError",
    "MeshError",
    "MeshSyntaxError",
    "MeshValidationError",
    "NoConstantCurvatureMetric",
    "PackingMetric",
    "QuadratureError",
    "StepCollapseError",
    "Triangulation",
    "VertexSubset",
    "Weight",
    "active_backend",
    "assemble",
    "calabi_energy",
    "check_admissible",
    "check_gauss_bonnet",
    "compute_geometry",
    "constant_curvature_log_metric",
    "integrate",
    "link_pairs",
    "mesh_text",
    "parse_mesh",
    "properness_probe",
    "ricci_potential",
    "subcomplex_euler",
    "triangle_angles",
    "__version__",
]
