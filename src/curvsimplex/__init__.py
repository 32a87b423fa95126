"""Geometry of constant-curvature metric simplices from edge lengths alone.

Realizability tests, barycentric distances, vertex-onto-face projections, and
volumes for Euclidean, hyperbolic, spherical, and general constant-curvature
simplices, cross-checked by an explicit model-space embedding oracle.
"""

__version__ = "0.1.0"

from .domain import (
    EUCLIDEAN,
    HYPERBOLIC,
    SPHERICAL,
    BarycentricPoint,
    CurvatureSpec,
    EdgeLengths,
    Geometry,
    GramMatrix,
    curved_gram,
    euclidean_gram,
    hull_inner_product,
    lift_to_model,
    model_gram,
    unit_model,
)
from .errors import (
    DegenerateDirection,
    DegenerateMinor,
    EmbeddingInconsistency,
    GeometryError,
    GramOverflow,
    NotRealizableInput,
    OutsideLightCone,
    ProjectionDegenerate,
    SingularFace,
    WrongModel,
)
from .metrics import (
    distance,
    euclidean_distance,
    hyperbolic_distance,
    spherical_distance,
)
from .oracle import (Embedding, ModelSpace, brute_distance, brute_project,
                     edge_lengths_of, embed)
from .projection import (
    ProjectionResult,
    euclidean_face_volume,
    euclidean_project,
    euclidean_volume,
    hyperbolic_project,
    project,
    project_onto_subface,
    spherical_project,
)
from .realizability import (
    RealizabilityReport,
    Verdict,
    check,
    check_euclidean,
    check_hyperbolic,
    check_spherical,
)
from .symmat import DEFAULT_TOL, Signature, SymMatrix

__all__ = [
    "BarycentricPoint",
    "CurvatureSpec",
    "DEFAULT_TOL",
    "DegenerateDirection",
    "DegenerateMinor",
    "EdgeLengths",
    "Embedding",
    "EmbeddingInconsistency",
    "EUCLIDEAN",
    "Geometry",
    "GeometryError",
    "GramMatrix",
    "GramOverflow",
    "HYPERBOLIC",
    "ModelSpace",
    "NotRealizableInput",
    "OutsideLightCone",
    "ProjectionDegenerate",
    "ProjectionResult",
    "RealizabilityReport",
    "Signature",
    "SingularFace",
    "SPHERICAL",
    "SymMatrix",
    "Verdict",
    "WrongModel",
    "brute_distance",
    "brute_project",
    "edge_lengths_of",
    "check",
    "check_euclidean",
    "check_hyperbolic",
    "check_spherical",
    "curved_gram",
    "distance",
    "embed",
    "euclidean_distance",
    "euclidean_face_volume",
    "euclidean_gram",
    "euclidean_project",
    "euclidean_volume",
    "hull_inner_product",
    "hyperbolic_distance",
    "hyperbolic_project",
    "lift_to_model",
    "model_gram",
    "project",
    "project_onto_subface",
    "spherical_distance",
    "spherical_project",
    "unit_model",
]
