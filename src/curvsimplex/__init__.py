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
    GramMatrix,
    curved_gram,
    euclidean_gram,
    hull_inner_product,
    lift_to_model,
    model_gram,
)
from .errors import (
    DegenerateDirection,
    EmbeddingInconsistency,
    GeometryError,
    GramOverflow,
    NotRealizableInput,
    OutsideLightCone,
    ProjectionDegenerate,
    WrongModel,
)
from .metrics import distance
from .oracle import (Embedding, ModelSpace, brute_distance, brute_project,
                     edge_lengths_of, embed)
from .projection import (
    ProjectionResult,
    euclidean_face_volume,
    euclidean_volume,
    project,
)
from .realizability import (
    RealizabilityReport,
    Verdict,
    check,
)
from .symmat import DEFAULT_TOL, Signature, SymMatrix

__all__ = [
    "BarycentricPoint",
    "CurvatureSpec",
    "DEFAULT_TOL",
    "DegenerateDirection",
    "EdgeLengths",
    "Embedding",
    "EmbeddingInconsistency",
    "EUCLIDEAN",
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
    "SPHERICAL",
    "SymMatrix",
    "Verdict",
    "WrongModel",
    "brute_distance",
    "brute_project",
    "edge_lengths_of",
    "check",
    "curved_gram",
    "distance",
    "embed",
    "euclidean_face_volume",
    "euclidean_gram",
    "euclidean_volume",
    "hull_inner_product",
    "lift_to_model",
    "model_gram",
    "project",
]
