"""Geometry of constant-curvature metric simplices from edge lengths alone.

Realizability tests, barycentric distances, vertex-onto-face projections, and
volumes for Euclidean, hyperbolic, spherical, and general constant-curvature
simplices, cross-checked by an explicit model-space embedding oracle.

``import curvsimplex`` loads the value types of ``domain``, ``errors`` and
``symmat``, which every call needs.  The operations and the modules
``realizability``, ``metrics``, ``projection`` and ``oracle`` are loaded on
first use (PEP 562), so a call loads only the modules it runs: ``check`` loads
``realizability``, ``distance`` loads ``metrics``, ``project`` and the volumes
load ``projection`` (with ``metrics`` and ``realizability``), and the oracle
names load ``oracle`` (with ``realizability``); the CLI reads them here too.
``__all__`` is the sorted public names that the imports and ``_DEFERRED`` bind.
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

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
from .symmat import DEFAULT_TOL, Signature, SymMatrix

# Deferred names and the module that defines each; the four modules resolve to themselves.
_DEFERRED = {
    **dict.fromkeys(("RealizabilityReport", "Verdict", "check", "realizability"), "realizability"),
    **dict.fromkeys(("distance", "metrics"), "metrics"),
    **dict.fromkeys(("ProjectionResult", "euclidean_face_volume", "euclidean_volume", "project",
                     "projection"), "projection"),
    **dict.fromkeys(("Embedding", "ModelSpace", "brute_distance", "brute_project",
                     "edge_lengths_of", "embed", "oracle"), "oracle"),
}

# The public names, each written once above: what the imports bound, and the deferred operations.
__all__ = sorted({name for name, value in globals().items()
                  if not name.startswith("_") and not isinstance(value, _ModuleType)}
                 | {name for name, module in _DEFERRED.items() if name != module})


def __getattr__(name):
    if name not in _DEFERRED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{_DEFERRED[name]}")
    # Stored, so that every later read is a plain attribute lookup.
    globals()[name] = value = module if name == _DEFERRED[name] else getattr(module, name)
    return value


def __dir__():
    return sorted({*globals(), *_DEFERRED})
