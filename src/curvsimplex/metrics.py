"""Distances between barycentric points, one formula per curvature class.

Euclidean distances come from the apex Gram quadratic form; hyperbolic and
spherical distances from normalized vertex-Gram inner products.  The
arccosh/arccos arguments are clamped at their boundary inside a small guard
band; beyond the band on the invalid side the input is rejected rather than
silently clamped.
"""

from __future__ import annotations

import math

import numpy as np

from .domain import (
    BarycentricPoint,
    CurvatureSpec,
    EdgeLengths,
    GramMatrix,
    _vertex_gram_data,
    model_gram,
)
from .errors import (
    DegenerateDirection,
    NotRealizableInput,
    OutsideLightCone,
    WrongModel,
)

# How far past 1 an arccosh / arccos argument may round and still be clamped to 1.
CLAMP_BAND = 1e-12
# How far below 0 a squared Euclidean distance may round and still be clamped to 0.
SQUARED_DISTANCE_FLOOR = 1e-9


def euclidean_distance(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint,
                       tol: float = SQUARED_DISTANCE_FLOOR) -> float:
    """sqrt([x-y]^T Q [x-y]) with the apex coordinate dropped."""
    if q.apex is None:
        raise WrongModel("euclidean_distance needs an apex Gram matrix")
    m = q.matrix.data
    k = m.shape[0] + 1
    if x.coords.size != k or y.coords.size != k:
        raise ValueError("coordinate length does not match the simplex")
    diff = np.delete(x.coords - y.coords, q.apex - 1)
    val = float(diff @ m @ diff)
    if val < 0:
        if val < -tol:
            raise NotRealizableInput(f"negative squared distance {val}")
        val = 0.0
    return math.sqrt(val)


def _inner_products(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint):
    """(<x,x>, <y,y>, <x,y>) through the vertex Gram matrix, forming x^T Q once.

    Each product is (x^T Q) y, associated as in ``hull_inner_product``.
    """
    m = _vertex_gram_data(q, x, y)
    xq = x.coords @ m
    return float(xq @ x.coords), float(y.coords @ m @ y.coords), float(xq @ y.coords)


def _cosine(sx: float, sy: float, sxy: float) -> float:
    """sxy / sqrt(sx * sy) for same-signed norms, without overflowing sx * sy."""
    big = max(abs(sx), abs(sy))  # one ratio is then exactly 1: cos(x, x) stays 1
    return (sxy / big) / math.sqrt((sx / big) * (sy / big))


def hyperbolic_distance(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint) -> float:
    """arccosh(-<x,y> / sqrt(<x,x><y,y>)) for timelike hull points."""
    sx, sy, sxy = _inner_products(q, x, y)
    if sx >= 0 or sy >= 0:
        raise OutsideLightCone(f"hull norms ({sx}, {sy}) must both be negative")
    arg = -_cosine(sx, sy, sxy)
    if arg < 1.0:
        if arg < 1.0 - CLAMP_BAND:
            raise OutsideLightCone(f"arccosh argument {arg} below 1")
        arg = 1.0
    return math.acosh(arg)


def spherical_distance(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint) -> float:
    """arccos(<x,y> / sqrt(<x,x><y,y>)) for positive-norm hull points."""
    sx, sy, sxy = _inner_products(q, x, y)
    if sx <= 0 or sy <= 0:
        raise DegenerateDirection(f"hull norms ({sx}, {sy}) must both be positive")
    arg = _cosine(sx, sy, sxy)
    if abs(arg) > 1.0:
        if abs(arg) > 1.0 + CLAMP_BAND:
            raise DegenerateDirection(f"arccos argument {arg} outside [-1, 1]")
        arg = math.copysign(1.0, arg)
    return math.acos(arg)


def distance(e: EdgeLengths, c: CurvatureSpec, x: BarycentricPoint,
             y: BarycentricPoint, tol: float = SQUARED_DISTANCE_FLOOR) -> float:
    """Geodesic distance between x and y for any constant curvature.

    Nonzero curvature measures on the unit-curvature model (``model_gram``)
    and divides the unit distance by sqrt(|kappa|).  No realizability check
    runs (it would add an eigendecomposition to every call), so callers run
    ``check`` first: on edges it does not call Realizable the result is still
    a finite float or a ``GeometryError``, but it is no distance.
    """
    q = model_gram(e, c)
    if c.kappa == 0:
        return euclidean_distance(q, x, y, tol)
    if c.kappa < 0:
        return hyperbolic_distance(q, x, y) / c.scale
    return spherical_distance(q, x, y) / c.scale
