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
    hull_inner_product,
    model_gram,
)
from .errors import (
    DegenerateDirection,
    NotRealizableInput,
    OutsideLightCone,
    WrongModel,
)

CLAMP_BAND = 1e-12


def euclidean_distance(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint,
                       tol: float = 1e-9) -> float:
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
    """(<x,x>, <y,y>, <x,y>) through the vertex Gram matrix."""
    sx = hull_inner_product(q, x, x)
    sy = hull_inner_product(q, y, y)
    sxy = hull_inner_product(q, x, y)
    return sx, sy, sxy


def hyperbolic_distance(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint) -> float:
    """arccosh(-<x,y> / sqrt(<x,x><y,y>)) for timelike hull points."""
    sx, sy, sxy = _inner_products(q, x, y)
    if sx >= 0 or sy >= 0:
        raise OutsideLightCone(f"hull norms ({sx}, {sy}) must both be negative")
    arg = -sxy / math.sqrt(sx * sy)
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
    arg = sxy / math.sqrt(sx * sy)
    if abs(arg) > 1.0:
        if abs(arg) > 1.0 + CLAMP_BAND:
            raise DegenerateDirection(f"arccos argument {arg} outside [-1, 1]")
        arg = math.copysign(1.0, arg)
    return math.acos(arg)


def distance(e: EdgeLengths, c: CurvatureSpec, x: BarycentricPoint,
             y: BarycentricPoint, tol: float = 1e-9) -> float:
    """Geodesic distance between x and y for any constant curvature.

    Nonzero curvature measures on the unit-curvature model (``model_gram``)
    and divides the unit distance by sqrt(|kappa|).
    """
    q = model_gram(e, c)
    if c.kappa == 0:
        return euclidean_distance(q, x, y, tol)
    if c.kappa < 0:
        return hyperbolic_distance(q, x, y) / c.scale
    return spherical_distance(q, x, y) / c.scale
