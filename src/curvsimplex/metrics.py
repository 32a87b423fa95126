"""Distances between barycentric points: one chord kernel for every curvature.

A distance is measured on the unit model as the arc over the chord between
the two points.  At kappa = 0 the chord is the apex Gram quadratic form.  At
kappa != 0 the points are lifted radially onto the unit model and the chord is
formed from <x,x>, <y,y> and <x-y, x-y> alone, so short distances keep their
digits and no product of hull norms is formed; the arc is 2 asinh(chord / 2)
on the hyperboloid and 2 asin(chord / 2) on the sphere, and the length at the
Gram matrix's curvature is that arc over sqrt(|kappa|).  A squared chord that
rounds at most ``tol`` outside its range is clamped into it; beyond that the
input is rejected.
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
    GramOverflow,
    NotRealizableInput,
    OutsideLightCone,
    WrongModel,
)
from .symmat import _other_vertices

# How far outside its range a squared chord may round and still be clamped into it.
SQUARED_DISTANCE_FLOOR = 1e-9

# Name and error of each model, by the sign of kappa: the error is raised for a
# point or chord outside the model.
_MODEL = {0.0: ("euclidean", NotRealizableInput), -1.0: ("hyperbolic", OutsideLightCone),
          1.0: ("spherical", DegenerateDirection)}


@np.errstate(over="ignore", invalid="ignore")  # a form past float64 raises GramOverflow
def _geodesic(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint,
              tol: float, model: float | None = None) -> float:
    """Distance of x and y at q's curvature: the unit-model arc over sqrt(|kappa|).

    ``model``, if given, is the sign of kappa (0.0, -1.0 or 1.0) q must have;
    a Gram matrix of another model raises WrongModel.  With s = <x,x>,
    n = sqrt|s| and sign * s > 0 for both points, the squared chord between
    the lifts x/n_x and y/n_y is
    (<x-y, x-y> - sign * ((s_x - s_y) / (n_x + n_y))^2) / (n_x n_y),
    which lies in [0, 4] on the sphere and in [0, inf) otherwise.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    kappa = q.curvature.kappa
    sign = math.copysign(1.0, kappa) if kappa else 0.0
    if model is not None and model != sign:
        name = _MODEL[model][0]
        raise WrongModel(f"{name}_distance needs a {name} Gram matrix, got kappa={kappa}")
    if sign == 0:
        m = q.matrix.data
        k = m.shape[0] + 1
        if x.coords.size != k or y.coords.size != k:
            raise ValueError("coordinate length does not match the simplex")
        diff = (x.coords - y.coords).take(_other_vertices(k, q.apex))
        chord2 = float(diff @ m @ diff)
        if not math.isfinite(chord2):
            raise GramOverflow(f"quadratic form {chord2} leaves float64")
    else:
        z = np.array((x.coords, y.coords, x.coords - y.coords))
        sx, sy, delta2 = (z @ _vertex_gram_data(q, x, y) * z).sum(axis=1).tolist()
        if not (sign * sx > 0 and sign * sy > 0):
            side = "negative" if sign < 0 else "positive"
            raise _MODEL[sign][1](f"hull norms ({sx}, {sy}) must both be {side}")
        if not (math.isfinite(sx) and math.isfinite(sy) and math.isfinite(delta2)):
            raise GramOverflow(f"quadratic forms ({sx}, {sy}, {delta2}) leave float64")
        nx, ny = math.sqrt(abs(sx)), math.sqrt(abs(sy))
        chord2 = (delta2 - sign * ((sx - sy) / (nx + ny)) ** 2) / (nx * ny)
    top = 4.0 if sign > 0 else math.inf
    if not 0 <= chord2 <= top:
        if not -tol <= chord2 <= top + tol:
            raise _MODEL[sign][1](f"squared chord {chord2} outside [0, {top}]")
        chord2 = min(max(chord2, 0.0), top)
    if sign == 0:
        return math.sqrt(chord2)
    arc = 2.0 * (math.asin if sign > 0 else math.asinh)(math.sqrt(chord2) / 2.0)
    return arc / q.curvature.scale


def euclidean_distance(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint,
                       tol: float = SQUARED_DISTANCE_FLOOR) -> float:
    """sqrt([x-y]^T Q [x-y]) with the apex coordinate dropped."""
    return _geodesic(q, x, y, tol, 0.0)


def hyperbolic_distance(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint) -> float:
    """2 asinh(chord / 2) / sqrt(-kappa) between the lifts of timelike hull points."""
    return _geodesic(q, x, y, SQUARED_DISTANCE_FLOOR, -1.0)


def spherical_distance(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint) -> float:
    """2 asin(chord / 2) / sqrt(kappa) between the lifts of positive-norm hull points."""
    return _geodesic(q, x, y, SQUARED_DISTANCE_FLOOR, 1.0)


def distance(e: EdgeLengths, c: CurvatureSpec, x: BarycentricPoint,
             y: BarycentricPoint, tol: float = SQUARED_DISTANCE_FLOOR) -> float:
    """Geodesic distance between x and y for any constant curvature.

    ``tol`` is how far a squared chord (on the unit model) may round outside
    its range and still be clamped into it.  No realizability check runs (it
    would add an eigendecomposition to every call), so callers run ``check``
    first: on edges it does not call Realizable the result is still a finite
    float or a ``GeometryError``, but it is no distance.
    """
    return _geodesic(model_gram(e, c), x, y, tol)
