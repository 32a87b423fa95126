"""Distances between barycentric points: one chord kernel for every curvature.

A distance is measured on the unit model as the arc over the chord between
the two points.  At kappa = 0 the chord is the apex Gram quadratic form.  At
kappa != 0 the points are lifted radially onto the unit model and the chord is
formed from <x,x>, <y,y> and <x-y, x-y> alone, so short distances keep their
digits and no product of hull norms is formed; the arc is 2 asinh(chord / 2)
on the hyperboloid and 2 asin(chord / 2) on the sphere.  A squared chord that
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
    NotRealizableInput,
    OutsideLightCone,
    WrongModel,
)

# How far outside its range a squared chord may round and still be clamped into it.
SQUARED_DISTANCE_FLOOR = 1e-9

# What each model raises for a point or chord outside it, by the sign of kappa.
_MODEL_ERROR = {0.0: NotRealizableInput, -1.0: OutsideLightCone, 1.0: DegenerateDirection}


def _geodesic(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint,
              sign: float, tol: float) -> float:
    """Unit-model distance of x and y; ``sign`` is kappa's sign, 0.0, -1.0 or 1.0.

    With s = <x,x>, n = sqrt|s| and sign * s > 0 for both points, the squared
    chord between the lifts x/n_x and y/n_y is
    (<x-y, x-y> - sign * ((s_x - s_y) / (n_x + n_y))^2) / (n_x n_y),
    which lies in [0, 4] on the sphere and in [0, inf) otherwise.
    """
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must be finite and nonnegative, got {tol}")
    if sign == 0:
        if q.apex is None:
            raise WrongModel("euclidean_distance needs an apex Gram matrix")
        m = q.matrix.data
        if x.coords.size != m.shape[0] + 1 or y.coords.size != m.shape[0] + 1:
            raise ValueError("coordinate length does not match the simplex")
        diff = np.delete(x.coords - y.coords, q.apex - 1)
        chord2 = float(diff @ m @ diff)
    else:
        z = np.array((x.coords, y.coords, x.coords - y.coords))
        sx, sy, delta2 = (z @ _vertex_gram_data(q, x, y) * z).sum(axis=1).tolist()
        if not (sign * sx > 0 and sign * sy > 0):
            side = "negative" if sign < 0 else "positive"
            raise _MODEL_ERROR[sign](f"hull norms ({sx}, {sy}) must both be {side}")
        nx, ny = math.sqrt(abs(sx)), math.sqrt(abs(sy))
        chord2 = (delta2 - sign * ((sx - sy) / (nx + ny)) ** 2) / (nx * ny)
    top = 4.0 if sign > 0 else math.inf
    if not 0 <= chord2 <= top:
        if not -tol <= chord2 <= top + tol:
            raise _MODEL_ERROR[sign](f"squared chord {chord2} outside [0, {top}]")
        chord2 = min(max(chord2, 0.0), top)
    if sign == 0:
        return math.sqrt(chord2)
    return 2.0 * (math.asin if sign > 0 else math.asinh)(math.sqrt(chord2) / 2.0)


def euclidean_distance(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint,
                       tol: float = SQUARED_DISTANCE_FLOOR) -> float:
    """sqrt([x-y]^T Q [x-y]) with the apex coordinate dropped."""
    return _geodesic(q, x, y, 0.0, tol)


def hyperbolic_distance(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint) -> float:
    """2 asinh(chord / 2) between the lifts of timelike hull points onto the hyperboloid."""
    return _geodesic(q, x, y, -1.0, SQUARED_DISTANCE_FLOOR)


def spherical_distance(q: GramMatrix, x: BarycentricPoint, y: BarycentricPoint) -> float:
    """2 asin(chord / 2) between the lifts of positive-norm hull points onto the sphere."""
    return _geodesic(q, x, y, 1.0, SQUARED_DISTANCE_FLOOR)


def distance(e: EdgeLengths, c: CurvatureSpec, x: BarycentricPoint,
             y: BarycentricPoint, tol: float = SQUARED_DISTANCE_FLOOR) -> float:
    """Geodesic distance between x and y for any constant curvature.

    Nonzero curvature measures on the unit-curvature model (``model_gram``)
    and divides the unit distance by sqrt(|kappa|).  ``tol`` is how far a
    squared chord (on the unit model) may round outside its range and still
    be clamped into it.  No realizability check runs (it would add an
    eigendecomposition to every call), so callers run ``check`` first: on
    edges it does not call Realizable the result is still a finite float or a
    ``GeometryError``, but it is no distance.
    """
    q = model_gram(e, c)
    d = _geodesic(q, x, y, q.curvature.kappa, tol)
    return d / c.scale if c.kappa else d
